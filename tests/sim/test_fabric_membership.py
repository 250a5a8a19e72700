"""Elastic fleet membership: the prober-driven state machine, mid-run
join and eviction, re-admission, and the membership sources.

The churn scenarios here run against in-process daemons (fast,
deterministic triggers keyed to run progress); the same arcs against
real subprocesses and real signals live in ``test_chaos_fabric.py``.
Every scenario asserts the invariant the fabric exists for: whatever
the membership does, the results stay bit-identical to a serial
:func:`run_sweep`.
"""

import asyncio
import time

import pytest

from repro.errors import SimulationError
from repro.sim import engine
from repro.sim.fabric import (HostFileMembership, StaticMembership,
                              membership_counters, partition_tasks,
                              reset_membership_counters, run_fabric_async)
from repro.sim.server import EvalServer
from repro.sim.store import ResultStore
from repro.sim.sweep import SweepSpec, run_sweep

#: The 8-cell grid the fabric tests share (both two-host partitions
#: non-empty — pinned in test_fabric.py).
SPEC = SweepSpec(architectures=("EPCM-MM", "2D_DDR3"),
                 workloads=("gcc", "lbm", "mcf", "milc"),
                 num_requests=(300,), seeds=(7,), queue_depths=(None,))

#: Aggressive prober + no client retries: membership verdicts land
#: within a few hundredths of a second of the trigger.
CHURN = dict(window=1, retries=0, backoff=0.01, cell_attempts=6,
             probe_interval=0.05, probe_timeout=0.5)


def pace(monkeypatch, delay):
    """Slow every cell down so churn triggers land mid-run.  The
    wrapper only changes *when* a cell computes, never its result, so
    bit-identity assertions still hold."""
    real = engine.evaluate_cell

    def delayed(task):
        time.sleep(delay)
        return real(task)
    monkeypatch.setattr(engine, "evaluate_cell", delayed)
    return real


def address_of(server):
    return f"http://127.0.0.1:{server.port}"


class TestReadmission:
    def test_readmitted_host_with_stale_store_stays_digest_consistent(
            self, tmp_path, monkeypatch):
        """Kill a daemon mid-run, then bring a replacement up on the
        same port and the same (now stale) store: the prober re-admits
        it and the final results are still bit-identical — the
        content-addressed store can only ever serve the exact cells the
        digests name."""
        real = pace(monkeypatch, 0.15)
        victim_store = tmp_path / "victim-store"
        # The "stale" part: the store already holds results from an
        # earlier life of this daemon.
        warm = ResultStore(victim_store)
        for task in SPEC.tasks()[:2]:
            warm.put(task, real(task))
        local = ResultStore(tmp_path / "local")
        events = []

        async def scenario():
            survivor = EvalServer(port=0)
            victim = EvalServer(port=0, store=ResultStore(victim_store))
            await survivor.start()
            await victim.start()
            victim_address = address_of(victim)
            replacement = {"server": None, "task": None}

            async def kill_after_first_query():
                while victim.stats_snapshot()["queries"] < 1:
                    await asyncio.sleep(0.01)
                await victim.stop()

            async def rebirth():
                reborn = EvalServer(port=victim.port,
                                    store=ResultStore(victim_store))
                await reborn.start()
                replacement["server"] = reborn

            def on_membership(address, old, new, reason):
                events.append((address, old, new))
                if address == victim_address and new == "dead" \
                        and replacement["task"] is None:
                    replacement["task"] = asyncio.ensure_future(rebirth())

            killer = asyncio.ensure_future(kill_after_first_query())
            try:
                result = await run_fabric_async(
                    SPEC, [address_of(survivor), victim_address],
                    store=local, on_membership=on_membership, **CHURN)
            finally:
                killer.cancel()
                if replacement["task"] is not None:
                    await replacement["task"]
                for server in (survivor, replacement["server"]):
                    if server is not None:
                        await server.stop()
            return result, victim_address

        result, victim_address = asyncio.run(scenario())
        monkeypatch.setattr(engine, "evaluate_cell", real)
        assert result.results == run_sweep(SPEC).results
        assert victim_address in result.readmitted
        assert (victim_address, "dead", "rejoining") in events
        assert (victim_address, "rejoining", "alive") in events
        # Re-admission is provenance, not a dead-host record: the host
        # finished the run alive.
        assert victim_address not in result.dead_hosts
        assert victim_address in result.completed_after_readmission


class TestMidRunJoin:
    def test_join_mid_run_takes_handoff_and_stays_bit_identical(
            self, tmp_path, monkeypatch):
        """A host added to the watched file mid-run gets a share of the
        unstarted remainder and contributes real cells."""
        real = pace(monkeypatch, 0.15)
        hostfile = tmp_path / "hosts.txt"
        local = ResultStore(tmp_path / "local")
        reset_membership_counters()

        async def scenario():
            first = EvalServer(port=0)
            second = EvalServer(port=0)
            await first.start()
            await second.start()
            hostfile.write_text(address_of(first) + "\n")
            seen = []

            def on_result(task, stats):
                seen.append(task)
                if len(seen) == 1:
                    hostfile.write_text(address_of(first) + "\n"
                                        + address_of(second) + "\n")
            try:
                result = await run_fabric_async(
                    SPEC, membership=HostFileMembership(hostfile),
                    store=local, on_result=on_result, **CHURN)
            finally:
                await first.stop()
                await second.stop()
            return result, address_of(second)

        result, joiner = asyncio.run(scenario())
        monkeypatch.setattr(engine, "evaluate_cell", real)
        assert result.results == run_sweep(SPEC).results
        assert joiner in result.joined
        # The handoff was real: the joiner ran part of the grid.
        assert result.per_host[joiner] >= 1
        assert sum(result.per_host.values()) == result.completed \
            == SPEC.num_cells
        assert any(entry.startswith("(new)→alive")
                   for entry in result.transitions[joiner])
        assert membership_counters()["admitted"] >= 1

    def test_join_after_last_dispatch_is_a_clean_noop(
            self, tmp_path, monkeypatch):
        """With every cell already dispatched (window covers the whole
        grid), a late joiner is admitted, finds nothing to hand off,
        completes zero cells, and the run is otherwise untouched."""
        real = pace(monkeypatch, 0.2)
        hostfile = tmp_path / "hosts.txt"

        async def scenario():
            first = EvalServer(port=0)
            second = EvalServer(port=0)
            await first.start()
            await second.start()
            hostfile.write_text(address_of(first) + "\n")
            seen = []

            def on_result(task, stats):
                seen.append(task)
                if len(seen) == 1:
                    hostfile.write_text(address_of(first) + "\n"
                                        + address_of(second) + "\n")
            kwargs = dict(CHURN, window=SPEC.num_cells)
            try:
                result = await run_fabric_async(
                    SPEC, membership=HostFileMembership(hostfile),
                    on_result=on_result, **kwargs)
            finally:
                await first.stop()
                await second.stop()
            return result, address_of(second)

        result, joiner = asyncio.run(scenario())
        monkeypatch.setattr(engine, "evaluate_cell", real)
        assert result.results == run_sweep(SPEC).results
        assert result.completed == SPEC.num_cells
        assert joiner in result.joined
        assert result.per_host.get(joiner, 0) == 0
        assert not result.dead_hosts and not result.evicted


class TestEviction:
    def test_host_file_rewritten_empty_fails_structured_and_checkpoints(
            self, tmp_path, monkeypatch):
        """The operator abort path: an emptied host file evicts the
        whole fleet, the run fails with the structured whole-fleet-dead
        error immediately (no grace wait — the source says nobody is
        coming back), and completed cells are already checkpointed."""
        real = pace(monkeypatch, 0.15)
        hostfile = tmp_path / "hosts.txt"
        local = ResultStore(tmp_path / "local")

        async def scenario():
            first = EvalServer(port=0)
            second = EvalServer(port=0)
            await first.start()
            await second.start()
            hostfile.write_text(address_of(first) + "\n"
                                + address_of(second) + "\n")
            seen = []

            def on_result(task, stats):
                seen.append(task)
                if len(seen) == 1:
                    hostfile.write_text("")
            try:
                with pytest.raises(SimulationError,
                                   match="rerun to resume"):
                    await run_fabric_async(
                        SPEC, membership=HostFileMembership(hostfile),
                        store=local, on_result=on_result, **CHURN)
            finally:
                await first.stop()
                await second.stop()

        asyncio.run(scenario())
        monkeypatch.setattr(engine, "evaluate_cell", real)
        # The cells finished before the abort are in the local store —
        # a rerun resumes from them.
        assert len(local) >= 1
        for task, hit in local.get_many(SPEC.tasks()).items():
            if hit is not None:
                assert hit == engine.evaluate_cell(task)


class TestMembershipSources:
    def test_static_membership_dedupes(self):
        source = StaticMembership(["http://a:1", "http://b:2", "http://a:1"])
        assert source.hosts() == ["http://a:1", "http://b:2"]
        assert not source.elastic

    def test_host_file_parses_comments_blanks_and_dupes(self, tmp_path):
        path = tmp_path / "hosts.txt"
        path.write_text("# fleet\nhttp://a:1\n\nhttp://b:2  # spare\n"
                        "http://a:1\n")
        source = HostFileMembership(path)
        assert source.hosts() == ["http://a:1", "http://b:2"]
        assert source.elastic

    def test_missing_host_file_reads_as_empty_fleet(self, tmp_path):
        assert HostFileMembership(tmp_path / "absent.txt").hosts() == []

    def test_empty_membership_rejected_at_launch(self, tmp_path):
        path = tmp_path / "hosts.txt"
        path.write_text("\n")
        with pytest.raises(SimulationError, match="at least one host"):
            asyncio.run(run_fabric_async(
                SPEC, membership=HostFileMembership(path)))

    def test_hosts_and_membership_are_mutually_exclusive(self):
        with pytest.raises(SimulationError, match="not both"):
            asyncio.run(run_fabric_async(
                SPEC, ["http://a:1"],
                membership=StaticMembership(["http://a:1"])))


class TestCounters:
    def test_membership_counters_reset_and_accumulate(self):
        reset_membership_counters()
        counters = membership_counters()
        assert set(counters) >= {"admitted", "suspected", "recovered",
                                 "died", "readmitted", "evicted"}
        assert all(value == 0 for value in counters.values())
        # Mutating the snapshot must not touch the live counters.
        counters["died"] = 99
        assert membership_counters()["died"] == 0


class TestHandoffInvariant:
    def test_repartition_of_remainder_is_a_disjoint_cover(self):
        # The property the mid-run handoff rides on: re-partitioning
        # any subset over any fleet size still covers each cell exactly
        # once.
        tasks = SPEC.tasks()[3:]
        for hosts in (1, 2, 3):
            parts = partition_tasks(tasks, hosts)
            flat = sorted((task for part in parts for task in part),
                          key=repr)
            assert flat == sorted(tasks, key=repr)
