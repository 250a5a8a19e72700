"""Distributed sweep fabric: partitioning, dispatch, failure
re-dispatch, and the audited store merge.

The acceptance pin lives here: a fabric run across two in-process
daemons with one killed mid-sweep still converges, and its results —
and the merged daemon stores — are bit-identical to a serial
:func:`run_sweep` of the same spec.
"""

import asyncio
import json
import threading
import time

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim import engine
from repro.sim.client import AsyncEvalClient
from repro.sim.engine import EvalTask, evaluate_cell
from repro.sim.fabric import (StaticMembership, federate_stats_async,
                              partition_index, partition_tasks,
                              run_fabric_async)
from repro.sim.server import EvalServer
from repro.sim.store import ResultStore, task_digest
from repro.sim.sweep import SweepSpec, run_sweep

#: Small but non-trivial grid: 8 cells, cheap cells, both partitions
#: of a two-host fleet non-empty (pinned below, not assumed).
SPEC = SweepSpec(architectures=("EPCM-MM", "2D_DDR3"),
                 workloads=("gcc", "lbm", "mcf", "milc"),
                 num_requests=(300,), seeds=(7,), queue_depths=(None,))


def run_fleet(scenario, count=2, tmp_path=None, **server_kwargs):
    """Start ``count`` fresh daemons (each with its own store when
    ``tmp_path`` is given), run the async scenario, always stop them."""
    async def wrapper():
        servers = []
        for index in range(count):
            kwargs = dict(server_kwargs)
            if tmp_path is not None:
                kwargs["store"] = ResultStore(tmp_path / f"daemon{index}")
            server = EvalServer(port=0, **kwargs)
            await server.start()
            servers.append(server)
        try:
            return await scenario(servers)
        finally:
            for server in servers:
                await server.stop()
    return asyncio.run(wrapper())


def addresses(servers):
    return [f"http://127.0.0.1:{server.port}" for server in servers]


async def start_fake_daemon(eval_reply):
    """A daemon that is healthy but answers every ``/eval`` with
    ``eval_reply(query)`` — a reply of the wrong shape, in the tests."""
    async def handle(reader, writer):
        request = await reader.readline()
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode().partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        body = await reader.readexactly(length)
        payload = {"ok": True} if b"/healthz" in request \
            else eval_reply(json.loads(body))
        reply = json.dumps(payload).encode()
        writer.write(b"HTTP/1.1 200 OK\r\nContent-Type: application/json"
                     b"\r\nContent-Length: %d\r\nConnection: close"
                     b"\r\n\r\n" % len(reply) + reply)
        await writer.drain()
        writer.close()
    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, f"http://127.0.0.1:{server.sockets[0].getsockname()[1]}"


#: Malformed eval replies, each a function of the query it answers.
MALFORMED_REPLIES = {
    "result-not-an-object": lambda query: {"ok": True, "results": [42]},
    "row-without-stats": lambda query: {
        "ok": True, "results": [{"task": query["tasks"][0]}]},
    "stats-missing-fields": lambda query: {
        "ok": True, "results": [{"task": query["tasks"][0],
                                 "stats": {"device_name": "x"}}]},
}


class TestPartitioning:
    def test_partition_is_disjoint_cover(self):
        tasks = SPEC.tasks()
        for hosts in (1, 2, 3, 5):
            parts = partition_tasks(tasks, hosts)
            flat = [task for part in parts for task in part]
            # Every cell lands in exactly one partition...
            assert sorted(flat, key=task_digest) \
                == sorted(tasks, key=task_digest)
            # ...the one its digest prefix names.
            for index, part in enumerate(parts):
                for task in part:
                    assert partition_index(task, hosts) == index

    def test_partition_is_deterministic_across_calls(self):
        tasks = SPEC.tasks()
        first = partition_tasks(tasks, 3)
        assert partition_tasks(list(reversed(tasks)), 3) \
            == [list(reversed(part)) for part in first]

    def test_two_host_fleet_has_both_partitions_populated(self):
        # The killed-host test below only exercises re-dispatch if the
        # victim actually owns cells; pin that property of SPEC here so
        # a spec edit cannot silently hollow the test out.
        parts = partition_tasks(SPEC.tasks(), 2)
        assert all(part for part in parts)

    def test_zero_partitions_rejected(self):
        with pytest.raises(SimulationError):
            partition_tasks(SPEC.tasks(), 0)


class TestFabricDispatch:
    def test_matches_serial_run_sweep_bit_identical(self, tmp_path):
        local = ResultStore(tmp_path / "local")

        async def scenario(servers):
            return await run_fabric_async(SPEC, addresses(servers),
                                          store=local)
        result = run_fleet(scenario, tmp_path=tmp_path)
        serial = run_sweep(SPEC)
        # Dataclass eq: every field of every cell, including the full
        # per-request latency lists, bit-for-bit.
        assert result.results == serial.results
        assert result.completed == SPEC.num_cells
        assert result.store_hits == 0
        assert sum(result.per_host.values()) == result.completed
        assert not result.dead_hosts

    def test_local_store_write_through_enables_warm_resume(self, tmp_path):
        local = ResultStore(tmp_path / "local")

        async def scenario(servers):
            first = await run_fabric_async(SPEC, addresses(servers),
                                           store=local)
            warm = await run_fabric_async(SPEC, addresses(servers),
                                          store=local)
            return first, warm
        first, warm = run_fleet(scenario, tmp_path=tmp_path)
        assert warm.completed == 0
        assert warm.store_hits == SPEC.num_cells
        assert warm.results == first.results

    def test_killed_host_redispatches_and_stays_bit_identical(
            self, tmp_path, monkeypatch):
        """The acceptance pin: kill one daemon mid-sweep; the fabric
        re-dispatches its unfinished partition to the survivor and the
        final results are still bit-identical to a serial run."""
        real = engine.evaluate_cell

        def delayed(task):
            time.sleep(0.15)     # long enough for the kill to land
            return real(task)    # mid-run, not before or after
        monkeypatch.setattr(engine, "evaluate_cell", delayed)
        local = ResultStore(tmp_path / "local")

        async def scenario(servers):
            survivor, victim = servers

            async def kill_after_first_compute():
                while victim.stats_snapshot()["computed"] < 1:
                    await asyncio.sleep(0.01)
                await victim.stop()

            killer = asyncio.ensure_future(kill_after_first_compute())
            try:
                return await run_fabric_async(
                    SPEC, addresses(servers), store=local,
                    window=1, retries=0, backoff=0.01, cell_attempts=4)
            finally:
                killer.cancel()
        result = run_fleet(scenario, tmp_path=tmp_path, workers=1)
        monkeypatch.setattr(engine, "evaluate_cell", real)
        serial = run_sweep(SPEC)
        assert result.results == serial.results
        assert len(result.dead_hosts) == 1
        assert result.redispatched >= 1
        # The survivor absorbed the whole grid (minus what the victim
        # finished before dying).
        assert result.completed >= SPEC.num_cells - 1

    def test_whole_fleet_dead_raises_structured_error(self, tmp_path):
        local = ResultStore(tmp_path / "local")

        async def scenario(servers):
            victim = servers[0]
            address = f"http://127.0.0.1:{victim.port}"
            await victim.stop()
            with pytest.raises(SimulationError):
                await run_fabric_async(SPEC, [address], store=local,
                                       retries=0, backoff=0.01,
                                       cell_attempts=2)
        run_fleet(scenario, count=1)

    def test_cell_attempt_budget_exhaustion_fails_the_run(
            self, monkeypatch):
        def broken(task):
            raise SimulationError("injected compute failure")
        monkeypatch.setattr(engine, "evaluate_cell", broken)

        async def scenario(servers):
            with pytest.raises(SimulationError, match="attempts"):
                await run_fabric_async(SPEC, addresses(servers),
                                       retries=0, backoff=0.0,
                                       cell_attempts=2)
        run_fleet(scenario, workers=1)

    @pytest.mark.parametrize("shape", sorted(MALFORMED_REPLIES))
    def test_malformed_replies_fail_the_run_within_its_budget(self, shape):
        """A healthy daemon sending replies of the wrong shape: each
        attempt is a structured failure, the cell is retried within
        ``cell_attempts``, and the run ends with the error instead of
        losing the cell with a dead worker and waiting forever."""
        async def scenario():
            server, address = await start_fake_daemon(
                MALFORMED_REPLIES[shape])
            try:
                with pytest.raises(SimulationError,
                                   match="malformed server reply"):
                    await asyncio.wait_for(run_fabric_async(
                        SPEC, [address], retries=0, backoff=0.0,
                        cell_attempts=2), timeout=30)
            finally:
                server.close()
                await server.wait_closed()
        asyncio.run(scenario())

    def test_raising_on_result_callback_fails_the_run(self):
        def explode(task, stats):
            raise RuntimeError("on_result exploded")

        async def scenario(servers):
            with pytest.raises(RuntimeError, match="on_result exploded"):
                await asyncio.wait_for(run_fabric_async(
                    SPEC, addresses(servers), on_result=explode),
                    timeout=30)
        run_fleet(scenario)

    def test_failing_store_write_fails_the_run(self, tmp_path):
        """A write-through that raises on the writer thread ends the run
        with its error, like a raising ``on_result``."""
        class FullDisk(ResultStore):
            def put(self, task, stats, latencies=True):
                raise OSError(28, "No space left on device")

        async def scenario(servers):
            with pytest.raises(OSError, match="No space left"):
                await asyncio.wait_for(run_fabric_async(
                    SPEC, addresses(servers),
                    store=FullDisk(tmp_path / "local")), timeout=30)
        run_fleet(scenario)

    def test_dying_prober_fails_the_run(self, monkeypatch):
        """A membership source that raises kills the prober, and
        without it no suspect host would ever be judged again: the run
        ends with the source's error instead."""
        real = engine.evaluate_cell

        def delayed(task):
            time.sleep(0.05)     # keep the run alive past a prober tick
            return real(task)
        monkeypatch.setattr(engine, "evaluate_cell", delayed)

        class BreaksAfterLaunch(StaticMembership):
            elastic = True
            reads = 0

            def hosts(self):
                self.reads += 1
                if self.reads > 1:
                    raise RuntimeError("membership source broke")
                return super().hosts()

        async def scenario(servers):
            with pytest.raises(RuntimeError, match="source broke"):
                await asyncio.wait_for(run_fabric_async(
                    SPEC, membership=BreaksAfterLaunch(addresses(servers)),
                    probe_interval=0.01), timeout=30)
        run_fleet(scenario, workers=1)

    def test_federated_stats_tolerates_unreachable_host(self, tmp_path):
        async def scenario(servers):
            live = addresses(servers)[0]
            dead = servers[1]
            dead_address = f"http://127.0.0.1:{dead.port}"
            await run_fabric_async(SPEC, [live])
            await dead.stop()
            return await federate_stats_async(
                [live, dead_address], retries=0, backoff=0.01)
        report = run_fleet(scenario, count=2)
        assert report["reachable"] == 1
        assert report["unreachable"] == 1
        assert report["totals"]["computed"] == SPEC.num_cells
        assert "error" in list(report["hosts"].values())[1]


def writer_threads():
    return [thread for thread in threading.enumerate()
            if thread.name.startswith("fabric-writer")]


class TestWriteBehind:
    """The coordinator writes each completed cell on the run's writer
    thread, behind dispatch, and reports it after the write."""

    def test_store_write_does_not_hold_back_dispatch(self, tmp_path,
                                                     monkeypatch):
        """The first ``put`` waits until the fleet has computed every
        cell.  Only dispatches made while that write is still pending
        can get there: a write on the event loop would block them and
        see 2 of the 8 cells."""
        real = engine.evaluate_cell
        lock = threading.Lock()
        computed = []

        def counting(task):
            stats = real(task)
            with lock:
                computed.append(task)
            return stats
        monkeypatch.setattr(engine, "evaluate_cell", counting)
        seen = []

        class WaitingStore(ResultStore):
            def put(self, task, stats, latencies=True):
                if not seen:
                    deadline = time.monotonic() + 5.0
                    while time.monotonic() < deadline:
                        with lock:
                            if len(computed) == SPEC.num_cells:
                                break
                        time.sleep(0.005)
                    with lock:
                        seen.append(len(computed))
                return super().put(task, stats, latencies)
        local = WaitingStore(tmp_path / "local")

        async def scenario(servers):
            return await run_fabric_async(SPEC, addresses(servers),
                                          store=local, window=1)
        result = run_fleet(scenario, workers=1)
        monkeypatch.setattr(engine, "evaluate_cell", real)
        assert seen == [SPEC.num_cells]
        assert result.results == run_sweep(SPEC).results
        assert {task: local.get(task) for task in SPEC.tasks()} \
            == result.results
        assert not writer_threads()

    def test_reports_follow_writes_in_completion_order(self, tmp_path,
                                                        monkeypatch):
        """``on_result`` fires on the loop after its cell's write, in
        the order the replies arrived, while slow writes queue up."""
        arrived, reported = [], []
        real_eval = AsyncEvalClient.eval_cell

        async def recording(self, task, **kwargs):
            stats = await real_eval(self, task, **kwargs)
            arrived.append(task)
            return stats
        monkeypatch.setattr(AsyncEvalClient, "eval_cell", recording)

        class SlowStore(ResultStore):
            def put(self, task, stats, latencies=True):
                time.sleep(0.02)
                return super().put(task, stats, latencies)
        local = SlowStore(tmp_path / "local")

        def on_result(task, stats):
            assert threading.current_thread() is threading.main_thread()
            assert local.get(task) == stats
            reported.append(task)

        async def scenario(servers):
            return await run_fabric_async(SPEC, addresses(servers),
                                          store=local, on_result=on_result)
        result = run_fleet(scenario)
        assert len(result.results) == SPEC.num_cells
        assert reported == arrived and len(reported) == SPEC.num_cells

    def test_failed_run_writes_every_cell_it_reported(self, tmp_path,
                                                      monkeypatch):
        """One cell's compute always fails and its budget is one
        attempt, so the run raises while the slow writer still holds
        completed cells.  Every cell ``on_result`` saw is in the store
        when the run has raised, and the writer thread is gone."""
        real = engine.evaluate_cell
        doomed = SPEC.tasks()[-1]

        def broken_for_one(task):
            if task == doomed:
                time.sleep(0.2)     # let other cells complete first
                raise SimulationError("injected compute failure")
            return real(task)
        monkeypatch.setattr(engine, "evaluate_cell", broken_for_one)

        class SlowStore(ResultStore):
            def put(self, task, stats, latencies=True):
                time.sleep(0.05)
                return super().put(task, stats, latencies)
        local = SlowStore(tmp_path / "local")
        seen = {}

        async def scenario(servers):
            with pytest.raises(SimulationError, match="attempts"):
                await run_fabric_async(
                    SPEC, addresses(servers), store=local,
                    on_result=seen.__setitem__, retries=0, backoff=0.0,
                    cell_attempts=1)
        run_fleet(scenario, workers=1)
        assert seen and doomed not in seen
        assert {task: local.get(task) for task in seen} == seen
        assert len(local) == len(seen)
        assert not writer_threads()


TASK = EvalTask("EPCM-MM", "gcc", 300, 7)
OTHER = EvalTask("EPCM-MM", "mcf", 300, 7)


class TestStoreMerge:
    def test_merge_copies_new_entries_bit_identical(self, tmp_path):
        source = ResultStore(tmp_path / "src")
        stats = evaluate_cell(TASK)
        source.put(TASK, stats)
        dest = ResultStore(tmp_path / "dst")
        report = dest.merge_from(source)
        assert len(report.merged) == 1 and not report.conflicts
        assert dest.get(TASK) == stats
        again = dest.merge_from(source)
        assert again.already_present == 1 and not again.merged

    def test_merge_upgrades_archival_entries(self, tmp_path):
        stats = evaluate_cell(TASK)
        archival = ResultStore(tmp_path / "arch")
        archival.put(TASK, stats, latencies=False)
        full = ResultStore(tmp_path / "full")
        full.put(TASK, stats, latencies=True)
        dest = ResultStore(tmp_path / "dst")
        dest.merge_from(archival)
        report = dest.merge_from(full)
        assert len(report.upgraded) == 1
        # The richer entry won: per-request latencies restored exactly.
        assert dest.get(TASK) == stats

    def test_merge_never_downgrades_to_archival(self, tmp_path):
        stats = evaluate_cell(TASK)
        full = ResultStore(tmp_path / "full")
        full.put(TASK, stats, latencies=True)
        archival = ResultStore(tmp_path / "arch")
        archival.put(TASK, stats, latencies=False)
        dest = ResultStore(tmp_path / "dst")
        dest.merge_from(full)
        report = dest.merge_from(archival)
        assert report.already_present == 1 and not report.upgraded
        assert dest.get(TASK) == stats

    def test_merge_detects_digest_collision_conflicts(self, tmp_path,
                                                      edit_entry):
        stats = evaluate_cell(TASK)
        source = ResultStore(tmp_path / "src")
        source.put(TASK, stats)
        dest = ResultStore(tmp_path / "dst")
        dest.put(TASK, stats)
        # Tamper the destination's header line in place: same digest, a
        # different stats payload — what divergent simulator builds
        # sharing a RESULTS_VERSION would produce.
        path = dest.path_for(TASK)
        edit_entry(path, lambda entry: entry["stats"].update(
            num_reads=entry["stats"]["num_reads"] + 1))
        tampered = path.read_bytes()
        report = dest.merge_from(source)
        assert report.conflicts == [task_digest(TASK)]
        assert not report.merged and not report.replaced_torn
        # The conflicting entry was left exactly as it was, not
        # clobbered by the source's version.
        assert path.read_bytes() == tampered

    def test_merge_detects_a_one_ulp_sample_change(self, tmp_path,
                                                   edit_entry):
        """Two entries with samples are the same result only when their
        sample bytes are: one sample one ulp off is a conflict."""
        stats = evaluate_cell(TASK)
        source = ResultStore(tmp_path / "src")
        source.put(TASK, stats)
        dest = ResultStore(tmp_path / "dst")
        dest.put(TASK, stats)

        def nudge(entry):
            samples = entry["stats"]["latencies_ns"].copy()
            samples[len(samples) // 2] = np.nextafter(
                samples[len(samples) // 2], np.inf)
            entry["stats"]["latencies_ns"] = samples
        edit_entry(dest.path_for(TASK), nudge)
        report = dest.merge_from(source)
        assert report.conflicts == [task_digest(TASK)]
        assert not report.already_present and not report.copied_total

    def test_merge_checks_an_archival_summary_against_the_samples(
            self, tmp_path, edit_entry):
        """An archival entry and an entry with samples are the same
        result exactly when the summary is that of the samples."""
        stats = evaluate_cell(TASK)
        full = ResultStore(tmp_path / "full")
        full.put(TASK, stats)
        archival = ResultStore(tmp_path / "arch")
        archival.put(TASK, stats, latencies=False)
        edit_entry(archival.path_for(TASK),
                   lambda entry: entry["stats"]["latency_summary"].update(
                       max_ns=entry["stats"]["latency_summary"]["max_ns"]
                       + 1.0))
        for dest, source in ((archival, full), (full, archival)):
            report = dest.merge_from(source)
            assert report.conflicts == [task_digest(TASK)]
            assert not report.upgraded and not report.already_present

    def test_merge_replaces_torn_destination_entries(self, tmp_path):
        stats = evaluate_cell(TASK)
        source = ResultStore(tmp_path / "src")
        source.put(TASK, stats)
        dest = ResultStore(tmp_path / "dst")
        dest.put(TASK, stats)
        dest.path_for(TASK).write_text('{"torn')
        report = dest.merge_from(source)
        assert len(report.replaced_torn) == 1
        assert dest.get(TASK) == stats

    def test_merge_skips_torn_source_entries(self, tmp_path):
        stats = evaluate_cell(TASK)
        source = ResultStore(tmp_path / "src")
        source.put(TASK, stats)
        source.put(OTHER, evaluate_cell(OTHER))
        source.path_for(OTHER).write_text('{"torn')
        dest = ResultStore(tmp_path / "dst")
        report = dest.merge_from(source)
        assert len(report.merged) == 1
        assert len(report.skipped_unreadable) == 1
        assert dest.get(TASK) == stats and dest.get(OTHER) is None

    def test_dry_run_writes_nothing(self, tmp_path):
        source = ResultStore(tmp_path / "src")
        source.put(TASK, evaluate_cell(TASK))
        dest = ResultStore(tmp_path / "dst")
        report = dest.merge_from(source, dry_run=True)
        assert report.dry_run and len(report.merged) == 1
        assert len(dest) == 0

    def test_merged_daemon_stores_pass_warm_no_compute(self, tmp_path):
        """The write-back half of the acceptance pin: after a fabric
        run, merging the daemons' stores yields a store a serial sweep
        reads entirely warm, bit-identical to a cold serial run."""
        async def scenario(servers):
            return await run_fabric_async(SPEC, addresses(servers))
        result = run_fleet(scenario, tmp_path=tmp_path)
        merged = ResultStore(tmp_path / "merged")
        for index in range(2):
            report = merged.merge_from(tmp_path / f"daemon{index}")
            assert not report.conflicts
        assert len(merged) == SPEC.num_cells
        warm = run_sweep(SPEC, store=merged, resume=True)
        assert warm.computed == 0
        assert warm.results == result.results == run_sweep(SPEC).results

    def test_merge_stores_cli_reports_conflicts_nonzero(self, tmp_path,
                                                        capsys, edit_entry):
        from repro.sim.__main__ import merge_main
        stats = evaluate_cell(TASK)
        source = ResultStore(tmp_path / "src")
        source.put(TASK, stats)
        dest = ResultStore(tmp_path / "dst")
        dest.put(TASK, stats)
        assert merge_main(["--into", str(tmp_path / "dst"),
                           str(tmp_path / "src")]) == 0
        edit_entry(dest.path_for(TASK), lambda entry: entry["stats"].update(
            num_reads=entry["stats"]["num_reads"] + 1))
        assert merge_main(["--into", str(tmp_path / "dst"),
                           str(tmp_path / "src")]) == 1
        assert "conflict" in capsys.readouterr().err.lower()
