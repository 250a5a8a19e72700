"""Persistent result store: digests, round trips, invalidation."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import threading

import pytest

from repro.errors import SimulationError
from repro.sim.__main__ import main as cli_main
from repro.sim.engine import EvalTask, evaluate_cell
from repro.sim import store as store_mod
from repro.sim.store import (
    ResultStore,
    STORE_SCHEMA_VERSION,
    device_fingerprint,
    task_digest,
    workload_fingerprint,
)

TASK = EvalTask("EPCM-MM", "gcc", 400, 7)

#: Polls the Umask line of /proc/<pid>/status until a stop file
#: appears, then prints every distinct value it read ("-" where the
#: platform reports no umask there).  It runs in its own process, so it
#: reads the umask without setting it and without waiting for the GIL.
_UMASK_WATCHER = r"""
import os, sys
try:
    status = os.open(f"/proc/{sys.argv[1]}/status", os.O_RDONLY)
except OSError:
    status = None
seen = {"-"} if status is None else set()
print("watching", flush=True)
while status is not None and not os.path.exists(sys.argv[2]):
    for _ in range(64):
        data = os.pread(status, 8192, 0)
        at = data.find(b"Umask:")
        seen.add(data[at + 6:at + 12].strip().decode() if at >= 0 else "-")
print(*sorted(seen))
"""


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "results")


class TestDigests:
    def test_digest_is_deterministic(self):
        assert task_digest(TASK) == task_digest(TASK)
        assert len(task_digest(TASK)) == 64

    def test_digest_covers_every_task_axis(self):
        base = task_digest(TASK)
        assert task_digest(EvalTask("2D_DDR3", "gcc", 400, 7)) != base
        assert task_digest(EvalTask("EPCM-MM", "mcf", 400, 7)) != base
        assert task_digest(EvalTask("EPCM-MM", "gcc", 500, 7)) != base
        assert task_digest(EvalTask("EPCM-MM", "gcc", 400, 8)) != base
        assert task_digest(EvalTask("EPCM-MM", "gcc", 400, 7, 16)) != base

    def test_digest_stable_across_processes(self):
        """No dict-ordering or hash-randomization dependence: a fresh
        interpreter computes the same digest."""
        script = (
            "from repro.sim.engine import EvalTask\n"
            "from repro.sim.store import task_digest\n"
            "print(task_digest(EvalTask('EPCM-MM', 'gcc', 400, 7)))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONHASHSEED": "random"},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == task_digest(TASK)

    def test_fingerprints_differ_between_models(self):
        assert device_fingerprint("EPCM-MM") != device_fingerprint("2D_DDR3")
        assert workload_fingerprint("gcc") != workload_fingerprint("mcf")


class TestResultStore:
    def test_put_get_round_trip_is_bit_identical(self, store):
        stats = evaluate_cell(TASK)
        store.put(TASK, stats)
        assert TASK in store
        assert len(store) == 1
        assert store.get(TASK) == stats   # dataclass eq: every field

    def test_get_unknown_is_miss(self, store):
        assert store.get(TASK) is None
        assert TASK not in store

    def test_corrupt_entry_is_a_miss(self, store):
        stats = evaluate_cell(TASK)
        store.put(TASK, stats)
        store.path_for(TASK).write_text("{not json")
        assert store.get(TASK) is None

    def test_missing_or_torn_sidecar_is_a_miss(self, store):
        stats = evaluate_cell(TASK)
        store.put(TASK, stats)
        sidecar = store.path_for(TASK).with_suffix(".lat")
        truncated = sidecar.read_bytes()[:-8]
        sidecar.write_bytes(truncated)
        assert store.get(TASK) is None
        sidecar.unlink()
        assert store.get(TASK) is None

    def test_entries_iterates_tasks_and_stats(self, store):
        stats = evaluate_cell(TASK)
        store.put(TASK, stats)
        listed = list(store.entries())
        assert listed == [(TASK, stats)]

    def test_entries_respect_umask(self, store):
        """Atomic staging must not leave the shareable store files at
        NamedTemporaryFile's private 0600."""
        old_umask = os.umask(0o022)
        try:
            store.put(TASK, evaluate_cell(TASK))
        finally:
            os.umask(old_umask)
        for path in (store.path_for(TASK),
                     store.path_for(TASK).with_suffix(".lat")):
            assert path.stat().st_mode & 0o777 == 0o644

    def test_concurrent_writers_leave_the_umask_alone(self, store,
                                                     tmp_path):
        """Two threads writing entries, sidecars and CSV exports at a
        1 us switch interval never change the process umask, and every
        file and shard directory gets the mode it implies.  Reading the
        umask by setting it to 0 and back let one thread see, or
        restore, the other's 0.  A second process watches the umask in
        /proc while the threads write, so even a brief 0 shows."""
        stats = evaluate_cell(TASK)
        exports = tmp_path / "exports"
        exports.mkdir()
        stop = tmp_path / "stop"
        grid = ["--arch", "EPCM-MM", "--grid", "--workloads", "gcc",
                "--requests", "50", "--workers", "1", "--export", "csv"]
        puts, errors = 150, []

        def writer(worker):
            try:
                for k in range(puts):
                    task = dataclasses.replace(TASK,
                                               seed=worker * puts + k)
                    store.put(task, stats)
                    if k % 50 == 0:
                        path = exports / f"rows-{worker}-{k}.csv"
                        assert cli_main(grid + ["--export-path",
                                                str(path)]) == 0
            except BaseException as error:
                errors.append(error)

        interval = sys.getswitchinterval()
        old_umask = os.umask(0o027)
        watcher = subprocess.Popen(
            [sys.executable, "-c", _UMASK_WATCHER, str(os.getpid()),
             str(stop)], stdout=subprocess.PIPE, text=True)
        try:
            assert watcher.stdout.readline() == "watching\n"
            sys.setswitchinterval(1e-6)
            threads = [threading.Thread(target=writer, args=(worker,))
                       for worker in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            stop.touch()
            watched = watcher.communicate(timeout=60)[0].split()
            left = os.umask(old_umask)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert left == 0o027
        assert watched and set(watched) <= {"0027", "-"}
        files = [path for path in store.cells_dir.rglob("*")
                 if path.is_file()] + list(exports.iterdir())
        shards = [path for path in store.cells_dir.iterdir()
                  if path.is_dir()]
        assert len(files) == 2 * (2 * puts + 3) and shards
        assert {oct(path.stat().st_mode & 0o777) for path in files} \
            == {oct(0o640)}
        assert {oct(path.stat().st_mode & 0o777) for path in shards} \
            == {oct(0o750)}

    def test_put_steps_past_a_stale_staging_file(self, store):
        """A staging file left by a dead writer with this pid and thread
        id is neither reused nor clobbered: the put takes the next
        name."""
        path = store.path_for(TASK)
        path.parent.mkdir(parents=True, exist_ok=True)
        stale = path.with_name(
            f".{path.name}.{os.getpid()}-{threading.get_ident()}-0")
        stale.write_bytes(b"torn")
        stats = evaluate_cell(TASK)
        store.put(TASK, stats)
        assert store.get(TASK) == stats
        assert stale.read_bytes() == b"torn"
        assert store.gc().removed_temp_files == [stale]

    def test_reopen_preserves_contents(self, store):
        stats = evaluate_cell(TASK)
        store.put(TASK, stats)
        reopened = ResultStore(store.root)
        assert reopened.get(TASK) == stats

    def test_schema_mismatch_rejected(self, tmp_path):
        root = tmp_path / "old-store"
        ResultStore(root)
        meta = json.loads((root / "store.json").read_text())
        meta["schema"] = STORE_SCHEMA_VERSION + 1
        (root / "store.json").write_text(json.dumps(meta))
        with pytest.raises(SimulationError):
            ResultStore(root)

    def test_put_without_latencies_reloads_with_summary(self, store):
        """Archival entries answer latency queries from the fixed-bin
        summary written at put time: mean/max exactly, percentiles by
        in-bin interpolation — no NaN columns."""
        stats = evaluate_cell(TASK)
        store.put(TASK, stats, latencies=False)
        lean = store.get(TASK)
        assert lean.latencies_ns.tolist() == []
        assert lean.bandwidth_gbps == stats.bandwidth_gbps
        assert lean.avg_latency_ns == stats.avg_latency_ns
        assert lean.max_latency_ns == stats.max_latency_ns
        exact_p95 = stats.p95_latency_ns
        # Within one log-spaced bin (~26 % width) of the exact value.
        assert 0.7 * exact_p95 <= lean.p95_latency_ns <= 1.3 * exact_p95
        row = lean.as_row()
        assert row["avg_latency_ns"] == stats.avg_latency_ns

    def test_archival_reput_reclaims_the_sidecar(self, store):
        """Re-putting latencies=False over a full entry must delete the
        bulky .lat sidecar, not just stop referencing it."""
        stats = evaluate_cell(TASK)
        store.put(TASK, stats)
        sidecar = store.path_for(TASK).with_suffix(".lat")
        assert sidecar.exists()
        store.put(TASK, stats, latencies=False)
        assert not sidecar.exists()
        assert store.get(TASK).latencies_ns.tolist() == []

    def test_reput_of_archival_stats_keeps_the_summary(self, tmp_path):
        """Stats read back from an archival entry carry a summary and no
        samples; putting them into another store with the default
        ``latencies=True`` must keep that summary, not write an empty
        sidecar that later reads back as neither."""
        stats = evaluate_cell(TASK)
        archival = ResultStore(tmp_path / "archival")
        archival.put(TASK, stats, latencies=False)
        lean = archival.get(TASK)
        copy = ResultStore(tmp_path / "copy")
        copy.put(TASK, lean)
        assert not copy.path_for(TASK).with_suffix(".lat").exists()
        again = copy.get(TASK)
        assert again == lean
        assert lean.latency_summary is not None
        assert again.latency_summary == lean.latency_summary
        assert again.p95_latency_ns == lean.p95_latency_ns
        assert again.avg_latency_ns == stats.avg_latency_ns
        assert not any(math.isnan(value)
                       for value in again.latency_row().values())

    @staticmethod
    def _put_zero_count_entry(store, stats):
        """A sample-less entry in the older layout: ``latencies_count``
        0 beside an empty sidecar."""
        store.put(TASK, stats)
        path = store.path_for(TASK)
        entry = json.loads(path.read_text())
        entry["latencies_count"] = 0
        path.write_text(json.dumps(entry))
        path.with_suffix(".lat").write_bytes(b"")

    def test_zero_count_entries_read_back_with_their_summary(self, store,
                                                             tmp_path):
        """A count of 0 restores no samples, so the summary stays."""
        lean_store = ResultStore(tmp_path / "lean")
        lean_store.put(TASK, evaluate_cell(TASK), latencies=False)
        lean = lean_store.get(TASK)
        self._put_zero_count_entry(store, lean)
        assert store.get(TASK) == lean
        assert store.get(TASK).p95_latency_ns == lean.p95_latency_ns

    def test_zero_count_entries_carry_no_samples_in_merges(self, tmp_path):
        stats = evaluate_cell(TASK)
        archival = ResultStore(tmp_path / "archival")
        archival.put(TASK, stats, latencies=False)
        legacy = ResultStore(tmp_path / "legacy")
        self._put_zero_count_entry(legacy, archival.get(TASK))
        report = archival.merge_from(legacy)
        assert report.already_present == 1 and not report.upgraded
        full = ResultStore(tmp_path / "full")
        full.put(TASK, stats)
        report = legacy.merge_from(full)
        assert len(report.upgraded) == 1
        assert legacy.get(TASK) == stats

    def test_merging_reput_archival_stats_is_already_present(self,
                                                             tmp_path):
        stats = evaluate_cell(TASK)
        archival = ResultStore(tmp_path / "archival")
        archival.put(TASK, stats, latencies=False)
        copy = ResultStore(tmp_path / "copy")
        copy.put(TASK, archival.get(TASK))
        report = archival.merge_from(copy)
        assert report.already_present == 1
        assert not report.upgraded and not report.conflicts
        assert archival.get(TASK).p95_latency_ns \
            == copy.get(TASK).p95_latency_ns


class TestInvalidation:
    @pytest.fixture(autouse=True)
    def fresh_caches(self):
        """Digests/fingerprints are memoized per process; clear around
        each test so monkeypatched fingerprints take effect and fake
        digests never leak into other tests."""
        store_mod.clear_fingerprint_cache()
        yield
        store_mod.clear_fingerprint_cache()

    def test_device_fingerprint_change_invalidates(self, store, monkeypatch):
        stats = evaluate_cell(TASK)
        store.put(TASK, stats)
        assert store.get(TASK) is not None
        monkeypatch.setattr(store_mod, "device_fingerprint",
                            lambda arch: "0" * 64)
        store_mod.clear_fingerprint_cache()
        assert store.get(TASK) is None
        assert TASK not in store

    def test_workload_fingerprint_change_invalidates(self, store,
                                                     monkeypatch):
        stats = evaluate_cell(TASK)
        store.put(TASK, stats)
        monkeypatch.setattr(store_mod, "workload_fingerprint",
                            lambda name: "f" * 64)
        store_mod.clear_fingerprint_cache()
        assert store.get(TASK) is None

    def test_results_version_bump_invalidates(self, store, monkeypatch):
        """Simulator-behavior changes can't be fingerprinted from config;
        bumping RESULTS_VERSION must orphan every stored result."""
        stats = evaluate_cell(TASK)
        store.put(TASK, stats)
        monkeypatch.setattr(store_mod, "RESULTS_VERSION",
                            store_mod.RESULTS_VERSION + 1)
        store_mod.clear_fingerprint_cache()
        assert store.get(TASK) is None

    def test_clear_fingerprint_cache(self):
        from repro.sim import engine
        device_fingerprint("EPCM-MM")
        task_digest(TASK)
        store_mod.clear_fingerprint_cache()
        assert store_mod._FINGERPRINT_CACHE == {}
        assert store_mod._DIGEST_CACHE == {}
        # The engine caches clear too: fingerprints derive from the
        # cached device, so an in-process model edit re-fingerprints.
        assert engine._DEVICE_CACHE == {}
        assert engine._CONTROLLER_CACHE == {}
