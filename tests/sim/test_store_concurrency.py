"""ResultStore under concurrent writers and readers.

The store's concurrency contract (see the class docstring): atomic
renames mean a reader observes either no entry or a complete one, and
concurrent ``put`` of the same digest is benign because both writers
rename identical bytes.  The process classes drive real separate
processes at the same store directory — the scenario a sharded fork
sweep or several evaluation daemons sharing one store produce; the
thread class stampedes from inside one process, the thread-pool
engine's shape.
"""

import multiprocessing
import threading

import pytest

from repro.sim.engine import EvalTask, evaluate_cell
from repro.sim.store import ResultStore

TASK = EvalTask("EPCM-MM", "gcc", 300, 7)

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs fork (children must inherit the computed stats cheaply)",
)


def _fork():
    return multiprocessing.get_context("fork")


def _hammer_put(root, barrier, task, stats, rounds):
    """Child body: wait at the barrier, then re-put the same digest."""
    store = ResultStore(root)
    barrier.wait(timeout=60)
    for _ in range(rounds):
        store.put(task, stats)


@needs_fork
class TestConcurrentSameDigestPuts:
    def test_simultaneous_puts_leave_one_complete_entry(self, tmp_path):
        """Four processes put the same digest at once: atomic rename
        wins, no torn entry, and the surviving entry is the stats
        bit-for-bit."""
        stats = evaluate_cell(TASK)
        root = tmp_path / "store"
        ResultStore(root)    # create meta before the stampede
        context = _fork()
        barrier = context.Barrier(4)
        children = [
            context.Process(target=_hammer_put,
                            args=(root, barrier, TASK, stats, 25))
            for _ in range(4)
        ]
        for child in children:
            child.start()
        for child in children:
            child.join(timeout=120)
        assert all(child.exitcode == 0 for child in children)

        store = ResultStore(root)
        assert store.get(TASK) == stats
        # Exactly one entry file — no stray temp files left by the
        # staged writes.
        files = [p.name for p in store.cells_dir.glob("*/*")]
        assert files == [store.path_for(TASK).name]

    def test_reader_sees_nothing_or_a_complete_entry(self, tmp_path):
        """While a child re-puts the entry in a tight loop, every parent
        read returns either a miss or the complete stats — never a torn
        intermediate."""
        stats = evaluate_cell(TASK)
        root = tmp_path / "store"
        ResultStore(root)
        context = _fork()
        barrier = context.Barrier(2)
        child = context.Process(target=_hammer_put,
                                args=(root, barrier, TASK, stats, 200))
        child.start()
        store = ResultStore(root)
        barrier.wait(timeout=60)
        observations = []
        while child.is_alive():
            observations.append(store.get(TASK))
        child.join(timeout=120)
        assert child.exitcode == 0
        observations.append(store.get(TASK))
        assert observations[-1] == stats
        for seen in observations:
            assert seen is None or seen == stats

    def test_distinct_digests_race_the_shard_directories(self, tmp_path):
        """Concurrent puts of *different* cells race the per-prefix
        shard mkdirs; every cell must come back readable."""
        tasks = [EvalTask("EPCM-MM", "gcc", 300, seed)
                 for seed in range(1, 5)]
        all_stats = {task: evaluate_cell(task) for task in tasks}
        root = tmp_path / "store"
        ResultStore(root)
        context = _fork()
        barrier = context.Barrier(len(tasks))
        children = [
            context.Process(target=_hammer_put,
                            args=(root, barrier, task, all_stats[task], 5))
            for task in tasks
        ]
        for child in children:
            child.start()
        for child in children:
            child.join(timeout=120)
        assert all(child.exitcode == 0 for child in children)
        store = ResultStore(root)
        for task in tasks:
            assert store.get(task) == all_stats[task]
        assert len(store) == len(tasks)


class TestThreadedSameDigestPuts:
    """The thread-pool engine writes the store from pool threads; the
    same atomic-rename contract must hold inside one process."""

    def test_thread_stampede_leaves_one_complete_entry(self, tmp_path):
        stats = evaluate_cell(TASK)
        root = tmp_path / "store"
        store = ResultStore(root)
        barrier = threading.Barrier(8)
        errors = []

        def hammer():
            try:
                barrier.wait(timeout=60)
                for _ in range(25):
                    store.put(TASK, stats)
            except BaseException as error:    # noqa: BLE001 — surfaced below
                errors.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert store.get(TASK) == stats
        files = [p.name for p in store.cells_dir.glob("*/*")]
        assert files == [store.path_for(TASK).name]

    def test_threaded_readers_race_a_writer(self, tmp_path):
        stats = evaluate_cell(TASK)
        store = ResultStore(tmp_path / "store")
        done = threading.Event()
        torn = []

        def read_loop():
            while not done.is_set():
                seen = store.get(TASK)
                if seen is not None and seen != stats:
                    torn.append(seen)

        reader = threading.Thread(target=read_loop)
        reader.start()
        for _ in range(100):
            store.put(TASK, stats)
        done.set()
        reader.join(timeout=120)
        assert not torn
        assert store.get(TASK) == stats


class TestGetMany:
    def test_get_many_mixes_hits_and_misses(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        stats = evaluate_cell(TASK)
        store.put(TASK, stats)
        missing = EvalTask("EPCM-MM", "gcc", 300, 8)
        resolved = store.get_many([TASK, missing])
        assert resolved == {TASK: stats, missing: None}

    def test_get_many_resolves_duplicates_once(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "store")
        store.put(TASK, evaluate_cell(TASK))
        reads = {"n": 0}
        real_get = ResultStore.get

        def counting_get(self, task):
            reads["n"] += 1
            return real_get(self, task)
        monkeypatch.setattr(ResultStore, "get", counting_get)
        resolved = store.get_many([TASK, TASK, TASK])
        assert reads["n"] == 1
        assert resolved[TASK] is not None

    def test_unreadable_entry_is_a_get_many_miss(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(TASK, evaluate_cell(TASK))
        store.path_for(TASK).write_text("{torn")
        assert store.get_many([TASK]) == {TASK: None}


class TestUnreadableEdgeCases:
    def test_entry_deleted_mid_scan_is_skipped(self, tmp_path):
        """entries() tolerates files vanishing under it (concurrent GC
        semantics): unreadable cells are skipped, not raised."""
        store = ResultStore(tmp_path / "store")
        other = EvalTask("EPCM-MM", "mcf", 300, 7)
        for task in (TASK, other):
            store.put(task, evaluate_cell(task))
        first, second = sorted((TASK, other),
                               key=lambda task: store.path_for(task).name)
        scan = store.entries()
        assert next(scan)[0] == first
        # Listed, then deleted before the scan reads it: skipped.
        store.path_for(second).unlink()
        assert list(scan) == []

    def test_get_survives_entry_replaced_by_directory(self, tmp_path):
        """Even a pathological filesystem state (entry path is a
        directory) reads as a miss, not an exception — the OSError
        hardening for shared stores."""
        store = ResultStore(tmp_path / "store")
        store.put(TASK, evaluate_cell(TASK))
        path = store.path_for(TASK)
        path.unlink()
        path.mkdir()
        assert store.get(TASK) is None
