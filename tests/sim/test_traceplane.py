"""Zero-copy shared-memory trace plane + persistent worker pool."""

import pickle

import numpy as np
import pytest

from repro.sim import engine
from repro.sim.engine import (EvalTask, clear_device_caches, evaluate_cell,
                              run_evaluation, shutdown_worker_pool)
from repro.sim.tracegen import (attach_trace_arrays, cached_trace_arrays,
                                clear_trace_plane, share_trace_arrays,
                                trace_plane_stats)


@pytest.fixture(autouse=True)
def clean_plane():
    clear_trace_plane()
    yield
    clear_trace_plane()
    shutdown_worker_pool()


class TestShareAttach:
    def test_descriptor_is_tiny_and_picklable(self):
        descriptor = share_trace_arrays("mcf", 256, 1)
        if descriptor is None:
            pytest.skip("no POSIX shared memory in this sandbox")
        blob = pickle.dumps(descriptor)
        assert len(blob) < 512
        assert pickle.loads(blob) == descriptor

    def test_share_is_idempotent_per_key(self):
        first = share_trace_arrays("mcf", 256, 1)
        if first is None:
            pytest.skip("no POSIX shared memory in this sandbox")
        assert share_trace_arrays("mcf", 256, 1) is first \
            or share_trace_arrays("mcf", 256, 1) == first
        assert trace_plane_stats()["owned_segments"] == 1

    def test_attached_columns_match_generated(self):
        descriptor = share_trace_arrays("lbm", 300, 7)
        if descriptor is None:
            pytest.skip("no POSIX shared memory in this sandbox")
        local = cached_trace_arrays("lbm", 300, 7)
        attached = attach_trace_arrays(descriptor)
        assert np.array_equal(attached.addresses, local.addresses)
        assert np.array_equal(attached.is_read, local.is_read)
        assert np.array_equal(attached.arrivals_ns, local.arrivals_ns)
        assert attached.line_bytes == local.line_bytes

    def test_mixed_workload_thread_ids_survive(self):
        descriptor = share_trace_arrays("mix_mcf_lbm", 120, 1)
        if descriptor is None:
            pytest.skip("no POSIX shared memory in this sandbox")
        assert descriptor.has_thread_ids
        local = cached_trace_arrays("mix_mcf_lbm", 120, 1)
        attached = attach_trace_arrays(descriptor)
        assert np.array_equal(attached.thread_ids, local.thread_ids)

    def test_owner_attach_serves_source_arrays(self):
        """The publishing process never maps its own segment twice."""
        descriptor = share_trace_arrays("gcc", 200, 1)
        if descriptor is None:
            pytest.skip("no POSIX shared memory in this sandbox")
        assert attach_trace_arrays(descriptor) \
            is cached_trace_arrays("gcc", 200, 1)

    def test_vanished_segment_regenerates_locally(self):
        """Correctness never depends on the plane: a stale descriptor
        (creator unlinked the segment) degrades to local generation."""
        descriptor = share_trace_arrays("gcc", 200, 1)
        if descriptor is None:
            pytest.skip("no POSIX shared memory in this sandbox")
        clear_trace_plane()
        trace = attach_trace_arrays(descriptor)
        local = cached_trace_arrays("gcc", 200, 1)
        assert np.array_equal(trace.arrivals_ns, local.arrivals_ns)

    def test_clear_unlinks_owned_segments(self):
        descriptor = share_trace_arrays("gcc", 200, 1)
        if descriptor is None:
            pytest.skip("no POSIX shared memory in this sandbox")
        clear_trace_plane()
        assert trace_plane_stats() == {"owned_segments": 0,
                                       "owned_bytes": 0,
                                       "attached_segments": 0}
        from multiprocessing import shared_memory
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=descriptor.shm_name)

    def test_evaluate_cell_accepts_descriptor(self):
        task = EvalTask("COMET", "gcc", 300, 1)
        descriptor = share_trace_arrays("gcc", 300, 1)
        if descriptor is None:
            pytest.skip("no POSIX shared memory in this sandbox")
        assert evaluate_cell(task, descriptor).to_dict() \
            == evaluate_cell(task).to_dict()

    def test_adopted_descriptor_serves_single_arg_calls(self):
        """The fan-out path adopts descriptors out of band, so
        replacement/legacy single-argument evaluate_cell implementations
        keep working (the pool only ever calls evaluate_cell(task))."""
        descriptor = share_trace_arrays("gcc", 300, 1)
        if descriptor is None:
            pytest.skip("no POSIX shared memory in this sandbox")
        engine.adopt_trace_descriptor(descriptor)
        task = EvalTask("COMET", "gcc", 300, 1)
        assert engine._ADOPTED_TRACES[descriptor.key] is not None
        assert evaluate_cell(task).to_dict() \
            == engine.evaluate_cell_checked(task).to_dict()

    def test_owned_segments_are_bounded(self):
        """Publishing past MAX_OWNED_SEGMENTS evicts the oldest owned
        segment (unlinked), so /dev/shm usage stays bounded in
        long-lived processes."""
        from repro.sim import tracegen

        first = share_trace_arrays("gcc", 40, 1)
        if first is None:
            pytest.skip("no POSIX shared memory in this sandbox")
        for seed in range(2, tracegen.MAX_OWNED_SEGMENTS + 2):
            share_trace_arrays("gcc", 40, seed)
        stats = trace_plane_stats()
        assert stats["owned_segments"] == tracegen.MAX_OWNED_SEGMENTS
        from multiprocessing import shared_memory
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=first.shm_name)
        # A stale descriptor still resolves (local regeneration).
        trace = attach_trace_arrays(first)
        assert len(trace) == 40


class TestPersistentPool:
    """The fork pool and its trace plane, pinned explicitly with
    ``pool="fork"`` — the auto default resolves to the thread pool
    wherever the compiled twin is available (see TestThreadPool)."""

    def test_pool_survives_across_evaluations(self):
        kwargs = dict(architectures=("EPCM-MM",), workloads=("gcc", "mcf"),
                      num_requests=200, workers=2, pool="fork")
        run_evaluation(**kwargs)
        pool = engine._WORKER_POOL
        if pool is None:
            pytest.skip("process pools unavailable in this sandbox")
        run_evaluation(architectures=("COMET",), workloads=("mcf", "lbm"),
                       num_requests=200, workers=2, pool="fork")
        assert engine._WORKER_POOL is pool

    def test_different_worker_count_rebuilds(self):
        kwargs = dict(architectures=("EPCM-MM",), workloads=("gcc", "mcf"),
                      num_requests=200, pool="fork")
        run_evaluation(workers=2, **kwargs)
        pool = engine._WORKER_POOL
        if pool is None:
            pytest.skip("process pools unavailable in this sandbox")
        run_evaluation(workers=3, **kwargs)
        assert engine._WORKER_POOL is not None
        assert engine._WORKER_POOL is not pool
        assert engine._WORKER_POOL[1] == 3

    def test_parallel_with_plane_matches_serial(self):
        kwargs = dict(architectures=("COMET", "COSMOS", "3D_DDR4"),
                      workloads=("mcf", "checkpoint"), num_requests=400)
        serial = run_evaluation(workers=1, **kwargs)
        parallel = run_evaluation(workers=2, pool="fork", **kwargs)
        for arch, per_workload in serial.items():
            for workload, stats in per_workload.items():
                assert parallel[arch][workload].to_dict() == stats.to_dict()

    def test_fork_pool_merges_worker_dispatch_counters(
            self, expected_dispatch):
        """Workers dispatch in their own process; the parent must see
        the merged per-cell counter deltas (the pre-pool-abstraction
        engine reported zero kernel hits for every fanned-out cell)."""
        from repro.sim import controller as controller_mod

        run_evaluation(architectures=("EPCM-MM",), workloads=("gcc", "mcf"),
                       num_requests=200, workers=2, pool="fork")
        if engine._WORKER_POOL is None:
            pytest.skip("process pools unavailable in this sandbox")
        controller_mod.reset_kernel_counters()
        run_evaluation(architectures=("EPCM-MM", "COMET", "COSMOS"),
                       workloads=("gcc", "mcf"), num_requests=200,
                       workers=2, pool="fork")
        assert controller_mod.kernel_counters() == expected_dispatch(
            per_bank=2, shared_bus=2, global_queue=2)

    def test_clear_device_caches_tears_everything_down(self):
        run_evaluation(architectures=("EPCM-MM",), workloads=("gcc",),
                       num_requests=200, workers=2, pool="fork")
        share_trace_arrays("gcc", 128, 1)
        clear_device_caches()
        assert engine._WORKER_POOL is None
        assert engine._THREAD_POOL is None
        assert trace_plane_stats()["owned_segments"] == 0
        assert cached_trace_arrays.cache_info().currsize == 0

    def test_plane_can_be_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv(engine.TRACE_PLANE_ENV_VAR, "0")
        shutdown_worker_pool()
        clear_trace_plane()
        results = run_evaluation(architectures=("COMET",),
                                 workloads=("gcc",), num_requests=300,
                                 workers=2, pool="fork")
        assert trace_plane_stats()["owned_segments"] == 0
        serial = run_evaluation(architectures=("COMET",),
                                workloads=("gcc",), num_requests=300,
                                workers=1)
        assert results["COMET"]["gcc"].to_dict() \
            == serial["COMET"]["gcc"].to_dict()


class TestThreadPool:
    """The thread executor: the auto default for kernel-served grids."""

    def test_auto_resolves_to_threads_with_twin(self):
        from repro.sim import _fastloop

        if not _fastloop.available():
            pytest.skip("no C toolchain in this sandbox")
        assert engine.resolve_pool() == "threads"
        assert engine.resolve_pool("fork") == "fork"

    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv(engine.POOL_ENV_VAR, "serial")
        assert engine.resolve_pool() == "serial"
        assert engine.resolve_pool("threads") == "threads"
        monkeypatch.setenv(engine.POOL_ENV_VAR, "bogus")
        with pytest.raises(Exception):
            engine.resolve_pool()

    def test_thread_pool_persists_and_rebuilds(self):
        kwargs = dict(architectures=("EPCM-MM",), workloads=("gcc", "mcf"),
                      num_requests=200, pool="threads")
        run_evaluation(workers=2, **kwargs)
        pool = engine._THREAD_POOL
        assert pool is not None and pool[1] == 2
        run_evaluation(workers=2, **kwargs)
        assert engine._THREAD_POOL is pool
        run_evaluation(workers=3, **kwargs)
        assert engine._THREAD_POOL is not pool
        assert engine._THREAD_POOL[1] == 3

    def test_threads_bypass_the_trace_plane(self):
        clear_trace_plane()
        run_evaluation(architectures=("COMET", "EPCM-MM"),
                       workloads=("gcc",), num_requests=300, workers=2,
                       pool="threads")
        assert trace_plane_stats()["owned_segments"] == 0
