"""Parallel evaluation engine: equivalence, determinism, fan-out."""

import os
import time

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim import MainMemorySimulator
from repro.sim import _fastloop
from repro.sim import controller as controller_mod
from repro.sim import engine
from repro.sim.engine import (
    EvalTask,
    _resolve_workers,
    controller_for,
    evaluate_cell,
    run_evaluation,
)
from repro.sim.stats import kernel_dispatch_summary
from repro.sim.tracegen import cached_trace_arrays, generate_trace

ARCHS = ("COSMOS", "EPCM-MM", "2D_DDR3")
WORKLOADS = ("gcc", "mix_mcf_lbm", "bursty")


@pytest.fixture(scope="module")
def serial_results():
    return run_evaluation(architectures=ARCHS, workloads=WORKLOADS,
                          num_requests=1200, seed=3, workers=1)


class TestParallelSerialEquivalence:
    def test_parallel_identical_to_serial(self, serial_results):
        """The tentpole guarantee: worker fan-out changes wall-clock,
        never results — every SimStats field matches bit-for-bit."""
        parallel = run_evaluation(architectures=ARCHS, workloads=WORKLOADS,
                                  num_requests=1200, seed=3, workers=2)
        assert parallel == serial_results

    def test_four_workers_identical(self, serial_results):
        parallel = run_evaluation(architectures=ARCHS, workloads=WORKLOADS,
                                  num_requests=1200, seed=3, workers=4)
        assert parallel == serial_results

    def test_thread_pool_identical_to_serial_all_architectures(self):
        """The thread-native plane over every registered architecture —
        per-bank, shared-bus and global-queue cells alike — is
        bit-identical to a serial run of the same grid."""
        from repro.sim.factory import known_architectures

        kwargs = dict(architectures=known_architectures(),
                      workloads=("gcc", "mcf"), num_requests=600, seed=3)
        serial = run_evaluation(workers=1, pool="serial", **kwargs)
        threaded = run_evaluation(workers=4, pool="threads", **kwargs)
        for arch, per_workload in serial.items():
            for workload, stats in per_workload.items():
                assert threaded[arch][workload].to_dict() == stats.to_dict()

    def test_engine_matches_object_api(self, serial_results):
        """The array fast path equals MainMemorySimulator.run on the
        materialized trace of the same (workload, n, seed)."""
        for arch in ARCHS:
            simulator = MainMemorySimulator(arch)
            for workload in WORKLOADS:
                trace = generate_trace(workload, 1200, seed=3)
                stats = simulator.run(trace, workload_name=workload)
                assert stats == serial_results[arch][workload]

    def test_vectorized_matches_reference_loop(self):
        """The vectorized controller reproduces the original scalar
        object loop: identical schedule, near-identical energy (the
        per-op sum is re-associated)."""
        for arch in ARCHS:
            controller = controller_for(arch)
            for workload in WORKLOADS:
                trace = generate_trace(workload, 800, seed=5)
                reference = controller.run_reference(
                    generate_trace(workload, 800, seed=5), workload)
                vectorized = controller.run(trace, workload)
                assert np.array_equal(vectorized.latencies_ns,
                                      reference.latencies_ns)
                assert vectorized.sim_time_ns == reference.sim_time_ns
                assert vectorized.busy_time_ns == reference.busy_time_ns
                assert vectorized.row_hits == reference.row_hits
                assert vectorized.row_misses == reference.row_misses
                assert vectorized.op_energy_j == pytest.approx(
                    reference.op_energy_j, rel=1e-12)


class TestEngineShape:
    def test_grid_covers_every_cell(self, serial_results):
        assert set(serial_results) == set(ARCHS)
        for arch in ARCHS:
            assert set(serial_results[arch]) == set(WORKLOADS)
            for workload in WORKLOADS:
                stats = serial_results[arch][workload]
                assert stats.workload_name == workload
                assert stats.num_requests == 1200

    def test_unknown_workload_rejected(self):
        with pytest.raises(SimulationError):
            run_evaluation(architectures=("COMET",), workloads=("nope",))

    def test_empty_grid_rejected(self):
        with pytest.raises(SimulationError):
            run_evaluation(workloads=[])
        with pytest.raises(SimulationError):
            run_evaluation(architectures=[])

    def test_negative_workers_rejected(self):
        with pytest.raises(SimulationError):
            run_evaluation(architectures=ARCHS[:1], workloads=WORKLOADS[:1],
                           num_requests=100, workers=-1)

    def test_evaluate_cell_standalone(self):
        stats = evaluate_cell(EvalTask("EPCM-MM", "checkpoint", 600, 2))
        assert stats.device_name == "EPCM-MM"
        assert stats.workload_name == "checkpoint"
        assert stats.num_requests == 600

    def test_zero_workers_means_one_per_cpu(self):
        assert _resolve_workers(0) == (os.cpu_count() or 1)
        results = run_evaluation(architectures=("EPCM-MM",),
                                 workloads=("gcc",), num_requests=200,
                                 workers=0)
        assert results["EPCM-MM"]["gcc"].num_requests == 200


class TestFailureAnnotation:
    """A cell failure names the failing (arch, workload, n, seed) cell
    instead of surfacing a bare worker traceback."""

    @pytest.fixture
    def broken_cell(self, monkeypatch):
        # The persistent worker pool snapshots the parent at fork time:
        # recycle it so freshly forked workers see the monkeypatch, and
        # again afterwards so no later test inherits workers carrying it.
        engine.shutdown_worker_pool()
        real = engine.evaluate_cell

        def explode(task):
            if task.workload == "bursty":
                raise SimulationError("device model diverged")
            return real(task)

        monkeypatch.setattr(engine, "evaluate_cell", explode)
        yield
        engine.shutdown_worker_pool()

    def test_serial_failure_names_the_cell(self, broken_cell):
        with pytest.raises(SimulationError, match=
                           r"EPCM-MM x bursty, n=300, seed=9"):
            run_evaluation(architectures=("EPCM-MM",),
                           workloads=("gcc", "bursty"),
                           num_requests=300, seed=9, workers=1)

    def test_parallel_failure_names_the_cell(self, broken_cell):
        """The annotated error pickles back through the pool (or the
        serial fallback) identically."""
        with pytest.raises(SimulationError, match=
                           r"grid cell \(EPCM-MM x bursty"):
            run_evaluation(architectures=("EPCM-MM",),
                           workloads=("gcc", "bursty"),
                           num_requests=300, seed=9, workers=2)

    def test_original_error_preserved_in_message(self, broken_cell):
        with pytest.raises(SimulationError, match="device model diverged"):
            run_evaluation(architectures=("EPCM-MM",),
                           workloads=("bursty",), num_requests=300, seed=9)

    def test_non_repro_errors_also_annotated(self, monkeypatch):
        """Unexpected exception kinds (the ones that need the cell label
        most) are wrapped too, with the original type named."""
        def explode(task):
            raise ValueError("negative timestamp")

        monkeypatch.setattr(engine, "evaluate_cell", explode)
        with pytest.raises(SimulationError, match=
                           r"EPCM-MM x gcc.*ValueError: negative timestamp"):
            run_evaluation(architectures=("EPCM-MM",), workloads=("gcc",),
                           num_requests=300, seed=9)

    def test_queue_depth_in_annotation(self):
        task = EvalTask("EPCM-MM", "gcc", 100, 1, queue_depth=4)
        assert "queue_depth=4" in task.describe()
        assert "queue_depth" not in EvalTask("EPCM-MM", "gcc", 100, 1
                                             ).describe()


class TestQueueDepthOverride:
    def test_controller_for_override(self):
        default = controller_for("EPCM-MM")
        shallow = controller_for("EPCM-MM", queue_depth=4)
        assert shallow.queue_depth == 4
        assert shallow is not default
        assert controller_for("EPCM-MM", queue_depth=4) is shallow

    def test_depths_share_one_device_build(self):
        """Distinct queue depths (and store fingerprinting) must reuse
        one cached device model per architecture."""
        assert controller_for("EPCM-MM").device \
            is controller_for("EPCM-MM", queue_depth=4).device
        assert engine.device_for("EPCM-MM") \
            is controller_for("EPCM-MM").device

    def test_override_changes_cell_results(self):
        base = evaluate_cell(EvalTask("EPCM-MM", "gcc", 500, 3))
        shallow = evaluate_cell(EvalTask("EPCM-MM", "gcc", 500, 3,
                                         queue_depth=1))
        assert not np.array_equal(shallow.latencies_ns, base.latencies_ns)


class TestCaches:
    def test_trace_cache_shares_instances(self):
        a = cached_trace_arrays("gcc", 700, 4)
        b = cached_trace_arrays("gcc", 700, 4)
        assert a is b
        assert not a.addresses.flags.writeable

    def test_controller_cache_shares_instances(self):
        assert controller_for("EPCM-MM") is controller_for("EPCM-MM")

    def test_cached_trace_survives_simulation(self):
        """Running a cached trace must not mutate it (the controller's
        object path rewrites arrivals; the array path must not)."""
        trace = cached_trace_arrays("omnetpp", 500, 6)
        before = trace.arrivals_ns.copy()
        controller_for("2D_DDR3").run_arrays(trace)
        assert (trace.arrivals_ns == before).all()


class TestKernelDispatchCounters:
    """Per-reason fast-path accounting, pinned exactly across serial
    engine runs (workers=1 keeps the counters in this process)."""

    def test_grid_runs_entirely_on_kernels(self):
        """Every cell of this grid dispatches to a kernel: COSMOS to
        the global-queue twin, EPCM/DDR3 to the shared-bus twin —
        zero fallbacks of any reason."""
        controller_mod.reset_kernel_counters()
        run_evaluation(architectures=ARCHS, workloads=WORKLOADS,
                       num_requests=400, seed=7, workers=1)
        assert controller_mod.kernel_counters() == {
            "fast": 9,
            "fast_per_bank": 0,
            "fast_shared_bus": 6,
            "fast_global_queue": 3,
            "twin_per_bank": 0,
            "fallback_device": 0,
            "fallback_admission": 0,
            "fallback_toolchain": 0,
        }

    def test_disabled_classes_count_device_fallbacks(self):
        previous = controller_mod.set_disabled_fast_classes(
            controller_mod.KERNEL_CLASSES)
        try:
            controller_mod.reset_kernel_counters()
            run_evaluation(architectures=ARCHS, workloads=WORKLOADS[:1],
                           num_requests=200, seed=1, workers=1)
            counters = controller_mod.kernel_counters()
        finally:
            controller_mod.set_disabled_fast_classes(previous)
        assert counters["fallback_device"] == 3
        assert counters["fast"] == 0
        assert counters["fallback_toolchain"] == 0

    def test_missing_toolchain_counted_per_cell(self, monkeypatch):
        """REPRO_FASTLOOP=0: one toolchain fallback per compiled-twin
        cell, while the pure-numpy per-bank kernel keeps dispatching."""
        monkeypatch.setenv(_fastloop.FASTLOOP_ENV_VAR, "0")
        controller_mod.reset_kernel_counters()
        run_evaluation(architectures=ARCHS + ("COMET",),
                       workloads=WORKLOADS[:1],
                       num_requests=200, seed=1, workers=1)
        counters = controller_mod.kernel_counters()
        assert counters["fallback_toolchain"] == 3
        assert counters["fast_per_bank"] == 1
        assert counters["fast"] == 1
        assert counters["fallback_device"] == 0

    def test_admission_revert_is_a_marker_not_a_terminal(self):
        """A binding per-bank stamp reverts the cell to the global-queue
        model, which the compiled twin then serves: the revert marker
        and the terminal kernel dispatch are counted side by side."""
        controller_mod.reset_kernel_counters()
        evaluate_cell(EvalTask("COMET", "lbm", 1500, 1, queue_depth=8))
        counters = controller_mod.kernel_counters()
        assert counters["fallback_admission"] == 1
        assert counters["fast_global_queue"] == 1
        assert counters["fast"] == 1
        assert counters["fast_per_bank"] == 0

    def test_dispatch_summary_reconciles(self):
        controller_mod.reset_kernel_counters()
        run_evaluation(architectures=ARCHS, workloads=WORKLOADS,
                       num_requests=300, seed=2, workers=1)
        summary = kernel_dispatch_summary(controller_mod.kernel_counters())
        assert summary["scheduled"] == 9
        assert summary["fast"] == 9
        assert summary["hit_rate"] == 1.0
        assert summary["per_class"] == {
            "per_bank": 0, "shared_bus": 6, "global_queue": 3}
        assert summary["fallbacks"] == {
            "device": 0, "toolchain": 0, "admission_reverts": 0}


class TestProfileAttribution:
    """``--profile`` phases: the first cell of an architecture builds its
    device model, and that time belongs to ``device_s``, not to
    ``simulate_s``."""

    SLEEP_S = 0.25
    TASK = EvalTask("EPCM-MM", "gcc", 300, 1)

    @pytest.fixture
    def slow_build(self, monkeypatch):
        real_build = engine.build_device

        def slow(architecture):
            time.sleep(self.SLEEP_S)
            return real_build(architecture)

        engine.clear_device_caches()
        monkeypatch.setattr(engine, "build_device", slow)
        engine.reset_profile()
        yield
        engine.clear_device_caches()
        engine.reset_profile()

    def test_device_build_lands_in_device_s(self, slow_build):
        evaluate_cell(self.TASK)
        phases = engine.profile_snapshot()
        assert phases["device_s"] >= self.SLEEP_S
        assert phases["simulate_s"] < self.SLEEP_S

    def test_cached_device_costs_no_device_time(self, slow_build):
        evaluate_cell(self.TASK)
        engine.reset_profile()
        evaluate_cell(self.TASK)
        assert engine.profile_snapshot()["device_s"] < self.SLEEP_S

    def test_fork_worker_delta_carries_device_s(self, slow_build):
        """Fork workers ship per-key profile deltas home; the new phase
        rides along without any merge-side change."""
        _index, _stats, _counters, delta = engine._evaluate_cell_indexed(
            (0, self.TASK, None))
        assert delta["device_s"] >= self.SLEEP_S
        assert delta["simulate_s"] < self.SLEEP_S


class TestWorkloadLookup:
    def test_build_workload_returns_presets(self):
        from repro.errors import ConfigError
        from repro.sim.factory import build_workload
        from repro.sim.tracegen import WORKLOAD_NAMES
        for name in WORKLOAD_NAMES:
            assert build_workload(name).name == name
        with pytest.raises(ConfigError):
            build_workload("nope")

    def test_mix_rejects_mismatched_line_sizes(self):
        from repro.errors import TraceError
        from repro.sim.tracegen import MixedWorkload, SyntheticWorkload
        a = SyntheticWorkload(name="a", mean_interarrival_ns=2.0,
                              read_fraction=0.8, sequential_probability=0.1,
                              working_set_bytes=2**20, line_bytes=64)
        b = SyntheticWorkload(name="b", mean_interarrival_ns=2.0,
                              read_fraction=0.8, sequential_probability=0.1,
                              working_set_bytes=2**20, line_bytes=128)
        with pytest.raises(TraceError):
            MixedWorkload(name="bad_mix", components=(a, b))

    def test_env_worker_override_must_be_integer(self, monkeypatch):
        monkeypatch.setenv("REPRO_EVAL_WORKERS", "4x")
        with pytest.raises(SimulationError):
            run_evaluation(architectures=("EPCM-MM",), workloads=("gcc",),
                           num_requests=100)
