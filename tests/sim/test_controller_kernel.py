"""The fast-path dispatch: engagement, fallback, bit-identity.

Each cell is one call into the compiled twin (the Python mirror serves
it where no toolchain exists); these tests pin

* that each device class dispatches where it claims (per-bank chains
  exactly on contention-free devices with per-bank queues), with the
  exact counters of both configurations,
* that engaged or fallback, ``run_fast`` / ``run_arrays(fast=True)``
  are bit-identical to the mirror's ``run`` path and schedule-identical
  to ``run_reference`` — edge cells included: a one-request trace,
  unsorted arrivals, closed pages, COSMOS's write override,
* the per-bank admission-stamp semantics (latency measured from the
  bank's own queue slice) including the deterministic reversion to the
  global-queue model when a stamp would bind service,
* that two pool threads running the twin at once match a serial run.
"""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim import _fastloop
from repro.sim import controller as controller_mod
from repro.sim.controller import MemoryController
from repro.sim.devices import EnergyModel, MemoryDeviceModel
from repro.sim.engine import (EvalTask, controller_for, evaluate_tasks,
                              grid_tasks)
from repro.sim.request import MemRequest, OpType
from repro.sim.tracegen import TraceArrays, cached_trace_arrays


def perbank_device(**overrides):
    base = dict(
        name="photonic-test",
        line_bytes=128,
        banks=4,
        data_burst_ns=4.0,
        interface_delay_ns=10.0,
        read_occupancy_ns=10.0,
        write_occupancy_ns=100.0,
        shared_bus=False,
        burst_overlaps_array=True,
        per_bank_queues=True,
        energy=EnergyModel(read_energy_j=1e-9, write_energy_j=5e-9),
    )
    base.update(overrides)
    return MemoryDeviceModel(**base)


def read_at(t, address=0):
    return MemRequest(address=address, op=OpType.READ, arrival_ns=t)


@pytest.fixture(autouse=True)
def fresh_counters():
    controller_mod.reset_kernel_counters()
    yield
    controller_mod.reset_kernel_counters()


class TestDispatch:
    def test_comet_is_kernel_eligible(self):
        device = controller_for("COMET").device
        assert device.contention_free and device.per_bank_queues

    def test_cosmos_keeps_the_global_queue(self):
        """COSMOS's subtractive read-erase-read flow centralizes its
        controller: contention-free links, but no per-bank queues."""
        device = controller_for("COSMOS").device
        assert device.contention_free and not device.per_bank_queues

    def test_kernel_engages_on_comet(self, expected_dispatch):
        trace = cached_trace_arrays("gcc", 800, 1)
        controller_for("COMET").run_arrays(trace)
        assert controller_mod.kernel_counters() \
            == expected_dispatch(per_bank=1)

    @pytest.mark.parametrize("arch,kernel_class", [
        ("COSMOS", "global_queue"),
        ("3D_DDR4", "shared_bus"),
        ("EPCM-MM", "shared_bus"),
        ("3D_DDR4-closed", "shared_bus"),
    ])
    def test_other_devices_take_their_own_kernels(self, arch, kernel_class,
                                                  expected_dispatch):
        """DRAM/EPCM/COSMOS cells no longer fall back: each dispatches
        to the compiled exact twin for its timing structure (a
        toolchain fallback where the twin is unavailable)."""
        trace = cached_trace_arrays("gcc", 800, 1)
        controller_for(arch).run_arrays(trace)
        assert controller_mod.kernel_counters() \
            == expected_dispatch(**{kernel_class: 1})

    @pytest.mark.parametrize("arch", ["COSMOS", "3D_DDR4", "EPCM-MM",
                                      "3D_DDR4-closed"])
    def test_disabled_classes_fall_back_per_device(self, arch,
                                                   expected_dispatch):
        """A device whose fast path is disabled (``allow_fast_path=
        False``) has no dispatch class: the Python mirror serves it,
        one device fallback per cell, with the dispatched stats."""
        controller = controller_for(arch)
        pinned = MemoryController(
            replace(controller.device, allow_fast_path=False),
            queue_depth=controller.queue_depth)
        trace = cached_trace_arrays("gcc", 800, 1)
        stats = pinned.run_arrays(trace)
        assert controller_mod.kernel_counters() \
            == expected_dispatch(device=1)
        assert stats.to_dict() == controller.run_arrays(trace).to_dict()

    def test_fast_false_pins_the_scalar_path(self):
        trace = cached_trace_arrays("gcc", 800, 1)
        controller_for("COMET").run_arrays(trace, fast=False)
        assert controller_mod.kernel_counters()["fast"] == 0


class TestBitIdentity:
    # COSMOS: open rows plus the fixed write occupancy that overrides
    # them; 3D_DDR4-closed: a closed-page row buffer behind the bus.
    @pytest.mark.parametrize("arch", ["COMET", "COMET-thermal", "COSMOS",
                                      "3D_DDR4-closed"])
    @pytest.mark.parametrize("workload", ["mcf", "lbm"])
    def test_fast_equals_scalar_equals_reference(self, arch, workload):
        trace = cached_trace_arrays(workload, 2500, 1)
        controller = controller_for(arch)
        fast = controller.run_arrays(trace, fast=True)
        scalar = controller.run_arrays(trace, fast=False)
        assert fast.to_dict() == scalar.to_dict()
        reference = controller.run_reference(trace.to_requests(), workload)
        # The oracle accumulates op energy per request (re-associated
        # sum); every schedule-derived quantity must match bit for bit.
        assert np.array_equal(fast.latencies_ns, reference.latencies_ns)
        assert fast.sim_time_ns == reference.sim_time_ns
        assert fast.busy_time_ns == reference.busy_time_ns
        assert fast.active_time_ns == reference.active_time_ns
        assert fast.op_energy_j == pytest.approx(reference.op_energy_j,
                                                 rel=1e-12)

    @pytest.mark.parametrize("per_bank_queues", [True, False])
    def test_busy_time_folds_left_on_every_path(self, per_bank_queues):
        """Ten banks, each busy 0.1 ns for one read: a left fold totals
        0.9999999999999999, a compensated sum (``math.fsum``, and the
        builtin ``sum`` from Python 3.12 on) 1.0.  The oracle, the twin
        and the mirror all fold left, on the per-bank chains and on the
        global queue."""
        device = perbank_device(banks=10, data_burst_ns=0.0,
                                read_occupancy_ns=0.1,
                                burst_overlaps_array=False,
                                per_bank_queues=per_bank_queues)
        trace = TraceArrays(name="busy", addresses=np.arange(10) * 128,
                            is_read=np.ones(10, dtype=bool),
                            arrivals_ns=np.zeros(10))
        controller = MemoryController(device, queue_depth=32)
        assert math.fsum([0.1] * 10) == 1.0
        spec = controller._twin_spec()
        columns = (trace.addresses, trace.is_read, trace.arrivals_ns)
        totals = [controller.run_arrays(trace, fast=True).busy_time_ns,
                  controller.run_arrays(trace, fast=False).busy_time_ns,
                  controller.run_reference(trace.to_requests()).busy_time_ns,
                  _fastloop.run_cell_python(*columns, spec).busy]
        if _fastloop.available():
            totals.append(_fastloop.run_cell(*columns, spec).busy)
        assert totals == [0.9999999999999999] * len(totals)

    @pytest.mark.parametrize("arch", ["COMET", "COSMOS", "2D_DDR3",
                                      "EPCM-MM", "3D_DDR4-closed"])
    def test_one_request_trace(self, arch):
        trace = TraceArrays(name="one", addresses=np.array([4096]),
                            is_read=np.array([False]),
                            arrivals_ns=np.array([3.0]))
        controller = controller_for(arch)
        fast = controller.run_arrays(trace, fast=True)
        assert fast.to_dict() \
            == controller.run_arrays(trace, fast=False).to_dict()
        reference = controller.run_reference(trace.to_requests(), "one")
        assert np.array_equal(fast.latencies_ns, reference.latencies_ns)
        assert fast.busy_time_ns == reference.busy_time_ns

    @pytest.mark.parametrize("arch", ["COMET", "COSMOS", "2D_DDR3"])
    def test_unsorted_arrivals_fail_alike_on_every_path(self, arch):
        """The twin's sortedness check raises the Python path's error."""
        trace = TraceArrays(name="unsorted",
                            addresses=np.array([0, 128, 256]),
                            is_read=np.array([True, True, False]),
                            arrivals_ns=np.array([0.0, 5.0, 4.0]))
        controller = controller_for(arch)
        messages = set()
        for run in (lambda: controller.run_arrays(trace, fast=True),
                    lambda: controller.run_arrays(trace, fast=False),
                    lambda: controller.run_fast(trace.to_requests()),
                    lambda: controller.run(trace.to_requests())):
            with pytest.raises(SimulationError) as error:
                run()
            messages.add(str(error.value))
        assert messages == {"requests must be sorted by arrival"}
        assert controller_mod.kernel_counters()["fast"] == 0

    def test_run_fast_object_api_matches_run(self, expected_dispatch):
        trace = cached_trace_arrays("milc", 1200, 3)
        controller = controller_for("COMET")
        fast = controller.run_fast(trace.to_requests(), "milc")
        scalar = controller.run(trace.to_requests(), "milc")
        assert fast.to_dict() == scalar.to_dict()
        assert controller_mod.kernel_counters() \
            == expected_dispatch(per_bank=1)

    @staticmethod
    def _assert_identical_service_fields(controller):
        trace = cached_trace_arrays("omnetpp", 600, 2)
        via_fast = trace.to_requests()
        via_scalar = trace.to_requests()
        controller.run_fast(via_fast, "omnetpp")
        controller.run(via_scalar, "omnetpp")
        for a, b in zip(via_fast, via_scalar):
            assert (a.arrival_ns, a.start_ns, a.finish_ns, a.completion_ns) \
                == (b.arrival_ns, b.start_ns, b.finish_ns, b.completion_ns)

    def test_request_objects_get_identical_service_fields(self):
        self._assert_identical_service_fields(controller_for("COMET"))

    # Every other dispatch class through the object API, plus the
    # per-bank cell the twin reverts to the global queue (queue_depth=8).
    @pytest.mark.parametrize("arch,queue_depth", [
        ("COMET", 8), ("COSMOS", None), ("2D_DDR3", None),
        ("EPCM-MM", None), ("3D_DDR4-closed", None),
    ])
    def test_service_fields_identical_per_dispatch_class(self, arch,
                                                         queue_depth):
        self._assert_identical_service_fields(
            controller_for(arch) if queue_depth is None
            else controller_for(arch, queue_depth=queue_depth))


class TestPerBankAdmission:
    def test_single_read_latency_unchanged(self):
        controller = MemoryController(perbank_device())
        stats = controller.run_fast([read_at(0.0)])
        # 10 (array, overlapped burst) + 4 (burst) + 10 (interface)
        assert stats.latencies_ns[0] == pytest.approx(24.0)

    def test_stamp_measures_from_bank_queue_slice(self, expected_dispatch):
        """With bank queue depth q, request k is admitted no earlier
        than the finish of request k-q of the same bank — so a deep
        same-bank burst has bounded latency, not O(k) queueing."""
        device = perbank_device(banks=1)
        controller = MemoryController(device, queue_depth=2)
        burst = [read_at(0.0, 0) for _ in range(12)]
        stats = controller.run_fast(burst)
        assert controller_mod.kernel_counters() \
            == expected_dispatch(per_bank=1)
        # Chain: start_k = 10k, finish_k = 10k + 14; admitted_k =
        # finish_{k-2} = 10k - 6 for k >= 2; completion_k = 10k + 24.
        assert stats.latencies_ns[0] == pytest.approx(24.0)
        for latency in stats.latencies_ns[2:]:
            assert latency == pytest.approx(30.0)

    def test_binding_stamp_reverts_to_global_queue(self):
        """A depth-1 bank queue stamps admission at the previous finish,
        which lands after the chain start — the cell must revert to the
        global-queue model, in the twin, the mirror and the oracle
        alike."""
        device = perbank_device(banks=1)
        controller = MemoryController(device, queue_depth=1)
        burst = [read_at(0.0, 0) for _ in range(6)]
        fast = controller.run_fast(list(burst))
        counters = controller_mod.kernel_counters()
        assert counters["fallback_admission"] == 1
        scalar = controller.run(list(burst))
        reference = controller.run_reference(list(burst))
        assert fast.to_dict() == scalar.to_dict()
        assert np.array_equal(fast.latencies_ns, reference.latencies_ns)
        # Global-queue semantics: depth-1 queue serializes admission.
        globalq = MemoryController(
            perbank_device(banks=1, per_bank_queues=False), queue_depth=1)
        assert np.array_equal(fast.latencies_ns,
                              globalq.run(list(burst)).latencies_ns)

    def test_comet_small_queue_override_falls_back(self,
                                                   expected_dispatch):
        """queue_depth overrides below one entry per bank exercise the
        admission fallback on real COMET cells (the sweep's ablation
        axis): the twin decides the revert inside its one call, and the
        cell stays bit-identical to the scalar path."""
        trace = cached_trace_arrays("lbm", 1500, 1)
        controller = controller_for("COMET", queue_depth=8)
        fast = controller.run_arrays(trace, fast=True)
        assert controller_mod.kernel_counters() \
            == expected_dispatch(reverted=1)
        scalar = controller.run_arrays(trace, fast=False)
        assert fast.to_dict() == scalar.to_dict()

    def test_mirror_counts_the_revert_too(self, monkeypatch):
        """Without the twin the Python mirror makes the revert: the
        marker is counted beside the cell's toolchain fallback."""
        monkeypatch.setenv(_fastloop.FASTLOOP_ENV_VAR, "0")
        trace = cached_trace_arrays("lbm", 1500, 1)
        controller = controller_for("COMET", queue_depth=8)
        fast = controller.run_arrays(trace, fast=True)
        assert controller_mod.kernel_counters() == {
            "fast": 0, "fast_per_bank": 0, "fast_shared_bus": 0,
            "fast_global_queue": 0, "fallback_device": 0,
            "fallback_admission": 1, "fallback_toolchain": 1}
        assert fast.to_dict() \
            == controller.run_arrays(trace, fast=False).to_dict()

    def test_bank_queue_depth_splits_global_depth(self):
        controller = controller_for("COMET")
        device = controller.device
        assert controller.bank_queue_depth \
            == max(1, controller.queue_depth // device.banks)


class TestCounters:
    def test_counters_accumulate_and_reset(self, expected_dispatch):
        trace = cached_trace_arrays("gcc", 500, 1)
        controller_for("COMET").run_arrays(trace)
        controller_for("COSMOS").run_arrays(trace)
        controller_for("2D_DDR3").run_arrays(trace)
        assert controller_mod.kernel_counters() == expected_dispatch(
            per_bank=1, shared_bus=1, global_queue=1)
        controller_mod.reset_kernel_counters()
        assert all(v == 0
                   for v in controller_mod.kernel_counters().values())


class TestThreadedTwin:
    def test_thread_pool_grid_matches_serial(self, expected_dispatch):
        """Two pool threads run the twin at once over a mixed grid —
        every kernel class, the in-C admission revert, open and closed
        pages — and every cell equals the serial run bit for bit, while
        a short switch interval interleaves the threads' Python halves
        (argument marshalling, counter updates) as often as it can.
        The sanitizer CI job runs this file under TSan, so a race in
        the twin fails there."""
        tasks = grid_tasks(("COMET", "COSMOS", "2D_DDR3", "EPCM-MM",
                            "3D_DDR4-closed"), ("mcf", "lbm", "gcc"),
                           num_requests=600, seed=5)
        tasks.append(EvalTask("COMET", "lbm", 600, 5, queue_depth=8))
        serial = evaluate_tasks(tasks, workers=1)
        controller_mod.reset_kernel_counters()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = evaluate_tasks(tasks, workers=2)
        finally:
            sys.setswitchinterval(interval)
        for task in tasks:
            assert threaded[task].to_dict() == serial[task].to_dict(), \
                task.describe()
        # A lost counter update under contention would break this.
        assert controller_mod.kernel_counters() == expected_dispatch(
            per_bank=3, shared_bus=9, global_queue=3, reverted=1)
