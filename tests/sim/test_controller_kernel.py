"""The fast-path scheduler kernel: engagement, fallback, bit-identity.

The kernel computes contention-free per-bank-queue schedules with
grouped prefix passes; these tests pin

* that it engages exactly on the device class it claims (contention
  free **and** per-bank queues) while the other classes route to their
  compiled exact-twin kernels (or to the scalar recurrences when a
  class is disabled),
* that engaged or fallback, ``run_fast`` / ``run_arrays(fast=True)``
  are bit-identical to the scalar ``run`` path and schedule-identical
  to ``run_reference``,
* the per-bank admission-stamp semantics (latency measured from the
  bank's own queue slice) including the deterministic reversion to the
  global-queue model when a stamp would bind service.
"""

import numpy as np
import pytest

from repro.sim import controller as controller_mod
from repro.sim.controller import MemoryController
from repro.sim.devices import EnergyModel, MemoryDeviceModel
from repro.sim.engine import controller_for
from repro.sim.request import MemRequest, OpType
from repro.sim.tracegen import cached_trace_arrays


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

    def test_kernel_engages_on_comet(self):
        trace = cached_trace_arrays("gcc", 800, 1)
        controller_for("COMET").run_arrays(trace)
        assert controller_mod.kernel_counters()["fast"] == 1

    @pytest.mark.parametrize("arch,kernel_class", [
        ("COSMOS", "global_queue"),
        ("3D_DDR4", "shared_bus"),
        ("EPCM-MM", "shared_bus"),
    ])
    def test_other_devices_take_their_own_kernels(self, arch, kernel_class):
        """DRAM/EPCM/COSMOS cells no longer fall back: each dispatches
        to the compiled exact twin for its timing structure."""
        trace = cached_trace_arrays("gcc", 800, 1)
        controller_for(arch).run_arrays(trace)
        counters = controller_mod.kernel_counters()
        assert counters["fast"] == 1
        assert counters[f"fast_{kernel_class}"] == 1
        assert counters["fallback_device"] == 0

    @pytest.mark.parametrize("arch", ["COSMOS", "3D_DDR4", "EPCM-MM"])
    def test_disabled_classes_fall_back_per_device(self, arch):
        """With every kernel class disabled the old fallback behaviour
        returns: scalar recurrences, one device fallback per cell."""
        previous = controller_mod.set_disabled_fast_classes(
            controller_mod.KERNEL_CLASSES)
        try:
            trace = cached_trace_arrays("gcc", 800, 1)
            controller_for(arch).run_arrays(trace)
            counters = controller_mod.kernel_counters()
        finally:
            controller_mod.set_disabled_fast_classes(previous)
        assert counters["fast"] == 0
        assert counters["fallback_device"] == 1

    def test_fast_false_pins_the_scalar_path(self):
        trace = cached_trace_arrays("gcc", 800, 1)
        controller_for("COMET").run_arrays(trace, fast=False)
        assert controller_mod.kernel_counters()["fast"] == 0


class TestBitIdentity:
    @pytest.mark.parametrize("arch", ["COMET", "COMET-thermal", "COSMOS"])
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

    def test_run_fast_object_api_matches_run(self):
        trace = cached_trace_arrays("milc", 1200, 3)
        controller = controller_for("COMET")
        fast = controller.run_fast(trace.to_requests(), "milc")
        scalar = controller.run(trace.to_requests(), "milc")
        assert fast.to_dict() == scalar.to_dict()
        assert controller_mod.kernel_counters()["fast"] == 1

    def test_request_objects_get_identical_service_fields(self):
        trace = cached_trace_arrays("omnetpp", 600, 2)
        controller = controller_for("COMET")
        via_fast = trace.to_requests()
        via_scalar = trace.to_requests()
        controller.run_fast(via_fast, "omnetpp")
        controller.run(via_scalar, "omnetpp")
        for a, b in zip(via_fast, via_scalar):
            assert (a.arrival_ns, a.start_ns, a.finish_ns, a.completion_ns) \
                == (b.arrival_ns, b.start_ns, b.finish_ns, b.completion_ns)


class TestPerBankAdmission:
    def test_single_read_latency_unchanged(self):
        controller = MemoryController(perbank_device())
        stats = controller.run_fast([read_at(0.0)])
        # 10 (array, overlapped burst) + 4 (burst) + 10 (interface)
        assert stats.latencies_ns[0] == pytest.approx(24.0)

    def test_stamp_measures_from_bank_queue_slice(self):
        """With bank queue depth q, request k is admitted no earlier
        than the finish of request k-q of the same bank — so a deep
        same-bank burst has bounded latency, not O(k) queueing."""
        device = perbank_device(banks=1)
        controller = MemoryController(device, queue_depth=2)
        burst = [read_at(0.0, 0) for _ in range(12)]
        stats = controller.run_fast(burst)
        assert controller_mod.kernel_counters()["fast"] == 1
        # Chain: start_k = 10k, finish_k = 10k + 14; admitted_k =
        # finish_{k-2} = 10k - 6 for k >= 2; completion_k = 10k + 24.
        assert stats.latencies_ns[0] == pytest.approx(24.0)
        for latency in stats.latencies_ns[2:]:
            assert latency == pytest.approx(30.0)

    def test_binding_stamp_reverts_to_global_queue(self):
        """A depth-1 bank queue stamps admission at the previous finish,
        which lands after the chain start — the cell must revert to the
        global-queue model, in the kernel and both scalar tiers alike."""
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

    def test_comet_small_queue_override_falls_back(self):
        """queue_depth overrides below one entry per bank exercise the
        admission fallback on real COMET cells (the sweep's ablation
        axis), bit-identical to the scalar path."""
        trace = cached_trace_arrays("lbm", 1500, 1)
        controller = controller_for("COMET", queue_depth=8)
        fast = controller.run_arrays(trace, fast=True)
        assert controller_mod.kernel_counters()["fallback_admission"] == 1
        scalar = controller.run_arrays(trace, fast=False)
        assert fast.to_dict() == scalar.to_dict()

    def test_bank_queue_depth_splits_global_depth(self):
        controller = controller_for("COMET")
        device = controller.device
        assert controller.bank_queue_depth \
            == max(1, controller.queue_depth // device.banks)


class TestCounters:
    def test_counters_accumulate_and_reset(self):
        trace = cached_trace_arrays("gcc", 500, 1)
        controller_for("COMET").run_arrays(trace)
        controller_for("COSMOS").run_arrays(trace)
        controller_for("2D_DDR3").run_arrays(trace)
        counters = controller_mod.kernel_counters()
        assert counters == {"fast": 3,
                            "fast_per_bank": 1,
                            # With a toolchain the per-bank cell rides
                            # the compiled twin (attribution, not an
                            # extra dispatch).
                            "twin_per_bank": 1,
                            "fast_shared_bus": 1,
                            "fast_global_queue": 1,
                            "fallback_device": 0,
                            "fallback_admission": 0,
                            "fallback_toolchain": 0}
        controller_mod.reset_kernel_counters()
        assert all(v == 0
                   for v in controller_mod.kernel_counters().values())
