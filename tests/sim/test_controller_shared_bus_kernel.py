"""Micro-traces pinning the shared-bus kernel's semantics by hand.

Every expected number below is worked out on paper from the documented
recurrence — admission against the global FIFO, bank binding, the
refresh push on the start time, the bus-ready serialization with
read/write turnaround, the *second* refresh push after the bus wait
and the overlap bank-release rule — and asserted step by step against
all three tiers (``run_fast``, ``run``, ``run_reference``).  The
values use small power-of-two-friendly floats, so every intermediate
is exactly representable and the comparisons are ``==``, not approx.

The second half unit-tests the fallback triggers one by one: a missing
toolchain (``REPRO_FASTLOOP=0``), a fast-path-ineligible device
(``allow_fast_path=False``), refresh without a shared bus and the
per-bank admission revert.
"""

from dataclasses import replace

import numpy as np

from repro.sim import _fastloop
from repro.sim import controller as controller_mod
from repro.sim.controller import MemoryController
from repro.sim.devices import (EnergyModel, MemoryDeviceModel, RefreshSpec)
from repro.sim.tracegen import TraceArrays


def _bus_device(**overrides):
    """A two-bank shared-bus device with human-sized timings."""
    fields = dict(
        name="micro-bus",
        line_bytes=64,
        banks=2,
        data_burst_ns=10.0,
        interface_delay_ns=5.0,
        read_occupancy_ns=20.0,
        write_occupancy_ns=30.0,
        shared_bus=True,
        bus_turnaround_ns=4.0,
        burst_overlaps_array=False,
        energy=EnergyModel(read_energy_j=1e-9, write_energy_j=2e-9),
    )
    fields.update(overrides)
    return MemoryDeviceModel(**fields)


def _trace(addresses, is_read, arrivals):
    return TraceArrays(
        name="micro",
        addresses=np.asarray(addresses, dtype=np.int64),
        is_read=np.asarray(is_read, dtype=bool),
        arrivals_ns=np.asarray(arrivals, dtype=np.float64),
        line_bytes=64,
    )


def _delta(before):
    """Kernel counters dispatched since the ``before`` snapshot."""
    return {key: value - before[key]
            for key, value in controller_mod.kernel_counters().items()}


def _all_tiers(controller, trace):
    """Run all three tiers; assert fast == scalar completely and the
    oracle bit-for-bit on the schedule; return the fast stats."""
    fast = controller.run_arrays(trace, workload_name="micro", fast=True)
    scalar = controller.run_arrays(trace, workload_name="micro", fast=False)
    assert fast.to_dict() == scalar.to_dict()
    reference = controller.run_reference(trace.to_requests(), "micro")
    assert np.array_equal(fast.latencies_ns, reference.latencies_ns)
    assert fast.sim_time_ns == reference.sim_time_ns
    assert fast.busy_time_ns == reference.busy_time_ns
    assert fast.refresh_count == reference.refresh_count
    return fast


class TestHandComputedSchedules:
    """The expected values are derived step by step in the comments."""

    def test_refresh_straddling_bus_trace(self, expected_dispatch):
        """Refresh windows [0,15) and [100,115) with a shared bus.

        qd=8 (never blocks).  Latency = finish + interface(5) - admitted.

        r0 bank0 R arr 0:  start 0 -> refresh push to 15; burst_start
           15+20=35 (bus free); finish 45.                 latency 50
        r1 bank1 W arr 5:  start 5 -> push 15; array done 45, but bus
           ready 45+4(turnaround)=49 -> burst at 49; finish 59.
                                                           latency 59
        r2 bank0 W arr 10: bank0 free 45; no refresh; burst 75 > bus
           59; finish 85.                                  latency 80
        r3 bank1 R arr 12: bank1 free 59; burst candidate 79 < bus
           85+4=89 -> 89; finish 99.                       latency 92
        r4 bank0 R arr 20: bank0 free 85; burst candidate 105 lands in
           the second refresh window -> *post-bus* push to 115; finish
           125.                                            latency 110
        """
        device = _bus_device(
            refresh=RefreshSpec(interval_ns=100.0, duration_ns=15.0))
        controller = MemoryController(device, queue_depth=8)
        trace = _trace(addresses=[0, 64, 0, 64, 0],
                       is_read=[True, False, False, True, True],
                       arrivals=[0.0, 5.0, 10.0, 12.0, 20.0])
        before = controller_mod.kernel_counters()
        stats = _all_tiers(controller, trace)
        assert stats.latencies_ns.tolist() == [50.0, 59.0, 80.0, 92.0, 110.0]
        # busy: bank0 (45-15)+(85-45)+(125-85)=110, bank1 (59-15)+(99-59)=84
        assert stats.busy_time_ns == 194.0
        assert stats.sim_time_ns == 130.0          # completion 130 - admit 0
        assert stats.refresh_count == 1            # int(130 // 100)
        # Three runs: fast tier once, scalar and oracle don't dispatch.
        assert _delta(before) == expected_dispatch(shared_bus=1)

    def test_queue_blocking_on_the_bus(self):
        """qd=1: every request waits for its predecessor's finish.

        r0 bank0 R arr 0: start 0, burst 20, finish 30.    latency 35
        r1 bank1 R arr 2: admitted max(2, finish[0]=30)=30; burst 50;
           finish 60.                                      latency 35
        r2 bank0 W arr 4: admitted 60; bus ready 60+4=64 < burst 90;
           finish 100.                                     latency 45
        """
        controller = MemoryController(_bus_device(), queue_depth=1)
        trace = _trace(addresses=[0, 64, 0],
                       is_read=[True, True, False],
                       arrivals=[0.0, 2.0, 4.0])
        stats = _all_tiers(controller, trace)
        assert stats.latencies_ns.tolist() == [35.0, 35.0, 45.0]
        assert stats.busy_time_ns == 100.0     # bank0 30+40, bank1 30

    def test_overlap_releases_bank_at_burst_start(self):
        """burst_overlaps_array=True on a bus: the bank frees when the
        burst *starts* (max(array done, burst start)), while the bus
        still serializes finishes.

        Single bank, two reads at arr 0:
        r0: start 0, burst_start 20, finish 30, bank freed at 20.
        r1: start 20 (not 30!), burst candidate 40 > bus 30 -> 40,
            finish 50, bank freed at 40.
        """
        device = _bus_device(banks=1, bus_turnaround_ns=0.0,
                             burst_overlaps_array=True)
        controller = MemoryController(device, queue_depth=8)
        trace = _trace(addresses=[0, 0], is_read=[True, True],
                       arrivals=[0.0, 0.0])
        stats = _all_tiers(controller, trace)
        assert stats.latencies_ns.tolist() == [35.0, 55.0]
        assert stats.busy_time_ns == 40.0      # (20-0) + (40-20)

    def test_turnaround_only_charged_on_direction_flips(self):
        """Back-to-back same-direction bursts pay no turnaround: with a
        saturated single bank the bus is the bottleneck only when the
        direction flips.

        Single bank, R R W at arr 0, turnaround 4:
        r0: start 0, burst 20, finish 30.
        r1: start 30, burst candidate 50 > bus 30+0 -> 50, finish 60.
        r2: start 60, burst candidate 90 > bus 60+4=64 -> 90, finish
            100 — the flip penalty is absorbed by the array time.
        Then W R with an idle-free bus where it is NOT absorbed is
        r1 of test_refresh_straddling_bus_trace above.
        """
        controller = MemoryController(_bus_device(banks=1), queue_depth=8)
        trace = _trace(addresses=[0, 0, 0],
                       is_read=[True, True, False],
                       arrivals=[0.0, 0.0, 0.0])
        stats = _all_tiers(controller, trace)
        assert stats.latencies_ns.tolist() == [35.0, 65.0, 105.0]


class TestFallbackTriggers:
    def test_missing_toolchain_falls_back_identically(self, monkeypatch):
        """REPRO_FASTLOOP=0 -> the compiled twin reports unavailable,
        the cell takes the scalar recurrence under run_fast, counts one
        toolchain fallback, and the numbers do not move."""
        device = _bus_device(
            refresh=RefreshSpec(interval_ns=100.0, duration_ns=15.0))
        controller = MemoryController(device, queue_depth=8)
        trace = _trace(addresses=[0, 64, 0, 64, 0],
                       is_read=[True, False, False, True, True],
                       arrivals=[0.0, 5.0, 10.0, 12.0, 20.0])
        monkeypatch.setenv(_fastloop.FASTLOOP_ENV_VAR, "0")
        assert not _fastloop.available()
        counters = controller_mod.kernel_counters()
        stats = controller.run_arrays(trace, workload_name="micro",
                                      fast=True)
        assert stats.latencies_ns.tolist() == [50.0, 59.0, 80.0, 92.0, 110.0]
        after = controller_mod.kernel_counters()
        assert after["fallback_toolchain"] \
            == counters["fallback_toolchain"] + 1
        assert after["fast_shared_bus"] == counters["fast_shared_bus"]
        monkeypatch.delenv(_fastloop.FASTLOOP_ENV_VAR)
        assert _fastloop.available()

    def test_ineligible_device_falls_back_identically(self):
        """allow_fast_path=False pins the scalar recurrence and counts
        a device fallback — same numbers again."""
        device = replace(
            _bus_device(refresh=RefreshSpec(interval_ns=100.0,
                                            duration_ns=15.0)),
            allow_fast_path=False)
        assert device.fast_path_class is None
        controller = MemoryController(device, queue_depth=8)
        trace = _trace(addresses=[0, 64, 0, 64, 0],
                       is_read=[True, False, False, True, True],
                       arrivals=[0.0, 5.0, 10.0, 12.0, 20.0])
        counters = controller_mod.kernel_counters()
        stats = controller.run_arrays(trace, workload_name="micro",
                                      fast=True)
        assert stats.latencies_ns.tolist() == [50.0, 59.0, 80.0, 92.0, 110.0]
        after = controller_mod.kernel_counters()
        assert after["fallback_device"] == counters["fallback_device"] + 1
        assert after["fast_shared_bus"] == counters["fast_shared_bus"]

    def test_refresh_without_a_bus_runs_the_mirror(self, expected_dispatch):
        """Refresh windows [0,15) and [100,115) with no shared bus: the
        one structure no dispatch class covers, so the Python mirror
        serves it on every path and counts a device fallback.  The
        start-time push applies; the second push only re-checks a bus
        wait, so without a bus it never fires.

        r0 bank0 R arr 0:  start 0 -> push 15; finish 15+20+10=45.
                                                           latency 50
        r1 bank1 W arr 5:  start 5 -> push 15; finish 15+30+10=55.
                                                           latency 55
        r2 bank0 W arr 10: bank0 free 45; finish 45+30+10=85.
                                                           latency 80
        r3 bank1 R arr 12: bank1 free 55; finish 55+20+10=85.
                                                           latency 78
        r4 bank0 R arr 20: bank0 free 85; the array finishes at 105,
           inside the second window, but no bus wait re-checks it;
           finish 115.                                     latency 100
        """
        device = _bus_device(
            shared_bus=False,
            refresh=RefreshSpec(interval_ns=100.0, duration_ns=15.0))
        assert device.fast_path_class is None
        controller = MemoryController(device, queue_depth=8)
        trace = _trace(addresses=[0, 64, 0, 64, 0],
                       is_read=[True, False, False, True, True],
                       arrivals=[0.0, 5.0, 10.0, 12.0, 20.0])
        before = controller_mod.kernel_counters()
        stats = _all_tiers(controller, trace)
        assert stats.latencies_ns.tolist() == [50.0, 55.0, 80.0, 78.0, 100.0]
        # busy: bank0 (45-15)+(85-45)+(115-85)=100, bank1 (55-15)+(85-55)=70
        assert stats.busy_time_ns == 170.0
        assert stats.sim_time_ns == 120.0
        assert stats.refresh_count == 1
        assert _delta(before) == expected_dispatch(device=1)

    def test_admission_revert_reroutes_to_global_queue(
            self, expected_dispatch):
        """A per-bank-queue device whose admission stamps bind (tiny
        queue) reverts to the global-queue schedule: one admission
        revert plus one global-queue hit of the twin (a toolchain
        fallback without it)."""
        device = MemoryDeviceModel(
            name="micro-perbank",
            line_bytes=64,
            banks=2,
            data_burst_ns=10.0,
            interface_delay_ns=5.0,
            read_occupancy_ns=20.0,
            write_occupancy_ns=30.0,
            shared_bus=False,
            per_bank_queues=True,
            # Overlap frees the bank before the burst finishes, so a
            # depth-1 queue's admission stamp (previous *finish*) lands
            # strictly after the next chain start — the binding case.
            burst_overlaps_array=True,
            energy=EnergyModel(read_energy_j=1e-9, write_energy_j=2e-9),
        )
        assert device.fast_path_class == "per_bank"
        controller = MemoryController(device, queue_depth=1)
        # All three requests hit bank 0 back to back.
        trace = _trace(addresses=[0, 128, 256], is_read=[True, True, True],
                       arrivals=[0.0, 0.0, 0.0])
        counters = controller_mod.kernel_counters()
        fast = controller.run_arrays(trace, workload_name="micro",
                                     fast=True)
        scalar = controller.run_arrays(trace, workload_name="micro",
                                       fast=False)
        assert fast.to_dict() == scalar.to_dict()
        assert _delta(counters) == expected_dispatch(reverted=1)
