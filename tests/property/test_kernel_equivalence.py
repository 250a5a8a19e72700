"""Hypothesis equivalence: ``run_fast`` ↔ ``run`` ↔ ``run_reference``.

The compiled twin must be indistinguishable from its Python mirror on
*every* cell the evaluation substrate can name — all registered
architectures (Fig. 9 seven + ablation variants), the full workload
set, arbitrary request counts, seeds and queue-depth overrides,
including the cells that must take a fallback (``allow_fast_path=False``
devices, refresh without a shared bus, a missing toolchain) and the
cells whose binding per-bank admission stamps revert them.

The agreement contract — complete SimStats equality between the fast
and Python tiers, the twin's ``CellResult`` equal to the mirror's field
for field, and the bit-for-bit oracle comparison — lives in
:mod:`equivalence` and is shared with the micro-trace suites.
"""

from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim import _fastloop
from repro.sim import controller as controller_mod
from repro.sim.engine import controller_for

from equivalence import (architectures, assert_tiers_identical, idle_gaps,
                         make_cell, make_device_cell, queue_depths,
                         request_counts, row_buffer_devices, seeds,
                         shared_bus_devices, with_idle_gaps, workloads,
                         ARCHES_BY_CLASS, SHARED_BUS_ARCHES)

RELAXED = settings(max_examples=40, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


def test_registry_covers_every_kernel_class():
    """The registry exercises all three kernels (and the suite below
    therefore does too): per-bank, shared-bus and global-queue devices
    all ship as named architectures."""
    assert set(ARCHES_BY_CLASS) >= {"per_bank", "shared_bus",
                                    "global_queue"}
    assert len(SHARED_BUS_ARCHES) >= 5  # DRAM x4 + EPCM at minimum


class TestKernelEquivalence:
    @given(arch=architectures(), workload=workloads(),
           num_requests=request_counts(), seed=seeds())
    @RELAXED
    def test_three_tiers_agree_across_the_registry(
            self, arch, workload, num_requests, seed):
        assert_tiers_identical(make_cell(arch, workload, num_requests, seed))

    @given(arch=architectures("shared_bus"), workload=workloads(),
           num_requests=st.integers(min_value=200, max_value=2000),
           seed=seeds())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_shared_bus_archs_straddle_refresh_windows(
            self, arch, workload, num_requests, seed):
        """Long traces on the refresh+bus devices: arbitrary workload
        shapes against the bus recurrence, refresh included."""
        assert_tiers_identical(make_cell(arch, workload, num_requests, seed))

    def test_refresh_windows_are_actually_straddled(self):
        """The straddling claim, pinned deterministically: a long mcf
        trace on every DDR architecture crosses refresh windows, so the
        kernel's stall insertion (including the post-bus-wait re-check)
        ran for real — not just traces too short to meet a boundary."""
        for arch in SHARED_BUS_ARCHES:
            if "DDR" not in arch:
                continue
            stats = assert_tiers_identical(make_cell(arch, "mcf", 2000, 1))
            assert stats.refresh_count > 0

    @given(workload=workloads(), num_requests=request_counts(),
           queue_depth=queue_depths())
    @RELAXED
    def test_queue_depth_overrides_agree_on_comet(
            self, workload, num_requests, queue_depth):
        """Small overrides force the admission fallback, large ones the
        kernel — both must match the scalar tiers exactly."""
        assert_tiers_identical(
            make_cell("COMET", workload, num_requests, 1,
                      queue_depth=queue_depth))

    @given(device=shared_bus_devices(),
           queue_depth=st.integers(min_value=1, max_value=64),
           num_requests=st.integers(min_value=1, max_value=300),
           seed=st.integers(min_value=0, max_value=1000),
           gaps=idle_gaps())
    @RELAXED
    def test_synthetic_shared_bus_devices(self, device, queue_depth,
                                          num_requests, seed, gaps):
        """Bus devices beyond the presets: random turnaround penalties,
        refresh intervals short enough that every trace straddles
        windows (integral ones too, which the twin reads off its cached
        window), idle gaps that skip several windows, burst/array
        overlap on a bus, single-bank buses."""
        assert_tiers_identical(with_idle_gaps(
            make_device_cell(device, "mcf", num_requests, seed % 7 + 1,
                             queue_depth=queue_depth), gaps))

    @given(device=row_buffer_devices(),
           queue_depth=st.integers(min_value=1, max_value=64),
           num_requests=st.integers(min_value=1, max_value=300),
           seed=st.integers(min_value=0, max_value=1000),
           gaps=idle_gaps())
    @RELAXED
    def test_synthetic_row_buffer_devices(self, device, queue_depth,
                                          num_requests, seed, gaps):
        """Row-buffer devices beyond the presets: open and closed
        pages, bank counts and row sizes off the powers of two, the
        fixed write occupancy override, behind every queue structure —
        refresh without a shared bus included, which has no dispatch
        class and counts a device fallback — on traces with idle gaps
        longer than a refresh interval."""
        before = controller_mod.kernel_counters()["fallback_device"]
        assert_tiers_identical(with_idle_gaps(
            make_device_cell(device, "mcf", num_requests, seed % 7 + 1,
                             queue_depth=queue_depth), gaps))
        assert controller_mod.kernel_counters()["fallback_device"] - before \
            == (device.fast_path_class is None)

    @given(banks=st.integers(min_value=1, max_value=9),
           queue_depth=st.integers(min_value=1, max_value=64),
           overlap=st.booleans(),
           num_requests=st.integers(min_value=1, max_value=300),
           seed=st.integers(min_value=0, max_value=1000))
    @RELAXED
    def test_synthetic_per_bank_devices(self, banks, queue_depth, overlap,
                                        num_requests, seed):
        """Per-bank-queue devices beyond the COMET presets: odd bank
        counts, tiny queues (admission fallback), both overlap modes."""
        from repro.sim.devices import EnergyModel, MemoryDeviceModel
        device = MemoryDeviceModel(
            name="synthetic",
            line_bytes=128,
            banks=banks,
            data_burst_ns=3.0,
            interface_delay_ns=7.0,
            read_occupancy_ns=11.0,
            write_occupancy_ns=37.0,
            shared_bus=False,
            burst_overlaps_array=overlap,
            per_bank_queues=True,
            energy=EnergyModel(read_energy_j=1e-9, write_energy_j=2e-9),
        )
        assert_tiers_identical(
            make_device_cell(device, "mcf", num_requests, seed % 7 + 1,
                             queue_depth=queue_depth))


class TestForcedFallbacks:
    @given(arch=architectures(), workload=workloads(),
           num_requests=request_counts(max_value=200), seed=seeds(1000))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_disabled_kernel_classes_stay_identical(
            self, arch, workload, num_requests, seed):
        """Every registered device with its fast path disabled
        (``allow_fast_path=False``) runs the Python mirror on every
        path, per-bank queues included, counts a device fallback and
        still agrees with the oracle."""
        controller = controller_for(arch)
        pinned = replace(controller.device, allow_fast_path=False)
        before = controller_mod.kernel_counters()["fallback_device"]
        assert_tiers_identical(
            make_device_cell(pinned, workload, num_requests, seed,
                             queue_depth=controller.queue_depth))
        assert controller_mod.kernel_counters()["fallback_device"] \
            == before + 1

    @given(device=shared_bus_devices(),
           num_requests=st.integers(min_value=1, max_value=200),
           seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_fast_path_ineligible_devices(self, device, num_requests, seed):
        """``allow_fast_path=False`` pins the Python mirror in every
        tier and counts a device fallback."""
        pinned = replace(device, allow_fast_path=False)
        assert pinned.fast_path_class is None
        before = controller_mod.kernel_counters()["fallback_device"]
        assert_tiers_identical(
            make_device_cell(pinned, "gcc", num_requests, seed % 5 + 1))
        assert controller_mod.kernel_counters()["fallback_device"] > before

    def test_missing_toolchain_stays_identical(self, monkeypatch):
        """REPRO_FASTLOOP=0 disables the compiled twin: shared-bus and
        global-queue cells take the toolchain fallback, bit-identical.
        ``monkeypatch`` restores the caller's setting afterwards, which
        under the ``REPRO_FASTLOOP=0`` CI leg is that same ``0``."""
        monkeypatch.setenv(_fastloop.FASTLOOP_ENV_VAR, "0")
        assert not _fastloop.available()
        before = controller_mod.kernel_counters()["fallback_toolchain"]
        for arch in ("2D_DDR3", "EPCM-MM", "COSMOS"):
            assert_tiers_identical(make_cell(arch, "libquantum", 120, 3))
        assert (controller_mod.kernel_counters()["fallback_toolchain"]
                >= before + 3)

    def test_fast_cells_were_exercised(self, expected_dispatch):
        """Sanity on the suite itself: one deterministic cell per
        dispatch class, one reverted per-bank cell and one ineligible
        device leave exactly the counters this configuration implies —
        compiled hits where the twin exists, toolchain fallbacks on the
        ``REPRO_FASTLOOP=0`` leg."""
        pinned = replace(controller_for("2D_DDR3").device,
                         allow_fast_path=False)
        controller_mod.reset_kernel_counters()
        for arch in ("COMET", "2D_DDR3", "COSMOS"):
            assert_tiers_identical(make_cell(arch, "mcf", 64, 2))
        assert_tiers_identical(
            make_cell("COMET", "lbm", 1500, 1, queue_depth=8))
        assert_tiers_identical(make_device_cell(pinned, "mcf", 64, 2))
        assert controller_mod.kernel_counters() == expected_dispatch(
            per_bank=1, shared_bus=1, global_queue=1, reverted=1, device=1)
