"""Shared strategies and assertions for cross-tier equivalence suites.

One place defines what "the tiers agree" means — **complete SimStats
equality** between ``run_fast`` and ``run`` (bit-for-bit, every field)
plus the oracle comparison against ``run_reference`` (every
schedule-derived field bit-for-bit; energy to 1e-12 relative, because
the oracle re-associates its per-request energy sum) — and the strategy
builders every equivalence suite draws cells from: registered
architectures (optionally filtered by fast-path kernel class),
workloads, request counts, seeds, queue-depth overrides, synthetic
shared-bus device models whose refresh windows real traces straddle,
synthetic row-buffer device models, and idle gaps spliced into traces.

Where the compiled twin loads, :func:`assert_tiers_identical` also
compares its ``CellResult`` with the Python mirror's field for field,
so every suite that draws a cell pins the revert flag and the
per-request service arrays of both schedulers directly.  Fallback
cells come from ``allow_fast_path=False`` device models and from
refresh without a shared bus, the one structure no dispatch class
covers; the mirror serves both in every tier.
"""

from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.sim import _fastloop
from repro.sim.controller import MemoryController
from repro.sim.devices import (EnergyModel, MemoryDeviceModel, RefreshSpec,
                                RowBufferTiming)
from repro.sim.engine import controller_for
from repro.sim.factory import build_device, known_architectures
from repro.sim.tracegen import (TraceArrays, WORKLOAD_NAMES,
                                cached_trace_arrays)

#: Registered architectures grouped by fast-path kernel class, computed
#: from the device models themselves so the grouping can never drift
#: from the dispatcher's.
ARCHES_BY_CLASS = {}
for _name in known_architectures():
    ARCHES_BY_CLASS.setdefault(
        build_device(_name).fast_path_class, []).append(_name)

#: Every architecture whose cells the shared-bus kernel serves
#: (DRAM x4 with refresh, EPCM, the closed-page DDR4 variant).
SHARED_BUS_ARCHES = tuple(ARCHES_BY_CLASS["shared_bus"])


def architectures(kernel_class="any"):
    """Strategy over registered architecture names.

    ``kernel_class`` filters by :attr:`MemoryDeviceModel.fast_path_class`
    (``"per_bank"`` / ``"shared_bus"`` / ``"global_queue"``); the
    default ``"any"`` samples the whole registry.
    """
    if kernel_class == "any":
        return st.sampled_from(known_architectures())
    return st.sampled_from(tuple(ARCHES_BY_CLASS[kernel_class]))


def workloads():
    """Strategy over every named workload preset."""
    return st.sampled_from(WORKLOAD_NAMES)


def request_counts(min_value=2, max_value=400):
    """Request counts (mixed workloads need one request per program)."""
    return st.integers(min_value=min_value, max_value=max_value)


def seeds(max_value=2 ** 32 - 1):
    """Trace-generator seeds."""
    return st.integers(min_value=0, max_value=max_value)


def queue_depths(min_value=1, max_value=512):
    """Controller queue-depth overrides: small depths force the
    per-bank admission fallback, large ones the kernel."""
    return st.integers(min_value=min_value, max_value=max_value)


#: The longest refresh interval :func:`refresh_specs` draws.
MAX_REFRESH_INTERVAL = 4000.0


@st.composite
def refresh_specs(draw):
    """Refresh windows short enough that SPEC-shaped traces straddle
    many.  Integral intervals too: the twin reads those off a cached
    window and calls ``fmod`` for the rest."""
    interval = draw(
        st.floats(min_value=200.0, max_value=MAX_REFRESH_INTERVAL)
        | st.integers(min_value=200,
                      max_value=int(MAX_REFRESH_INTERVAL)).map(float))
    duration = draw(st.floats(min_value=1.0, max_value=0.4 * interval))
    return RefreshSpec(interval_ns=interval, duration_ns=duration)


def idle_gaps():
    """``(request index, gap)`` pairs for :func:`with_idle_gaps`, each
    gap longer than any drawn refresh interval and up to ten of them,
    so the twin's cached window re-seeds several intervals ahead."""
    return st.lists(
        st.tuples(st.integers(min_value=0, max_value=300),
                  st.floats(min_value=MAX_REFRESH_INTERVAL,
                            max_value=10 * MAX_REFRESH_INTERVAL,
                            exclude_min=True)),
        max_size=4)


@st.composite
def shared_bus_devices(draw):
    """Synthetic fixed-latency shared-bus devices beyond the presets.

    Spans the coupling regimes the compiled exact twin must reproduce:
    with and without refresh (intervals short enough that SPEC-shaped
    traces straddle many windows), read/write turnaround penalties,
    burst/array overlap and single-bank buses.
    """
    banks = draw(st.integers(min_value=1, max_value=9))
    read_ns = draw(st.floats(min_value=1.0, max_value=80.0))
    write_ns = draw(st.floats(min_value=1.0, max_value=500.0))
    refresh = draw(st.none() | refresh_specs())
    return MemoryDeviceModel(
        name="synthetic-bus",
        line_bytes=64,
        banks=banks,
        data_burst_ns=draw(st.floats(min_value=1.0, max_value=12.0)),
        interface_delay_ns=5.0,
        read_occupancy_ns=read_ns,
        write_occupancy_ns=write_ns,
        refresh=refresh,
        shared_bus=True,
        bus_turnaround_ns=draw(st.floats(min_value=0.0, max_value=9.0)),
        burst_overlaps_array=draw(st.booleans()),
        energy=EnergyModel(read_energy_j=1e-9, write_energy_j=2e-9),
    )


@st.composite
def row_buffer_devices(draw):
    """Synthetic row-buffer devices beyond the presets.

    Puts the compiled twin's open-row table under hypothesis: open and
    closed pages, bank counts and row sizes that are not powers of two
    (so the C mapping takes its division path, not the shift), an
    optional fixed write occupancy over the row-buffer path (COSMOS's
    override), and every scheduling structure a row buffer can sit
    behind — per-bank queues, a global FIFO, a shared bus with optional
    refresh, or refresh windows without a shared bus (no dispatch class
    covers that one, so the mirror serves it on every path).
    """
    structure = draw(st.sampled_from(("per_bank", "global_queue",
                                      "shared_bus", "refresh")))
    refresh = None
    if structure == "refresh" \
            or (structure == "shared_bus" and draw(st.booleans())):
        refresh = draw(refresh_specs())
    write_ns = draw(st.none() | st.floats(min_value=1.0, max_value=500.0))
    return MemoryDeviceModel(
        name="synthetic-rows",
        line_bytes=64,
        banks=draw(st.integers(min_value=1, max_value=12)),
        data_burst_ns=draw(st.floats(min_value=1.0, max_value=12.0)),
        interface_delay_ns=5.0,
        row_buffer=RowBufferTiming(
            t_rcd_ns=draw(st.floats(min_value=1.0, max_value=30.0)),
            t_rp_ns=draw(st.floats(min_value=1.0, max_value=30.0)),
            t_cas_ns=draw(st.floats(min_value=1.0, max_value=30.0)),
            t_wr_ns=draw(st.floats(min_value=0.0, max_value=30.0)),
            row_size_bytes=draw(st.integers(min_value=64,
                                            max_value=20000)),
            page_policy=draw(st.sampled_from(("open", "closed")))),
        write_occupancy_ns=write_ns,
        refresh=refresh,
        shared_bus=structure == "shared_bus",
        bus_turnaround_ns=draw(st.floats(min_value=0.0, max_value=9.0)),
        burst_overlaps_array=draw(st.booleans()),
        per_bank_queues=structure == "per_bank",
        energy=EnergyModel(read_energy_j=1e-9, write_energy_j=2e-9),
    )


@dataclass(frozen=True)
class Cell:
    """One grid cell: a controller bound to a trace."""

    controller: MemoryController
    trace: TraceArrays
    workload: str


def make_cell(arch, workload, num_requests, seed, queue_depth=None):
    """Build a :class:`Cell` for a registered architecture name."""
    controller = (controller_for(arch) if queue_depth is None
                  else controller_for(arch, queue_depth=queue_depth))
    return Cell(controller, cached_trace_arrays(workload, num_requests, seed),
                workload)


def make_device_cell(device, workload, num_requests, seed, queue_depth=32):
    """Build a :class:`Cell` for a synthetic device model."""
    return Cell(MemoryController(device, queue_depth=queue_depth),
                cached_trace_arrays(workload, num_requests, seed), workload)


def with_idle_gaps(cell, gaps):
    """``cell`` with each ``(index, gap)`` added to the arrivals from
    that request on."""
    arrivals = cell.trace.arrivals_ns.copy()
    for index, gap in gaps:
        arrivals[index:] += gap
    return replace(cell, trace=replace(cell.trace, arrivals_ns=arrivals))


def assert_twin_matches_mirror(cell):
    """The twin's ``CellResult`` equals the mirror's, byte for byte:
    latencies, admission, start and finish times, the totals and the
    revert flag."""
    controller, trace = cell.controller, cell.trace
    columns = (trace.addresses, trace.is_read, trace.arrivals_ns)
    spec = controller._twin_spec()
    twin = _fastloop.run_cell(*columns, spec, service=True)
    mirror = _fastloop.run_cell_python(*columns, spec)
    for name, got, want in zip(twin._fields, twin, mirror):
        if isinstance(want, np.ndarray):
            assert got.tobytes() == want.tobytes(), name
        else:
            assert (type(got), got) == (type(want), want), name


def assert_tiers_identical(cell):
    """All tiers agree on one cell; returns the fast-tier stats.

    ``run_fast`` vs ``run`` is complete SimStats equality; where the
    twin loads, its ``CellResult`` equals the mirror's field for field;
    the ``run_reference`` oracle comparison pins every schedule-derived
    field bit-for-bit and the energy to 1e-12 relative (the oracle
    re-associates its per-request energy sum).
    """
    controller, trace, workload = cell.controller, cell.trace, cell.workload
    fast = controller.run_arrays(trace, workload_name=workload, fast=True)
    scalar = controller.run_arrays(trace, workload_name=workload, fast=False)
    assert fast.to_dict() == scalar.to_dict()
    if _fastloop.available():
        assert_twin_matches_mirror(cell)
    reference = controller.run_reference(trace.to_requests(), workload)
    assert np.array_equal(fast.latencies_ns, reference.latencies_ns)
    assert fast.sim_time_ns == reference.sim_time_ns
    assert fast.busy_time_ns == reference.busy_time_ns
    assert fast.active_time_ns == reference.active_time_ns
    assert fast.refresh_count == reference.refresh_count
    assert fast.row_hits == reference.row_hits
    assert fast.row_misses == reference.row_misses
    assert fast.op_energy_j == pytest.approx(reference.op_energy_j,
                                             rel=1e-12)
    return fast
