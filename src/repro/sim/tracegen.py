"""Synthetic SPEC-like memory trace generators.

The paper drives its evaluation with SPEC benchmark memory traces [32].
Those traces are not redistributable, so each emulated workload is a
deterministic stochastic model of its post-LLC main-memory traffic, with
the three knobs that dominate main-memory behaviour:

* **intensity** — mean request inter-arrival (memory-bound vs compute-bound),
* **read fraction** — load/store balance after write-back filtering,
* **locality** — probability the next line continues a sequential run
  (row-buffer friendliness), with the remainder drawn from a working set.

The eight presets span the SPEC CPU mix the memory-systems literature
typically quotes: pointer-chasing (mcf), streaming stencil (lbm),
stream-read (libquantum), lattice QCD (milc), discrete-event simulation
(omnetpp), compiler (gcc), dense-flow solver (bwaves), and EM solver
(GemsFDTD).  The *relative* architecture rankings of Fig. 9 — which is
what the reproduction must preserve — depend on intensity/mix spread, not
on instruction-accurate traces (see DESIGN.md, substitutions).

Beyond the eight SPEC presets, the module provides the scenario axes the
multi-programmed PCM literature evaluates on:

* :class:`MixedWorkload` — two SPEC presets running concurrently in
  disjoint address regions (multi-programmed traffic, ``mix_*`` presets),
* :class:`PhasedWorkload` — piecewise-stationary traffic whose phases
  change intensity, read mix and locality (the ``bursty`` phase-change
  preset and the write-heavy ``checkpoint`` preset).

All generators are numpy-vectorized and emit a :class:`TraceArrays`
column store; ``generate()`` materializes :class:`MemRequest` objects
from it for the object-based simulator API.  ``cached_trace_arrays``
memoizes arrays per ``(workload, n, seed)`` so an evaluation grid
generates each trace once, not once per architecture.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..errors import TraceError
from .request import MemRequest, OpType

#: Address-space stride between the programs of a multi-programmed mix.
#: 1 GiB comfortably clears every preset's working set (≤ 512 MiB) and is
#: a multiple of every row/line size in play, so per-program bank mapping
#: is a clean shift.
MIX_REGION_BYTES = 2 ** 30


@dataclass(frozen=True, eq=False)
class TraceArrays:
    """Column-store view of one generated trace.

    The arrays are immutable (write-locked) so cached instances can be
    shared freely between architectures and pool threads; the
    controller's vectorized path consumes them without materializing
    request objects.
    """

    name: str
    addresses: np.ndarray      # int64, non-negative byte addresses
    is_read: np.ndarray        # bool
    arrivals_ns: np.ndarray    # float64, finite, >= 0, non-decreasing
    line_bytes: int = 128
    thread_ids: Optional[np.ndarray] = None   # int, per-program tag

    def __post_init__(self) -> None:
        n = len(self.addresses)
        if n == 0:
            raise TraceError("empty trace")
        if len(self.is_read) != n or len(self.arrivals_ns) != n:
            raise TraceError("trace columns must have equal length")
        # The invariants MemRequest enforces per request: the compiled
        # twin's C bank mapping equals numpy's floor division only for
        # non-negative addresses, and a NaN arrival would slip past the
        # sortedness check into a NaN latency.
        negative = np.flatnonzero(np.asarray(self.addresses) < 0)
        if negative.size:
            raise TraceError(
                f"negative address {int(self.addresses[negative[0]]):#x} "
                f"at request {int(negative[0])}")
        arrivals = np.asarray(self.arrivals_ns, dtype=np.float64)
        bad = np.flatnonzero(~(np.isfinite(arrivals) & (arrivals >= 0.0)))
        if bad.size:
            raise TraceError(
                f"arrival time must be finite and non-negative, got "
                f"{float(arrivals[bad[0]])!r} at request {int(bad[0])}")
        for arr in (self.addresses, self.is_read, self.arrivals_ns,
                    self.thread_ids):
            if arr is not None:
                arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.addresses)

    @property
    def num_requests(self) -> int:
        return len(self.addresses)

    @property
    def total_bytes(self) -> int:
        return len(self.addresses) * self.line_bytes

    def to_requests(self) -> List[MemRequest]:
        """Materialize the object view (one MemRequest per row)."""
        addresses = self.addresses.tolist()
        is_read = self.is_read.tolist()
        arrivals = self.arrivals_ns.tolist()
        threads = (self.thread_ids.tolist() if self.thread_ids is not None
                   else None)
        line_bytes = self.line_bytes
        return [
            MemRequest(
                address=addresses[i],
                op=OpType.READ if is_read[i] else OpType.WRITE,
                arrival_ns=arrivals[i],
                size_bytes=line_bytes,
                thread_id=threads[i] if threads is not None else 0,
            )
            for i in range(len(addresses))
        ]


def _line_walk(sequential: np.ndarray, random_lines: np.ndarray,
               working_set_lines: int) -> np.ndarray:
    """Vectorized sequential-run / random-jump line address walk.

    Replicates the recurrence ``line = (line + 1) % W`` on sequential
    steps and ``line = random_lines[i]`` on jumps: for every request the
    line is the last jump target plus the run length since that jump.
    """
    n = len(sequential)
    index = np.arange(n)
    reset = ~sequential
    if n:
        reset = reset.copy()
        reset[0] = True   # the first request always jumps
    last_reset = np.maximum.accumulate(np.where(reset, index, 0))
    return (random_lines[last_reset] + (index - last_reset)) % working_set_lines


@dataclass(frozen=True)
class SyntheticWorkload:
    """Parameter set of one emulated SPEC workload."""

    name: str
    mean_interarrival_ns: float
    read_fraction: float
    sequential_probability: float
    working_set_bytes: int
    line_bytes: int = 128

    def __post_init__(self) -> None:
        if self.mean_interarrival_ns <= 0.0:
            raise TraceError("inter-arrival must be positive")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise TraceError("read fraction must be in [0, 1]")
        if not 0.0 <= self.sequential_probability < 1.0:
            raise TraceError("sequential probability must be in [0, 1)")
        if self.working_set_bytes < self.line_bytes:
            raise TraceError("working set smaller than one line")

    @property
    def working_set_lines(self) -> int:
        return self.working_set_bytes // self.line_bytes

    def generate_arrays(self, num_requests: int, seed: int = 1) -> TraceArrays:
        """Generate the trace as a column store (vectorized hot path)."""
        if num_requests <= 0:
            raise TraceError("need at least one request")
        rng = np.random.RandomState(seed)
        gaps = rng.exponential(self.mean_interarrival_ns, size=num_requests)
        arrivals = np.cumsum(gaps)
        is_read = rng.random_sample(num_requests) < self.read_fraction
        sequential = rng.random_sample(num_requests) < self.sequential_probability
        random_lines = rng.randint(0, self.working_set_lines,
                                   size=num_requests).astype(np.int64)
        lines = _line_walk(sequential, random_lines, self.working_set_lines)
        return TraceArrays(
            name=self.name,
            addresses=lines * self.line_bytes,
            is_read=is_read,
            arrivals_ns=arrivals,
            line_bytes=self.line_bytes,
        )

    def generate(self, num_requests: int, seed: int = 1) -> List[MemRequest]:
        """Generate a deterministic request list for this workload."""
        return self.generate_arrays(num_requests, seed=seed).to_requests()


@dataclass(frozen=True)
class MixedWorkload:
    """Multi-programmed mix: component presets run concurrently.

    Each component keeps its own arrival process, read mix and locality,
    and lives in its own :data:`MIX_REGION_BYTES`-aligned address region
    (no inter-program sharing, the standard multi-programmed assumption).
    The merged trace interleaves the programs by arrival time and tags
    each request with the program index in ``thread_ids``.

    ``num_requests`` is the total across programs, split evenly (the
    leading programs absorb the remainder).
    """

    name: str
    components: Tuple[SyntheticWorkload, ...]

    def __post_init__(self) -> None:
        if len(self.components) < 2:
            raise TraceError("a mix needs at least two component programs")
        for component in self.components:
            if component.working_set_bytes > MIX_REGION_BYTES:
                raise TraceError(
                    f"component {component.name!r} working set exceeds the "
                    f"{MIX_REGION_BYTES}-byte mix region")
            if component.line_bytes != self.components[0].line_bytes:
                raise TraceError(
                    "mix components must share one line size, got "
                    f"{[c.line_bytes for c in self.components]}")

    @property
    def line_bytes(self) -> int:
        return self.components[0].line_bytes

    @property
    def read_fraction(self) -> float:
        """Request-weighted blend of the component read fractions."""
        return float(np.mean([c.read_fraction for c in self.components]))

    def generate_arrays(self, num_requests: int, seed: int = 1) -> TraceArrays:
        if num_requests < len(self.components):
            raise TraceError("need at least one request per program")
        base, extra = divmod(num_requests, len(self.components))
        columns = []
        for index, component in enumerate(self.components):
            count = base + (1 if index < extra else 0)
            part = component.generate_arrays(
                count, seed=_component_seed(seed, index))
            columns.append((
                part.addresses + index * MIX_REGION_BYTES,
                part.is_read,
                part.arrivals_ns,
                np.full(count, index, dtype=np.int64),
            ))
        addresses = np.concatenate([c[0] for c in columns])
        is_read = np.concatenate([c[1] for c in columns])
        arrivals = np.concatenate([c[2] for c in columns])
        threads = np.concatenate([c[3] for c in columns])
        order = np.argsort(arrivals, kind="stable")
        return TraceArrays(
            name=self.name,
            addresses=addresses[order],
            is_read=is_read[order],
            arrivals_ns=arrivals[order],
            line_bytes=self.line_bytes,
            thread_ids=threads[order],
        )

    def generate(self, num_requests: int, seed: int = 1) -> List[MemRequest]:
        return self.generate_arrays(num_requests, seed=seed).to_requests()


def _component_seed(seed: int, index: int) -> int:
    """Deterministic per-program seed (decorrelates the programs)."""
    return (seed + 7919 * (index + 1)) % (2 ** 32)


@dataclass(frozen=True)
class Phase:
    """One stationary segment of a :class:`PhasedWorkload`."""

    length_requests: int
    interarrival_scale: float
    read_fraction: float
    sequential_probability: float

    def __post_init__(self) -> None:
        if self.length_requests <= 0:
            raise TraceError("phase length must be positive")
        if self.interarrival_scale <= 0.0:
            raise TraceError("inter-arrival scale must be positive")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise TraceError("read fraction must be in [0, 1]")
        if not 0.0 <= self.sequential_probability < 1.0:
            raise TraceError("sequential probability must be in [0, 1)")


@dataclass(frozen=True)
class PhasedWorkload:
    """Piecewise-stationary traffic cycling through a tuple of phases.

    Request *i* belongs to the phase that covers ``i`` in the repeating
    phase pattern; each phase scales the base inter-arrival and sets its
    own read mix and locality.  Covers the bursty/phase-change behaviour
    (alternating memory-bound bursts and compute lulls) and checkpointing
    (long read-dominated compute, then a sequential write-heavy dump).
    """

    name: str
    mean_interarrival_ns: float
    working_set_bytes: int
    phases: Tuple[Phase, ...]
    line_bytes: int = 128

    def __post_init__(self) -> None:
        if self.mean_interarrival_ns <= 0.0:
            raise TraceError("inter-arrival must be positive")
        if self.working_set_bytes < self.line_bytes:
            raise TraceError("working set smaller than one line")
        if not self.phases:
            raise TraceError("need at least one phase")

    @property
    def working_set_lines(self) -> int:
        return self.working_set_bytes // self.line_bytes

    @property
    def read_fraction(self) -> float:
        """Length-weighted blend of the phase read fractions."""
        lengths = np.array([p.length_requests for p in self.phases], float)
        fractions = np.array([p.read_fraction for p in self.phases])
        return float(np.sum(lengths * fractions) / np.sum(lengths))

    def phase_index(self, num_requests: int) -> np.ndarray:
        """Phase id of every request position (vectorized)."""
        lengths = np.array([p.length_requests for p in self.phases])
        boundaries = np.cumsum(lengths)
        period = int(boundaries[-1])
        position = np.arange(num_requests) % period
        return np.searchsorted(boundaries, position, side="right")

    def generate_arrays(self, num_requests: int, seed: int = 1) -> TraceArrays:
        if num_requests <= 0:
            raise TraceError("need at least one request")
        rng = np.random.RandomState(seed)
        phase_of = self.phase_index(num_requests)
        scale = np.array([p.interarrival_scale for p in self.phases])[phase_of]
        read_frac = np.array([p.read_fraction for p in self.phases])[phase_of]
        seq_prob = np.array(
            [p.sequential_probability for p in self.phases])[phase_of]
        gaps = rng.exponential(1.0, size=num_requests) \
            * (self.mean_interarrival_ns * scale)
        arrivals = np.cumsum(gaps)
        is_read = rng.random_sample(num_requests) < read_frac
        sequential = rng.random_sample(num_requests) < seq_prob
        random_lines = rng.randint(0, self.working_set_lines,
                                   size=num_requests).astype(np.int64)
        lines = _line_walk(sequential, random_lines, self.working_set_lines)
        return TraceArrays(
            name=self.name,
            addresses=lines * self.line_bytes,
            is_read=is_read,
            arrivals_ns=arrivals,
            line_bytes=self.line_bytes,
        )

    def generate(self, num_requests: int, seed: int = 1) -> List[MemRequest]:
        return self.generate_arrays(num_requests, seed=seed).to_requests()


#: Anything ``generate_trace`` accepts.
Workload = Union[SyntheticWorkload, MixedWorkload, PhasedWorkload]


#: The eight Fig. 9 workload presets.  Post-LLC main-memory traffic is
#: read-dominated (the writes are write-backs) and, for the memory-bound
#: SPEC members the paper's evaluation targets, intense enough to saturate
#: the memory system — that is the regime where Fig. 9 separates the
#: architectures.
SPEC_WORKLOADS: Dict[str, SyntheticWorkload] = {
    "mcf": SyntheticWorkload(
        name="mcf", mean_interarrival_ns=2.0, read_fraction=0.88,
        sequential_probability=0.05, working_set_bytes=512 * 2**20,
    ),
    "lbm": SyntheticWorkload(
        name="lbm", mean_interarrival_ns=2.5, read_fraction=0.62,
        sequential_probability=0.85, working_set_bytes=384 * 2**20,
    ),
    "libquantum": SyntheticWorkload(
        name="libquantum", mean_interarrival_ns=3.0, read_fraction=0.97,
        sequential_probability=0.92, working_set_bytes=64 * 2**20,
    ),
    "milc": SyntheticWorkload(
        name="milc", mean_interarrival_ns=4.0, read_fraction=0.85,
        sequential_probability=0.45, working_set_bytes=256 * 2**20,
    ),
    "omnetpp": SyntheticWorkload(
        name="omnetpp", mean_interarrival_ns=6.0, read_fraction=0.86,
        sequential_probability=0.12, working_set_bytes=128 * 2**20,
    ),
    "gcc": SyntheticWorkload(
        name="gcc", mean_interarrival_ns=10.0, read_fraction=0.90,
        sequential_probability=0.35, working_set_bytes=96 * 2**20,
    ),
    "bwaves": SyntheticWorkload(
        name="bwaves", mean_interarrival_ns=2.5, read_fraction=0.80,
        sequential_probability=0.75, working_set_bytes=448 * 2**20,
    ),
    "gemsfdtd": SyntheticWorkload(
        name="gemsfdtd", mean_interarrival_ns=3.5, read_fraction=0.82,
        sequential_probability=0.55, working_set_bytes=320 * 2**20,
    ),
}


def _mix(name_a: str, name_b: str) -> MixedWorkload:
    return MixedWorkload(
        name=f"mix_{name_a}_{name_b}",
        components=(SPEC_WORKLOADS[name_a], SPEC_WORKLOADS[name_b]),
    )


#: Multi-programmed pairs spanning the interesting contrasts: random vs
#: streaming, read-heavy vs write-heavy, intense vs relaxed.
MIXED_WORKLOADS: Dict[str, MixedWorkload] = {
    mix.name: mix for mix in (
        _mix("mcf", "lbm"),            # pointer-chasing + write-heavy stream
        _mix("libquantum", "omnetpp"),  # streaming reads + random events
        _mix("gcc", "bwaves"),          # relaxed compute + intense stream
        _mix("milc", "gemsfdtd"),       # two mid-locality HPC solvers
    )
}


#: Phase-change and checkpointing presets.  ``bursty`` alternates
#: memory-bound bursts (4x the base intensity) with compute lulls (4x
#: slower); ``checkpoint`` models periodic state dumps: long
#: read-dominated compute phases punctuated by sequential write storms.
PHASED_WORKLOADS: Dict[str, PhasedWorkload] = {
    "bursty": PhasedWorkload(
        name="bursty", mean_interarrival_ns=4.0,
        working_set_bytes=256 * 2**20,
        phases=(
            Phase(length_requests=512, interarrival_scale=0.25,
                  read_fraction=0.85, sequential_probability=0.60),
            Phase(length_requests=512, interarrival_scale=4.0,
                  read_fraction=0.90, sequential_probability=0.20),
        ),
    ),
    "checkpoint": PhasedWorkload(
        name="checkpoint", mean_interarrival_ns=3.0,
        working_set_bytes=384 * 2**20,
        phases=(
            Phase(length_requests=1536, interarrival_scale=1.0,
                  read_fraction=0.92, sequential_probability=0.40),
            Phase(length_requests=512, interarrival_scale=0.5,
                  read_fraction=0.05, sequential_probability=0.95),
        ),
    ),
}


#: Every named workload the CLI / evaluation engine accepts.
WORKLOADS: Dict[str, Workload] = {
    **SPEC_WORKLOADS, **MIXED_WORKLOADS, **PHASED_WORKLOADS,
}

WORKLOAD_NAMES: Tuple[str, ...] = tuple(sorted(WORKLOADS))

#: Accelerator-traffic presets (the Fig. 10 DOTA workloads).  Resolved
#: lazily through :mod:`repro.accel.dota` because the accel layer builds
#: them *from* this module's workload classes — a module-level import
#: here would be a cycle.  Listing the names statically keeps them
#: addressable (CLI choices, error messages, the evaluation service's
#: trust boundary) without importing the accel stack until a grid
#: actually names one.
ACCEL_WORKLOAD_NAMES: Tuple[str, ...] = ("dota-DeiT-B", "dota-DeiT-T")

_ACCEL_WORKLOADS: Dict[str, Workload] = {}

#: Every workload name any consumer can address (CLI, wire format).
ALL_WORKLOAD_NAMES: Tuple[str, ...] = tuple(
    sorted(WORKLOAD_NAMES + ACCEL_WORKLOAD_NAMES))


def _accel_workloads() -> Dict[str, Workload]:
    if not _ACCEL_WORKLOADS:
        from ..accel.dota import dota_traffic_workloads

        loaded = dota_traffic_workloads()
        missing = set(ACCEL_WORKLOAD_NAMES) - set(loaded)
        if missing:
            raise TraceError(
                f"accel workload registry is missing {sorted(missing)}; "
                f"dota_traffic_workloads returned {sorted(loaded)}")
        _ACCEL_WORKLOADS.update(loaded)
    return _ACCEL_WORKLOADS


def get_workload(workload_name: str) -> Workload:
    """Look up any named workload preset (SPEC, mixes, phased, accel)."""
    try:
        return WORKLOADS[workload_name]
    except KeyError:
        pass
    if workload_name in ACCEL_WORKLOAD_NAMES:
        return _accel_workloads()[workload_name]
    raise TraceError(
        f"unknown workload {workload_name!r}; known: "
        f"{list(ALL_WORKLOAD_NAMES)}"
    ) from None


def generate_trace_arrays(
    workload_name: str, num_requests: int = 20_000, seed: int = 1
) -> TraceArrays:
    """Column-store trace of one named workload."""
    return get_workload(workload_name).generate_arrays(num_requests, seed=seed)


@lru_cache(maxsize=32)
def cached_trace_arrays(
    workload_name: str, num_requests: int = 20_000, seed: int = 1
) -> TraceArrays:
    """Memoized :func:`generate_trace_arrays`.

    The arrays are write-locked, so sharing one instance across every
    architecture of an evaluation grid (and across controller runs) is
    safe; an (arch x workload) grid pays one generation per workload.
    """
    return generate_trace_arrays(workload_name, num_requests, seed)


def generate_trace(
    workload_name: str, num_requests: int = 20_000, seed: int = 1
) -> List[MemRequest]:
    """Generate the canonical trace of one named workload."""
    return get_workload(workload_name).generate(num_requests, seed=seed)

