"""Simulation statistics: the Fig. 9 metrics.

``SimStats`` aggregates what the paper reports: sustained bandwidth,
average (and tail) application latency, and energy-per-bit.  EPB follows
the paper's accounting (Section IV.C): *all* energy spent while
orchestrating the trace's reads and writes — background + gated active
power + per-operation energy — divided by the bits transferred.

When the raw per-request samples are unavailable (archival result-store
entries written with ``latencies=False``, trimmed wire responses), a
fixed-bin **latency summary** — exact count/mean/min/max plus a
log-spaced histogram — stands in: the mean and extremes stay exact and
percentiles interpolate within their bin, so percentile queries against
archival stores return numbers instead of NaN.

The raw samples are a float64 ``np.ndarray`` in memory — the
scheduler's completion-minus-admission array, or a store sidecar's or
``/eval`` frame's buffer, passed through without a copy.  Outside
memory they are packed little-endian float64 (:func:`pack_latencies`),
and they only become a list of Python floats at the JSON boundary
(:meth:`SimStats.to_dict`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Any, Dict, List, Optional

import numpy as np

from ..errors import SimulationError

#: Fixed histogram bin edges (ns): 10 bins per decade from 1 ns to
#: 10 ms, plus implicit underflow/overflow bins.  Fixed — not data
#: dependent — so summaries from different cells, runs and hosts are
#: directly comparable and mergeable.
HIST_DECADES = (0, 7)
HIST_BINS_PER_DECADE = 10
HIST_EDGES_NS = np.logspace(
    HIST_DECADES[0], HIST_DECADES[1],
    (HIST_DECADES[1] - HIST_DECADES[0]) * HIST_BINS_PER_DECADE + 1)


def pack_latencies(latencies: np.ndarray) -> bytes:
    """Per-request latencies as packed little-endian float64 bytes.

    The one binary sample layout: the result store's ``.lat`` sidecar
    and the ``/eval`` frame's sample blocks.  Packed floats decode
    orders of magnitude faster than a JSON array and round-trip
    bit-exactly.
    """
    return np.asarray(latencies, dtype="<f8").tobytes()


def unpack_latencies(buffer: bytes, count: int = -1,
                     offset: int = 0) -> np.ndarray:
    """``count`` packed samples (all, by default) starting ``offset``
    bytes into ``buffer``, viewed without a copy (read-only when
    ``buffer`` is ``bytes``)."""
    return np.frombuffer(buffer, dtype="<f8", count=count, offset=offset)


def summarize_latencies(latencies_ns: List[float]) -> Dict[str, Any]:
    """Fixed-bin summary of one latency sample set.

    ``counts`` has ``len(HIST_EDGES_NS) + 1`` entries: an underflow bin
    below the first edge, the log-spaced bins, and an overflow bin at
    the top — every sample lands somewhere, whatever the device.
    Bin ``b`` counts the samples in ``[edge[b-1], edge[b])``; NaN sorts
    last, into the overflow bin.
    """
    samples = np.asarray(latencies_ns, dtype=np.float64)
    n = len(samples)
    if n == 0:
        raise SimulationError("no latency samples to summarize")
    # One sort, then one binary search per edge (not one per sample):
    # ``below[b]`` is the number of samples under edge ``b``.
    below = np.searchsorted(np.sort(samples), HIST_EDGES_NS, side="left")
    counts = np.diff(below, prepend=0, append=n)
    return {
        "count": n,
        "mean_ns": float(np.mean(samples)),
        "min_ns": float(np.min(samples)),
        "max_ns": float(np.max(samples)),
        "counts": counts.tolist(),
    }


def summary_percentile(summary: Dict[str, Any], q: float) -> float:
    """Estimate the ``q``-th percentile from a fixed-bin summary.

    Linear interpolation inside the covering bin, clamped to the exact
    ``[min_ns, max_ns]`` — a few percent of a bin's width off at worst,
    against NaN without it.
    """
    counts = np.asarray(summary["counts"], dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        raise SimulationError("empty latency summary")
    lo, hi = summary["min_ns"], summary["max_ns"]
    # Bin b spans [edge[b-1], edge[b]); clamp the open-ended extremes
    # to the exact observed min/max.
    edges_lo = np.concatenate(([lo], HIST_EDGES_NS))
    edges_hi = np.concatenate((HIST_EDGES_NS, [hi]))
    target = total * q / 100.0
    cumulative = np.cumsum(counts)
    index = int(np.searchsorted(cumulative, target, side="left"))
    index = min(index, len(counts) - 1)
    below = cumulative[index] - counts[index]
    inside = counts[index] or 1.0
    fraction = min(max((target - below) / inside, 0.0), 1.0)
    bin_lo = max(float(edges_lo[index]), lo)
    bin_hi = min(float(edges_hi[index]), hi)
    if bin_hi < bin_lo:    # degenerate bin entirely outside [lo, hi]
        bin_lo = bin_hi = min(max(bin_lo, lo), hi)
    return bin_lo + (bin_hi - bin_lo) * fraction


@dataclass(eq=False)
class SimStats:
    """Aggregated results of one trace on one device.

    ``latencies_ns`` accepts any float sequence and is held as a float64
    array; equality compares it element-wise (``np.array_equal``) and
    every other field as the generated dataclass ``__eq__`` would.
    """

    device_name: str
    workload_name: str
    num_requests: int
    num_reads: int
    num_writes: int
    total_bytes: int
    sim_time_ns: float
    busy_time_ns: float
    active_time_ns: float
    latencies_ns: np.ndarray = field(repr=False, default_factory=list)
    op_energy_j: float = 0.0
    refresh_energy_j: float = 0.0
    refresh_count: int = 0
    background_power_w: float = 0.0
    active_power_w: float = 0.0
    row_hits: int = 0
    row_misses: int = 0
    #: Fixed-bin latency summary (see :func:`summarize_latencies`), attached
    #: when the raw samples are absent — archival store entries, trimmed
    #: wire responses.  ``None`` whenever ``latencies_ns`` is populated.
    latency_summary: Optional[Dict[str, Any]] = field(repr=False,
                                                      default=None)

    def __post_init__(self) -> None:
        if self.sim_time_ns <= 0.0:
            raise SimulationError("simulation time must be positive")
        self.latencies_ns = np.asarray(self.latencies_ns, dtype=np.float64)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (_non_sample_fields(self) == _non_sample_fields(other)
                and np.array_equal(self.latencies_ns, other.latencies_ns))

    # -- throughput ---------------------------------------------------------

    @property
    def bandwidth_gbps(self) -> float:
        """Sustained bandwidth in GB/s (bytes / wall time)."""
        return self.total_bytes / self.sim_time_ns

    @property
    def bandwidth_bits_per_ns(self) -> float:
        return self.total_bytes * 8.0 / self.sim_time_ns

    # -- latency ---------------------------------------------------------------

    @property
    def avg_latency_ns(self) -> float:
        if not self.latencies_ns.size:
            if self.latency_summary is not None:
                return float(self.latency_summary["mean_ns"])   # exact
            raise SimulationError("no completed requests")
        return float(np.mean(self.latencies_ns))

    @property
    def p95_latency_ns(self) -> float:
        if not self.latencies_ns.size:
            if self.latency_summary is not None:
                # Histogram estimate (exact mean/extremes, interpolated
                # percentile) — what archival stores serve.
                return summary_percentile(self.latency_summary, 95.0)
            raise SimulationError("no completed requests")
        return float(np.percentile(self.latencies_ns, 95.0))

    @property
    def max_latency_ns(self) -> float:
        if not self.latencies_ns.size:
            if self.latency_summary is not None:
                return float(self.latency_summary["max_ns"])    # exact
            raise SimulationError("no completed requests")
        return float(np.max(self.latencies_ns))

    # -- energy -----------------------------------------------------------------

    @property
    def background_energy_j(self) -> float:
        return self.background_power_w * self.sim_time_ns * 1e-9

    @property
    def active_energy_j(self) -> float:
        return self.active_power_w * self.active_time_ns * 1e-9

    @property
    def total_energy_j(self) -> float:
        return (self.background_energy_j + self.active_energy_j
                + self.op_energy_j + self.refresh_energy_j)

    @property
    def energy_per_bit_pj(self) -> float:
        bits = self.total_bytes * 8
        if bits == 0:
            raise SimulationError("no bits transferred")
        return self.total_energy_j / bits * 1e12

    # -- composite ----------------------------------------------------------------

    @property
    def bw_per_epb(self) -> float:
        """The Fig. 9(c) composite metric: GB/s per pJ/bit."""
        return self.bandwidth_gbps / self.energy_per_bit_pj

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0

    @property
    def utilization(self) -> float:
        """Fraction of wall time the device was serving."""
        return min(self.busy_time_ns / (self.sim_time_ns * 1.0), 1.0)

    def latency_row(self) -> Dict[str, float]:
        """Latency metrics as a dict, NaN when nothing can serve them.

        Table/CSV paths use this instead of the raising properties so a
        cell with neither raw samples nor a latency summary degrades to
        NaN columns rather than crashing a partially printed table.
        Archival entries (summary, no samples) produce real numbers.
        """
        if not self.latencies_ns.size and self.latency_summary is None:
            nan = float("nan")
            return {"avg_latency_ns": nan, "p95_latency_ns": nan,
                    "max_latency_ns": nan}
        return {
            "avg_latency_ns": self.avg_latency_ns,
            "p95_latency_ns": self.p95_latency_ns,
            "max_latency_ns": self.max_latency_ns,
        }

    def as_row(self) -> Dict[str, float]:
        """Flat dict for table printing / CSV (NaN latencies when empty)."""
        latency = self.latency_row()
        return {
            "device": self.device_name,
            "workload": self.workload_name,
            "bandwidth_gbps": self.bandwidth_gbps,
            "avg_latency_ns": latency["avg_latency_ns"],
            "p95_latency_ns": latency["p95_latency_ns"],
            "epb_pj": self.energy_per_bit_pj,
            "bw_per_epb": self.bw_per_epb,
            "row_hit_rate": self.row_hit_rate,
            "utilization": self.utilization,
        }

    # -- serialization ------------------------------------------------------

    def to_dict(self, latencies: bool = True,
                as_list: bool = True) -> Dict[str, Any]:
        """Dict of every field, JSON-serializable unless ``as_list``
        is false.

        ``latencies=False`` drops the raw per-request samples (the bulky
        part) and attaches the fixed-bin latency summary in their place,
        so the restored stats still answer mean/percentile/max queries
        (approximately, for percentiles) instead of reporting NaN.
        ``as_list=False`` leaves the samples (empty without
        ``latencies``) as the float64 array, for encoders that write
        them packed, like the ``/eval`` frame.
        """
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        samples = self.latencies_ns if latencies else self.latencies_ns[:0]
        payload["latencies_ns"] = samples.tolist() if as_list else samples
        if not latencies and self.latencies_ns.size \
                and self.latency_summary is None:
            payload["latency_summary"] = summarize_latencies(
                self.latencies_ns)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SimStats":
        """Inverse of :meth:`to_dict`; unknown keys are ignored.

        Python floats round-trip exactly through ``json`` (repr-based),
        so ``from_dict(json.loads(json.dumps(s.to_dict()))) == s``
        bit-for-bit.  ``latencies_ns`` may also be a float64 array,
        which is kept without a copy.
        """
        known = {f.name for f in fields(cls)}
        return cls(**{key: value for key, value in payload.items()
                      if key in known})


#: Every field but the samples, as one tuple: the generated dataclass
#: ``__eq__`` semantics (identity, then ``==``, per element).
_non_sample_fields = attrgetter(*(f.name for f in fields(SimStats)
                                  if f.name != "latencies_ns"))


def geometric_mean(values: List[float]) -> float:
    """Geomean used for cross-workload averages."""
    arr = np.asarray(values, dtype=float)
    if np.any(arr <= 0.0):
        raise SimulationError("geometric mean needs positive values")
    return float(np.exp(np.mean(np.log(arr))))


def kernel_dispatch_summary(counters: Dict[str, int]) -> Dict[str, Any]:
    """Summarize fast-path dispatch counters into per-class rates.

    ``counters`` is :func:`repro.sim.controller.kernel_counters` (or a
    delta between two snapshots, as the evaluation server reports).
    Terminal outcomes are the ``fast_*`` class hits plus the
    ``fallback_device`` / ``fallback_toolchain`` scalar fallbacks;
    ``fallback_admission`` marks a revert to the global-queue model
    whose cell also lands in a terminal counter, so it stays out of the
    scheduled total.  Schema-driven (classes come from the ``fast_*``
    keys) so it works on any snapshot without importing the controller.
    """
    per_class = {key[len("fast_"):]: value
                 for key, value in counters.items()
                 if key.startswith("fast_")}
    fast = counters.get("fast", sum(per_class.values()))
    scheduled = fast + counters.get("fallback_device", 0) \
        + counters.get("fallback_toolchain", 0)
    return {
        "scheduled": scheduled,
        "fast": fast,
        "hit_rate": (fast / scheduled) if scheduled else 0.0,
        "per_class": per_class,
        "fallbacks": {
            "device": counters.get("fallback_device", 0),
            "toolchain": counters.get("fallback_toolchain", 0),
            "admission_reverts": counters.get("fallback_admission", 0),
        },
    }
