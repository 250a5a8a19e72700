"""Resumable, sharded parameter sweeps over the evaluation grid.

Where :func:`repro.sim.engine.run_evaluation` runs the fixed Fig. 9
(architecture x workload) grid, a :class:`SweepSpec` names an arbitrary
parameter grid — architectures x workloads x request counts x seeds x
queue-depth overrides — and :func:`run_sweep` executes it the way large
DSE studies do:

* cells already present in the :class:`~repro.sim.store.ResultStore`
  are skipped (``resume=True``),
* missing cells are fanned out workload-major over the engine's
  thread pool,
* every result is checkpointed to the store the moment it arrives, so
  an interrupted sweep resumes exactly where it stopped and the final
  results are bit-identical to an uninterrupted serial run.

``rows()`` / :func:`write_csv` / :func:`write_json` flatten a finished
sweep for export.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import IO, Dict, List, Optional, Sequence, Tuple

from ..errors import SimulationError, TraceError
from .engine import EvalTask, ResultCallback, evaluate_tasks
from .factory import ARCHITECTURE_NAMES, known_architectures
from .stats import SimStats
from .store import ResultStore
from .tracegen import SPEC_WORKLOADS, get_workload

#: Column order of one exported sweep row: the task axes, then metrics.
ROW_FIELDS: Tuple[str, ...] = (
    "architecture", "workload", "num_requests", "seed", "queue_depth",
    "bandwidth_gbps", "avg_latency_ns", "p95_latency_ns", "epb_pj",
    "bw_per_epb", "row_hit_rate", "utilization",
)


@dataclass(frozen=True)
class SweepSpec:
    """An arbitrary parameter grid, axes crossed in deterministic order.

    ``queue_depths`` entries override the controller transaction queue
    (``None`` = the architecture's per-channel default), which is the
    queue-depth ablation axis.
    """

    architectures: Tuple[str, ...] = ARCHITECTURE_NAMES
    workloads: Tuple[str, ...] = field(
        default_factory=lambda: tuple(sorted(SPEC_WORKLOADS)))
    num_requests: Tuple[int, ...] = (20_000,)
    seeds: Tuple[int, ...] = (1,)
    queue_depths: Tuple[Optional[int], ...] = (None,)

    def __post_init__(self) -> None:
        for axis in ("architectures", "workloads", "num_requests",
                     "seeds", "queue_depths"):
            values = tuple(getattr(self, axis))
            if not values:
                raise SimulationError(f"sweep axis {axis!r} is empty")
            if len(set(values)) != len(values):
                # Duplicates would compute identical cells repeatedly
                # and double-count store hits — almost certainly a typo.
                raise SimulationError(
                    f"sweep axis {axis!r} has duplicate values: {values}")
            object.__setattr__(self, axis, values)
        for arch in self.architectures:
            if arch not in known_architectures():
                raise SimulationError(
                    f"unknown architecture {arch!r}; "
                    f"known: {known_architectures()}")
        for name in self.workloads:
            try:
                get_workload(name)
            except TraceError as error:
                raise SimulationError(str(error)) from None
        for n in self.num_requests:
            if n < 1:
                raise SimulationError("request counts must be >= 1")
        for seed in self.seeds:
            if not 0 <= seed < 2 ** 32:
                # numpy's RandomState range — fail at spec construction,
                # not inside a pool worker mid-sweep.
                raise SimulationError("seeds must be in [0, 2**32)")
        for depth in self.queue_depths:
            if depth is not None and depth < 1:
                raise SimulationError("queue depth override must be >= 1")

    @property
    def num_cells(self) -> int:
        return (len(self.architectures) * len(self.workloads)
                * len(self.num_requests) * len(self.seeds)
                * len(self.queue_depths))

    def tasks(self) -> List[EvalTask]:
        """All grid cells, workload-major within each outer combination
        (one shard reuses one cached trace across all architectures)."""
        return [
            EvalTask(arch, workload, n, seed, depth)
            for n in self.num_requests
            for seed in self.seeds
            for depth in self.queue_depths
            for workload in self.workloads
            for arch in self.architectures
        ]

    # -- wire format --------------------------------------------------------

    _AXES = ("architectures", "workloads", "num_requests", "seeds",
             "queue_depths")

    def to_dict(self) -> Dict[str, list]:
        """JSON-serializable axes (inverse of :meth:`from_dict`)."""
        return {axis: list(getattr(self, axis)) for axis in self._AXES}

    @classmethod
    def from_dict(cls, payload: object) -> "SweepSpec":
        """Validated spec from an untrusted wire payload.

        Part of the evaluation service's trust boundary: axis names are
        checked, scalars are accepted as one-element axes, and every
        value must already be JSON-native (no tuples-as-strings) —
        anything else raises :class:`SimulationError` before a single
        cell is expanded.  Omitted axes keep the dataclass defaults, so
        ``{"workloads": ["gcc"]}`` names the full architecture set on
        one workload.  ``__post_init__`` then applies the same
        validation a locally constructed spec gets.
        """
        if not isinstance(payload, dict):
            raise SimulationError(
                f"sweep must be a JSON object, got {type(payload).__name__}")
        unknown = sorted(set(payload) - set(cls._AXES))
        if unknown:
            raise SimulationError(
                f"unknown sweep axes {unknown}; known: {list(cls._AXES)}")
        name_axes = {"architectures", "workloads"}
        kwargs = {}
        for axis in cls._AXES:
            if axis not in payload:
                continue
            values = payload[axis]
            if isinstance(values, (str, int)) and not isinstance(values, bool):
                values = [values]    # scalar convenience: one-element axis
            if not isinstance(values, list):
                raise SimulationError(
                    f"sweep axis {axis!r} must be a list, got {values!r}")
            for value in values:
                if axis in name_axes:
                    valid = isinstance(value, str)
                elif axis == "queue_depths":
                    valid = value is None or (isinstance(value, int)
                                              and not isinstance(value, bool))
                else:
                    valid = isinstance(value, int) \
                        and not isinstance(value, bool)
                if not valid:
                    expected = "a string" if axis in name_axes else (
                        "an integer or null" if axis == "queue_depths"
                        else "an integer")
                    raise SimulationError(
                        f"sweep axis {axis!r} value {value!r} must be "
                        f"{expected}")
            kwargs[axis] = tuple(values)
        return cls(**kwargs)


@dataclass
class SweepResult:
    """A finished (or resumed) sweep: results plus provenance counts."""

    spec: SweepSpec
    results: Dict[EvalTask, SimStats]
    store_hits: int
    computed: int

    def rows(self) -> List[Dict[str, object]]:
        """Flat export rows in sweep order (NaN latencies kept)."""
        flattened = []
        for task in self.spec.tasks():
            stats = self.results[task]
            metrics = stats.as_row()
            row: Dict[str, object] = {
                "architecture": task.architecture,
                "workload": task.workload,
                "num_requests": task.num_requests,
                "seed": task.seed,
                "queue_depth": task.queue_depth,
            }
            for key in ROW_FIELDS:
                if key not in row:
                    row[key] = metrics[key]
            flattened.append(row)
        return flattened


def run_sweep(
    spec: SweepSpec,
    store: Optional[ResultStore] = None,
    workers: Optional[int] = None,
    resume: bool = True,
    on_result: Optional[ResultCallback] = None,
    store_latencies: bool = True,
) -> SweepResult:
    """Execute a sweep with store read-through and incremental writes.

    Cells already in ``store`` (by content digest) are served from disk
    when ``resume`` is true; the rest are fanned out over ``workers``
    pool threads (``0`` = one per CPU) and checkpointed as they
    complete.
    Interrupt it anywhere — a rerun with the same spec and store picks
    up the surviving cells and produces bit-identical final results.

    ``store_latencies=False`` checkpoints archival entries: no raw
    per-request samples, an order of magnitude less disk for large
    DSE grids, with export percentiles served from the store's
    fixed-bin latency histograms instead of the samples.
    """
    tasks = spec.tasks()
    computed_cells = 0

    def count(task: EvalTask, stats: SimStats) -> None:
        nonlocal computed_cells
        computed_cells += 1
        if on_result is not None:
            on_result(task, stats)

    results = evaluate_tasks(
        tasks, workers=workers, store=store, resume=resume,
        on_result=count, store_latencies=store_latencies)
    return SweepResult(spec=spec, results=results,
                       store_hits=len(tasks) - computed_cells,
                       computed=computed_cells)


# -- export -----------------------------------------------------------------


def write_csv(rows: Sequence[Dict[str, object]], stream: IO[str]) -> None:
    """CSV export (header + one line per cell; NaN prints as ``nan``)."""
    writer = csv.DictWriter(stream, fieldnames=list(ROW_FIELDS))
    writer.writeheader()
    for row in rows:
        writer.writerow(row)


def write_json(rows: Sequence[Dict[str, object]], stream: IO[str]) -> None:
    """JSON export: a list of row objects, strictly RFC 8259.

    NaN metrics (cells carrying neither latency samples nor a fixed-bin
    latency summary) become ``null`` — ``json.dump``'s default would
    emit the bare ``NaN`` token, which standard parsers reject.
    """
    def jsonable(value: object) -> object:
        if isinstance(value, float) and math.isnan(value):
            return None
        return value

    json.dump([{key: jsonable(value) for key, value in row.items()}
               for row in rows], stream, indent=2, allow_nan=False)
    stream.write("\n")
