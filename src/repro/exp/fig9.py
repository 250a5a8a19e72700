"""Fig. 9 — bandwidth, EPB and BW/EPB across all architectures.

Runs the full (architecture x workload) grid through the memory simulator
and prints the per-workload series plus the cross-workload geomeans and
the COMET-vs-everything ratios the paper reports.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from ..errors import SimulationError
from ..sim.client import SERVER_ENV_VAR, evaluate_tasks_remote
from ..sim.engine import grid_tasks, run_evaluation
from ..sim.factory import ARCHITECTURE_NAMES
from ..sim.simulator import summarize
from ..sim.stats import SimStats
from ..sim.store import ResultStore
from .report import print_table

#: Environment variable naming a result-store directory; when set,
#: ``python -m repro.exp fig9`` regenerates the figure incrementally
#: (only cells missing from the store are simulated).  When
#: ``$REPRO_EVAL_SERVER`` (see :mod:`repro.sim.client`) is also set —
#: or set alone — the grid is answered by the daemon instead, whose
#: store/LRU make repeated regenerations effectively free.
STORE_ENV_VAR = "REPRO_RESULT_STORE"

#: Paper-reported average ratios (COMET vs each architecture).
PAPER_BW_RATIOS = {
    "2D_DDR3": 100.3, "3D_DDR3": 47.2, "2D_DDR4": 58.7,
    "3D_DDR4": 42.1, "EPCM-MM": 40.6, "COSMOS": 5.1,
}
PAPER_EPB_RATIOS = {"2D_DDR3": 4.1, "2D_DDR4": 2.3, "COSMOS": 12.9}
PAPER_BW_PER_EPB_RATIOS = {"3D_DDR4": 6.5, "COSMOS": 65.8}


@dataclass
class Fig9Result:
    results: Dict[str, Dict[str, SimStats]]
    summary: Dict[str, Dict[str, float]]

    def bw_ratio(self, other: str) -> float:
        return (self.summary["COMET"]["bandwidth_gbps"]
                / self.summary[other]["bandwidth_gbps"])

    def epb_ratio(self, other: str) -> float:
        """How much lower COMET's EPB is than ``other``'s."""
        return (self.summary[other]["epb_pj"]
                / self.summary["COMET"]["epb_pj"])

    def latency_ratio(self, other: str) -> float:
        return (self.summary[other]["avg_latency_ns"]
                / self.summary["COMET"]["avg_latency_ns"])

    def bw_per_epb_ratio(self, other: str) -> float:
        return (self.summary["COMET"]["bw_per_epb"]
                / self.summary[other]["bw_per_epb"])


def run(num_requests: int = 8000, seed: int = 1,
        workers: Optional[int] = None,
        workloads: Optional[Iterable[str]] = None,
        store: Optional[Union[str, Path, ResultStore]] = None,
        resume: bool = True,
        server: Optional[str] = None) -> Fig9Result:
    """Run the grid; ``workers`` > 1 fans it out over threads and
    ``workloads`` swaps in a non-default set (e.g. the multi-programmed
    mixes) without changing the reported metrics.

    ``store`` (a directory path or :class:`ResultStore`) makes the run
    incremental: cells already stored are reused, new cells are
    checkpointed, so figure regeneration after a model change only
    recomputes the invalidated architectures.

    ``server`` (an evaluation-daemon address, see
    :mod:`repro.sim.client`) answers the grid remotely instead: the
    daemon's store read-through, coalescing and LRU do the caching, and
    the returned stats are bit-identical to a local run.  ``workers``
    and ``store`` are the daemon's concern in that mode.
    """
    if server is not None:
        tasks = grid_tasks(num_requests=num_requests, seed=seed,
                           workloads=workloads)
        lookup = evaluate_tasks_remote(tasks, server)
        results: Dict[str, Dict[str, SimStats]] = {
            arch: {} for arch in ARCHITECTURE_NAMES}
        for task in tasks:
            results[task.architecture][task.workload] = lookup[task]
        return Fig9Result(results=results, summary=summarize(results))
    if store is not None and not isinstance(store, ResultStore):
        store = ResultStore(store)
    results = run_evaluation(num_requests=num_requests, seed=seed,
                             workers=workers, workloads=workloads,
                             store=store, resume=resume)
    return Fig9Result(results=results, summary=summarize(results))


def main(num_requests: int = 8000,
         store: Optional[Union[str, Path, ResultStore]] = None,
         server: Optional[str] = None) -> Fig9Result:
    if server is None:
        server = os.environ.get(SERVER_ENV_VAR) or None
    if server is not None:
        # A running daemon answers the whole grid; its store (if any)
        # makes the regeneration incremental server-side.
        try:
            result = run(num_requests=num_requests, server=server)
        except (SimulationError, OSError) as error:
            # OSError covers raw transport failures (connection refused,
            # reset, dead unix socket) that escape the client's own
            # wrapping — the daemon dying mid-request must be the same
            # clean exit as a structured server error, not a traceback.
            print(f"fig9: evaluation server {server!r} failed: {error}",
                  file=sys.stderr)
            raise SystemExit(2)
        return _print_report(result)
    if store is None:
        store = os.environ.get(STORE_ENV_VAR) or None
    if store is not None and not isinstance(store, ResultStore):
        try:
            store = ResultStore(store)
        except (OSError, SimulationError) as error:
            # Entry point advertised via $REPRO_RESULT_STORE: fail with
            # a clean message, not a raw mkdir traceback.
            print(f"fig9: result store {str(store)!r} unusable: {error}",
                  file=sys.stderr)
            raise SystemExit(2)
    result = run(num_requests=num_requests, store=store)
    return _print_report(result)


def _print_report(result: Fig9Result) -> Fig9Result:
    workloads = sorted(next(iter(result.results.values())))
    for metric, fmt in (("bandwidth_gbps", "{:.2f}"),
                        ("energy_per_bit_pj", "{:.1f}"),
                        ("bw_per_epb", "{:.4f}")):
        rows: List[list] = []
        for arch in ARCHITECTURE_NAMES:
            row = [arch]
            for workload in workloads:
                stats = result.results[arch][workload]
                row.append(fmt.format(getattr(stats, metric)))
            rows.append(row)
        print_table(["arch"] + workloads, rows,
                    title=f"Fig. 9 — {metric} per workload")

    rows = []
    for arch in ARCHITECTURE_NAMES:
        s = result.summary[arch]
        rows.append([arch, f"{s['bandwidth_gbps']:.2f}",
                     f"{s['avg_latency_ns']:.1f}", f"{s['epb_pj']:.1f}",
                     f"{s['bw_per_epb']:.4f}"])
    print_table(["arch", "BW (GB/s)", "latency (ns)", "EPB (pJ/b)",
                 "BW/EPB"], rows, title="Fig. 9 — geomean summary")

    print("COMET ratios (measured | paper):")
    for other, paper in PAPER_BW_RATIOS.items():
        print(f"  BW vs {other:8s}: {result.bw_ratio(other):6.1f}x | {paper:.1f}x")
    for other, paper in PAPER_EPB_RATIOS.items():
        print(f"  EPB vs {other:8s}: {result.epb_ratio(other):6.1f}x | {paper:.1f}x")
    for other, paper in PAPER_BW_PER_EPB_RATIOS.items():
        print(f"  BW/EPB vs {other:8s}: {result.bw_per_epb_ratio(other):6.1f}x | {paper:.1f}x")
    print()
    return result


if __name__ == "__main__":
    main()
