"""Helpers shared by the benchmark entry point and its child processes.

Importing this module puts the checkout's ``src`` directory first on
``sys.path``, so every benchmark process measures the code of the
checkout it runs from.
"""

from __future__ import annotations

import hashlib
import math
import os
import pickle
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, Mapping, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def clean_environ() -> None:
    """Remove ``REPRO_*`` variables from this process's environment, so
    that each layer runs with its defaults (pool kind, worker count,
    twin cache inside the checkout, no default server) whatever the
    caller's shell sets.  Processes started afterwards inherit this."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]


def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts."""
    return {**os.environ, "PYTHONPATH": str(SRC)}


def task_key(task: Any) -> str:
    return (f"{task.architecture}|{task.workload}|{task.num_requests}|"
            f"{task.seed}|{task.queue_depth}")


def cell_digest(stats: Any) -> str:
    """Digest of ``stats.to_dict()``: equal digests mean bit-identical
    stats (pickle stores floats as their 8 raw bytes)."""
    return hashlib.sha256(
        pickle.dumps(stats.to_dict(), protocol=4)).hexdigest()


def perturb(stats: Any) -> Any:
    """``stats`` with ``sim_time_ns`` one ulp larger: the smallest change
    the correctness check must catch."""
    import dataclasses

    return dataclasses.replace(
        stats, sim_time_ns=stats.sim_time_ns * (1 + 2 ** -52))


def results_digest(digests: Mapping[str, str]) -> str:
    """One digest over ``{task key: cell digest}``, order-independent."""
    lines = "\n".join(f"{key} {digests[key]}" for key in sorted(digests))
    return hashlib.sha256(lines.encode()).hexdigest()[:16]


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def fig9_accuracy(cells: Iterable[Tuple[Any, Any]]) -> Tuple[float, bool]:
    """``(fig9_log_err, COMET has the highest geomean bandwidth)``.

    ``cells`` are ``(task, stats)`` pairs covering the Fig. 9 grid (the
    seven architectures on the eight SPEC workloads at one seed).  The
    error is the mean of ``|ln(measured / paper)|`` over the eleven
    COMET ratios the paper reports.
    """
    from repro.exp import fig9
    from repro.sim.factory import ARCHITECTURE_NAMES
    from repro.sim.simulator import summarize

    results: Dict[str, Dict[str, Any]] = {arch: {}
                                          for arch in ARCHITECTURE_NAMES}
    for task, stats in cells:
        results[task.architecture][task.workload] = stats
    result = fig9.Fig9Result(results=results, summary=summarize(results))
    errors = [abs(math.log(result.bw_ratio(other) / paper))
              for other, paper in fig9.PAPER_BW_RATIOS.items()]
    errors += [abs(math.log(result.epb_ratio(other) / paper))
               for other, paper in fig9.PAPER_EPB_RATIOS.items()]
    errors += [abs(math.log(result.bw_per_epb_ratio(other) / paper))
               for other, paper in fig9.PAPER_BW_PER_EPB_RATIOS.items()]
    best = max(result.summary,
               key=lambda arch: result.summary[arch]["bandwidth_gbps"])
    return sum(errors) / len(errors), best == "COMET"
