"""Bench the parallel evaluation engine against the legacy serial path.

The legacy baseline is what the seed repo did for every Fig. 9 cell:
materialize the workload trace as request objects (regenerated per
architecture) and push them through the original per-request scalar
controller loop.  The engine replaces that with cached column-store
traces, the vectorized controller and optional process fan-out.

``bench_parallel_eval_speedup`` is the acceptance gate: the full
(7 architectures x 8 workloads) grid with 4 workers must finish at
least 2x faster than the legacy path.  On multi-core hosts the fan-out
adds to the vectorization win; on a single core the vectorization and
trace caching carry the bound on their own.

Runs standalone too::

    python benchmarks/bench_parallel_eval.py [num_requests]
"""

from __future__ import annotations

import sys
import time
from typing import Dict

import numpy as np

from repro.sim.controller import MemoryController
from repro.sim.engine import controller_for, run_evaluation
from repro.sim.factory import ARCHITECTURE_NAMES
from repro.sim.simulator import summarize
from repro.sim.stats import SimStats
from repro.sim.tracegen import SPEC_WORKLOADS, get_workload

NUM_REQUESTS = 3000
WORKERS = 4


def run_legacy_grid(num_requests: int) -> Dict[str, Dict[str, SimStats]]:
    """The seed's evaluation loop: per-cell object traces + scalar loop."""
    results: Dict[str, Dict[str, SimStats]] = {}
    for arch in ARCHITECTURE_NAMES:
        controller = controller_for(arch)
        scalar = MemoryController(controller.device,
                                  queue_depth=controller.queue_depth)
        results[arch] = {}
        for name in sorted(SPEC_WORKLOADS):
            trace = get_workload(name).generate(num_requests, seed=1)
            results[arch][name] = scalar.run_reference(trace, name)
    return results


def compare(num_requests: int = NUM_REQUESTS,
            workers: int = WORKERS) -> Dict[str, float]:
    """Time legacy vs engine on the full SPEC grid; return the numbers."""
    # Device construction (COMET's mode-solver stack) is one-time work
    # shared by both paths; warm it outside the timed regions.
    for arch in ARCHITECTURE_NAMES:
        controller_for(arch)

    start = time.perf_counter()
    legacy = run_legacy_grid(num_requests)
    legacy_s = time.perf_counter() - start

    start = time.perf_counter()
    engine = run_evaluation(num_requests=num_requests, seed=1,
                            workers=workers)
    engine_s = time.perf_counter() - start

    # Same physics: identical schedules (energy sums are re-associated).
    for arch in ARCHITECTURE_NAMES:
        for name in sorted(SPEC_WORKLOADS):
            assert np.array_equal(legacy[arch][name].latencies_ns,
                                  engine[arch][name].latencies_ns), \
                (arch, name)

    return {
        "num_requests": num_requests,
        "workers": workers,
        "legacy_s": legacy_s,
        "engine_s": engine_s,
        "speedup": legacy_s / engine_s,
    }


def bench_parallel_eval_speedup():
    """Acceptance gate: >= 2x on the full grid with 4 workers."""
    result = compare()
    print(f"\n  legacy serial grid : {result['legacy_s']:.2f} s")
    print(f"  engine ({result['workers']} workers)  : "
          f"{result['engine_s']:.2f} s")
    print(f"  speedup            : {result['speedup']:.1f}x")
    assert result["speedup"] >= 2.0, (
        f"parallel engine only {result['speedup']:.2f}x faster than the "
        f"legacy serial path")


def bench_parallel_eval_grid(benchmark):
    """pytest-benchmark timing of the engine on the full SPEC grid."""
    for arch in ARCHITECTURE_NAMES:
        controller_for(arch)
    results = benchmark.pedantic(
        run_evaluation,
        kwargs={"num_requests": NUM_REQUESTS, "seed": 1, "workers": WORKERS},
        rounds=1, iterations=1)
    summary = summarize(results)
    assert summary["COMET"]["bandwidth_gbps"] \
        == max(s["bandwidth_gbps"] for s in summary.values())


def bench_parallel_eval_scenarios(benchmark):
    """Engine throughput on the multi-programmed + phased workloads."""
    names = ("mix_mcf_lbm", "mix_libquantum_omnetpp", "mix_gcc_bwaves",
             "mix_milc_gemsfdtd", "bursty", "checkpoint")
    for arch in ARCHITECTURE_NAMES:
        controller_for(arch)
    results = benchmark.pedantic(
        run_evaluation,
        kwargs={"workloads": names, "num_requests": NUM_REQUESTS,
                "seed": 1, "workers": WORKERS},
        rounds=1, iterations=1)
    summary = summarize(results)
    assert summary["COMET"]["bandwidth_gbps"] \
        == max(s["bandwidth_gbps"] for s in summary.values())


def main() -> None:
    num_requests = int(sys.argv[1]) if len(sys.argv) > 1 else NUM_REQUESTS
    result = compare(num_requests=num_requests)
    print(f"full SPEC grid, {num_requests} requests/cell:")
    print(f"  legacy serial scalar path : {result['legacy_s']:.2f} s")
    print(f"  parallel engine ({result['workers']} workers): "
          f"{result['engine_s']:.2f} s")
    print(f"  speedup: {result['speedup']:.1f}x")


if __name__ == "__main__":
    main()
