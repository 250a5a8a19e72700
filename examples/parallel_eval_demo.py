#!/usr/bin/env python
"""Parallel evaluation engine walkthrough.

Runs the Fig. 9 grid through the vectorized serial path and the
thread-pool path, shows that both produce identical statistics, and
then evaluates the scenario axes the SPEC presets do not cover: the
multi-programmed ``mix_*`` pairs, the phase-change ``bursty`` workload
and the write-heavy ``checkpoint`` workload.

Usage: python examples/parallel_eval_demo.py [num_requests] [workers]
"""

import sys
import time

from repro.sim import (
    ARCHITECTURE_NAMES,
    MIXED_WORKLOADS,
    PHASED_WORKLOADS,
    run_evaluation,
    summarize,
)
from repro.sim.engine import controller_for


def print_summary(summary, architectures) -> None:
    header = f"{'arch':10s} {'BW (GB/s)':>10s} {'latency (ns)':>13s} " \
             f"{'EPB (pJ/b)':>11s}"
    print(header)
    print("-" * len(header))
    for arch in architectures:
        s = summary[arch]
        print(f"{arch:10s} {s['bandwidth_gbps']:10.2f} "
              f"{s['avg_latency_ns']:13.1f} {s['epb_pj']:11.1f}")


def main() -> None:
    num_requests = int(sys.argv[1]) if len(sys.argv) > 1 else 4000
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else 4

    # Device construction (COMET's mode-solver stack) is one-time work;
    # warm it outside the timed region so the comparison is about the
    # evaluation itself.
    for arch in ARCHITECTURE_NAMES:
        controller_for(arch)

    start = time.perf_counter()
    serial = run_evaluation(num_requests=num_requests, workers=1)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_evaluation(num_requests=num_requests, workers=workers)
    parallel_s = time.perf_counter() - start

    identical = serial == parallel
    print(f"SPEC grid ({len(ARCHITECTURE_NAMES)} x 8, "
          f"{num_requests} requests/cell):")
    print(f"  serial      : {serial_s:.2f} s")
    print(f"  {workers} workers   : {parallel_s:.2f} s")
    print(f"  identical results: {identical}\n")
    if not identical:
        raise SystemExit("parallel and serial evaluations diverged")

    print_summary(summarize(serial), ARCHITECTURE_NAMES)

    scenario_names = sorted(MIXED_WORKLOADS) + sorted(PHASED_WORKLOADS)
    scenarios = run_evaluation(
        workloads=scenario_names, num_requests=num_requests, workers=workers)
    print(f"\nMulti-programmed + phased scenarios "
          f"({', '.join(scenario_names)}):")
    print_summary(summarize(scenarios), ARCHITECTURE_NAMES)

    comet = scenarios["COMET"]
    print("\nCOMET per-scenario bandwidth:")
    for name in scenario_names:
        stats = comet[name]
        print(f"  {name:22s} {stats.bandwidth_gbps:7.2f} GB/s   "
              f"avg latency {stats.avg_latency_ns:8.1f} ns")


if __name__ == "__main__":
    main()
