"""Bench the compiled scheduler twin against its Python mirror.

Four acceptance gates ride this file, each timing the shipping
``run_arrays()`` (one compiled call per cell) against
``run_arrays(fast=False)`` (the Python mirror of the same algorithm,
which is also the toolchain-free fallback):

* **Kernel gate** — on the COMET SPEC cells (contention-free, per-bank
  queues) at ``KERNEL_N`` = 65536 requests per cell, the twin must be
  >= 5x faster than the mirror while returning identical stats (the
  numbers at 20480 requests are reported alongside).
* **Refresh gate** — the same on the SPEC cells of the four DRAM
  architectures, whose shared-bus FIFO pushes starts out of refresh
  windows: identical stats and the twin >= 25x faster than the mirror.
* **Cold-grid gate** — the cold full-SPEC Fig. 9 grid (device builds
  and traces paid up front, best of three passes per architecture):
  the whole grid must come out >= 3x faster than the mirror, its
  *photonic half* (COMET + COSMOS cells, the cells the paper's
  architecture arguments are about) >= 1.5x, with every cell a
  compiled hit (hit rate 1.0).
* **Pool gate** — the warm full grid (every registered architecture x
  SPEC workload) through the engine's thread pool must be bit-identical
  to serial, at least match fork-pool throughput, and run at a 100%
  compiled hit rate (every cell counted ``fast``).

``main()`` (or the ``BENCH_KERNEL_JSON`` env var under pytest) writes
``BENCH_kernel.json`` — wall times, speedups, per-class hit rates and
fallbacks — which CI archives and gates against the committed reference
copy (hit-rate regression).

Runs standalone::

    python benchmarks/bench_controller_kernel.py [--json BENCH_kernel.json]
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict

from repro.sim import _fastloop
from repro.sim import controller as controller_mod
from repro.sim.engine import controller_for, run_evaluation
from repro.sim.factory import ARCHITECTURE_NAMES, known_architectures
from repro.sim.stats import kernel_dispatch_summary
from repro.sim.tracegen import SPEC_WORKLOADS, cached_trace_arrays

#: Gate operating point for the kernel gate and the comparison point
#: reported alongside.
KERNEL_N = 65536
KERNEL_N_SMALL = 20480

#: Cold-grid operating point (the full-size Fig. 9 cell).
GRID_N = 20000

#: The refresh gate's architectures: Fig. 9's DRAM main memories.
DRAM = ("2D_DDR3", "2D_DDR4", "3D_DDR3", "3D_DDR4")

PHOTONIC = ("COMET", "COSMOS")


def _timeit(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _require_twin() -> None:
    assert _fastloop.available(), (
        "the compiled twin did not load (no C toolchain, or "
        "REPRO_FASTLOOP=0): these gates measure it against the mirror")


def measure_twin(n: int, repeats: int = 3,
                 archs=("COMET",)) -> Dict[str, object]:
    """Twin vs mirror on the SPEC cells of ``archs``, stats checked
    equal."""
    _require_twin()
    mirror_s = 0.0
    twin_s = 0.0
    for arch in archs:
        controller = controller_for(arch)
        for name in sorted(SPEC_WORKLOADS):
            trace = cached_trace_arrays(name, n, 1)
            # The first pass of each path also pays page faults on the
            # fresh trace arrays; it doubles as the bit-identity check.
            fast = controller.run_arrays(trace, workload_name=name)
            slow = controller.run_arrays(trace, workload_name=name,
                                         fast=False)
            assert fast.to_dict() == slow.to_dict(), (arch, name, n)
            twin_s += _timeit(lambda: controller.run_arrays(trace), repeats)
            mirror_s += _timeit(
                lambda: controller.run_arrays(trace, fast=False), repeats)
    return {"n": n, "archs": list(archs), "mirror_s": mirror_s,
            "twin_s": twin_s, "speedup": mirror_s / twin_s}


def measure_cold_grid(n: int = GRID_N, repeats: int = 3) -> Dict[str, object]:
    """Cold full-SPEC grid: the twin vs the mirror, per architecture.

    Per-architecture timings take the best of ``repeats`` passes —
    single-pass wall times on shared CI runners are noisy enough to
    wobble the photonic ratio across its gate.
    """
    _require_twin()
    for arch in ARCHITECTURE_NAMES:
        controller_for(arch)          # device builds are one-time work
    names = sorted(SPEC_WORKLOADS)
    for name in names:
        cached_trace_arrays(name, n, 1)

    def grid_pass(controller, fast):
        for name in names:
            controller.run_arrays(cached_trace_arrays(name, n, 1),
                                  workload_name=name, fast=fast)

    mirror_total = mirror_photonic = 0.0
    twin_total = twin_photonic = 0.0
    controller_mod.reset_kernel_counters()
    for arch in ARCHITECTURE_NAMES:
        controller = controller_for(arch)
        mirror_s = _timeit(lambda: grid_pass(controller, False), repeats)
        twin_s = _timeit(lambda: grid_pass(controller, True), repeats)
        mirror_total += mirror_s
        twin_total += twin_s
        if arch in PHOTONIC:
            mirror_photonic += mirror_s
            twin_photonic += twin_s
    summary = kernel_dispatch_summary(controller_mod.kernel_counters())

    # The full engine pass (trace plane + persistent pool ride along
    # under fan-out; serially this adds only engine bookkeeping).
    t0 = time.perf_counter()
    run_evaluation(num_requests=n, seed=1)
    engine_s = time.perf_counter() - t0

    return {
        "n": n,
        "cells": len(ARCHITECTURE_NAMES) * len(names),
        "mirror_s": mirror_total,
        "twin_s": twin_total,
        "grid_speedup": mirror_total / twin_total,
        "mirror_photonic_s": mirror_photonic,
        "twin_photonic_s": twin_photonic,
        "photonic_speedup": mirror_photonic / twin_photonic,
        "engine_cold_grid_s": engine_s,
        "hit_rate": summary["hit_rate"],
        # _timeit ran `repeats` twin passes; report one grid's worth.
        "per_class": {name: count // repeats
                      for name, count in summary["per_class"].items()},
        "fallbacks": {name: count // repeats
                      for name, count in summary["fallbacks"].items()},
    }


def measure_pool_grid(n: int = GRID_N, repeats: int = 3,
                      workers: int = 2) -> Dict[str, object]:
    """Warm full grid (every registered architecture x SPEC workload)
    through the engine's pool abstraction: threads vs fork.

    Warm means device builds, trace generation and twin compilation are
    paid before the timers start, so the ratio isolates the execution
    plane itself — in-process thread submits against fork's pickling,
    IPC and trace-plane publication.  Bit-identity of the full stats
    against a serial pass is asserted for both pools on every cell,
    and the compiled hits (``fast``) must cover the grid.
    """
    archs = known_architectures()
    names = sorted(SPEC_WORKLOADS)
    kwargs = dict(architectures=archs, workloads=names,
                  num_requests=n, seed=1)
    for arch in archs:
        controller_for(arch)          # device builds are one-time work
    for name in names:
        cached_trace_arrays(name, n, 1)
    serial = run_evaluation(workers=1, pool="serial", **kwargs)

    times: Dict[str, float] = {}
    for pool in ("threads", "fork"):
        # Warm pass builds the pool (fork additionally publishes the
        # trace plane) and checks bit-identity against serial.
        warm = run_evaluation(workers=workers, pool=pool, **kwargs)
        for arch in archs:
            for name in names:
                assert warm[arch][name].to_dict() \
                    == serial[arch][name].to_dict(), (pool, arch, name)
        times[pool] = _timeit(
            lambda: run_evaluation(workers=workers, pool=pool, **kwargs),
            repeats)

    controller_mod.reset_kernel_counters()
    run_evaluation(workers=workers, pool="threads", **kwargs)
    compiled = controller_mod.kernel_counters()["fast"]
    cells = len(archs) * len(names)
    return {
        "n": n,
        "cells": cells,
        "workers": workers,
        "threads_s": times["threads"],
        "fork_s": times["fork"],
        "threads_over_fork": times["fork"] / times["threads"],
        "compiled_dispatches": compiled,
        "compiled_hit_rate": compiled / cells,
    }


def _emit_json(payload: Dict[str, object], path: str) -> None:
    # Merge into an existing report: pytest runs each gate as its own
    # item, and every gate contributes its own top-level key.
    merged: Dict[str, object] = {}
    try:
        with open(path) as stream:
            merged = json.load(stream)
    except (OSError, ValueError):
        pass
    merged.update(payload)
    with open(path, "w") as stream:
        json.dump(merged, stream, indent=2)
        stream.write("\n")


def _maybe_emit(payload: Dict[str, object]) -> None:
    path = os.environ.get("BENCH_KERNEL_JSON")
    if path:
        _emit_json(payload, path)


#: Wall-clock gates retry a few times: these containers / CI runners
#: share CPU, and a background burst during one side of a comparison
#: wobbles the ratio.  The gate asserts the capability (the best clean
#: measurement), not one contended sample.
GATE_ATTEMPTS = 3


def _best_attempt(measure, key: str, passes) -> Dict[str, object]:
    """The run with the largest ``key`` over up to ``GATE_ATTEMPTS``
    calls of ``measure``, stopping at the first that ``passes``."""
    best = None
    for _attempt in range(GATE_ATTEMPTS):
        run = measure()
        if best is None or run[key] > best[key]:
            best = run
        if passes(best):
            break
    return best


def bench_kernel_speedup():
    """Acceptance gate: twin >= 5x over the mirror on COMET cells."""
    best = _best_attempt(lambda: measure_twin(KERNEL_N), "speedup",
                         lambda run: run["speedup"] >= 5.0)
    at_small = measure_twin(KERNEL_N_SMALL, repeats=2)
    for run in (best, at_small):
        print(f"\n  n={run['n']}: mirror {run['mirror_s']*1e3:7.1f} ms, "
              f"twin {run['twin_s']*1e3:6.1f} ms -> {run['speedup']:.1f}x",
              end="")
    print()
    _maybe_emit({"kernel": best, "kernel_small": at_small})
    assert best["speedup"] >= 5.0, (
        f"twin only {best['speedup']:.2f}x over the mirror "
        f"at n={best['n']}")


def bench_refresh_speedup():
    """Acceptance gate: twin >= 25x over the mirror on the DRAM cells,
    refresh windows included."""
    best = _best_attempt(lambda: measure_twin(KERNEL_N, archs=DRAM),
                         "speedup", lambda run: run["speedup"] >= 25.0)
    print(f"\n  DRAM n={best['n']}: mirror {best['mirror_s']*1e3:7.1f} ms, "
          f"twin {best['twin_s']*1e3:6.1f} ms -> {best['speedup']:.1f}x")
    _maybe_emit({"refresh": best})
    assert best["speedup"] >= 25.0, (
        f"twin only {best['speedup']:.2f}x over the mirror on the DRAM "
        f"cells at n={best['n']}")


def bench_cold_grid_speedup():
    """Acceptance gate: cold grid vs the mirror (whole grid >= 3x,
    photonic half >= 1.5x, every cell a compiled hit)."""
    grid = _best_attempt(
        measure_cold_grid, "grid_speedup",
        lambda run: run["grid_speedup"] >= 3.0
        and run["photonic_speedup"] >= 1.5)
    classes = ", ".join(f"{name} {count}" for name, count
                        in sorted(grid["per_class"].items()))
    print(f"\n  cold full-SPEC grid (n={grid['n']}, {grid['cells']} cells)")
    print(f"  mirror       : {grid['mirror_s']:.2f} s "
          f"(photonic half {grid['mirror_photonic_s']:.2f} s)")
    print(f"  twin         : {grid['twin_s']:.2f} s "
          f"(photonic half {grid['twin_photonic_s']:.2f} s)")
    print(f"  speedup      : {grid['grid_speedup']:.2f}x grid, "
          f"{grid['photonic_speedup']:.2f}x photonic half")
    print(f"  fast path    : hit rate {grid['hit_rate']:.0%} ({classes})")
    print(f"  engine cold grid wall time: {grid['engine_cold_grid_s']:.2f} s")
    _maybe_emit({"cold_grid": grid})
    assert grid["grid_speedup"] >= 3.0, (
        f"whole grid only {grid['grid_speedup']:.2f}x over the mirror")
    assert grid["photonic_speedup"] >= 1.5, (
        f"photonic half only {grid['photonic_speedup']:.2f}x over the "
        f"mirror")
    assert grid["hit_rate"] == 1.0, (
        f"fast-path hit rate {grid['hit_rate']:.2f} < 1.0 on the Fig. 9 "
        f"grid (fallbacks: {grid['fallbacks']})")


def bench_pool_throughput():
    """Acceptance gate: thread pool >= fork pool on the warm full grid
    (bit-identity is asserted inside the measurement), 100% compiled."""
    best = _best_attempt(measure_pool_grid, "threads_over_fork",
                         lambda run: run["threads_over_fork"] >= 1.0)
    print(f"\n  warm full grid (n={best['n']}, {best['cells']} cells, "
          f"{best['workers']} workers)")
    print(f"  fork pool    : {best['fork_s']:.2f} s")
    print(f"  thread pool  : {best['threads_s']:.2f} s "
          f"-> {best['threads_over_fork']:.2f}x")
    print(f"  compiled     : {best['compiled_dispatches']}/{best['cells']} "
          f"cells ({best['compiled_hit_rate']:.0%})")
    _maybe_emit({"pool_grid": best})
    assert best["threads_over_fork"] >= 1.0, (
        f"thread pool only {best['threads_over_fork']:.2f}x of fork-pool "
        f"throughput on the warm grid")
    assert best["compiled_hit_rate"] == 1.0, (
        f"compiled-kernel hit rate {best['compiled_hit_rate']:.2f} < 1.0 "
        f"on the warm full grid")


def main() -> None:
    json_path = None
    argv = sys.argv[1:]
    if argv[:1] == ["--json"]:
        json_path = argv[1] if len(argv) > 1 else "BENCH_kernel.json"
    kernel = measure_twin(KERNEL_N)
    kernel_small = measure_twin(KERNEL_N_SMALL, repeats=2)
    refresh = measure_twin(KERNEL_N, archs=DRAM)
    grid = measure_cold_grid()
    pool = measure_pool_grid()
    print(f"compiled twin vs Python mirror (COMET SPEC cells):")
    print(f"  n={kernel['n']}: {kernel['speedup']:.1f}x "
          f"({kernel['mirror_s']*1e3:.0f} ms -> {kernel['twin_s']*1e3:.0f} ms)")
    print(f"  n={kernel_small['n']}: {kernel_small['speedup']:.1f}x")
    print(f"compiled twin vs Python mirror (DRAM SPEC cells, refresh):")
    print(f"  n={refresh['n']}: {refresh['speedup']:.1f}x "
          f"({refresh['mirror_s']*1e3:.0f} ms -> "
          f"{refresh['twin_s']*1e3:.0f} ms)")
    print(f"cold full-SPEC grid (n={grid['n']}):")
    print(f"  mirror {grid['mirror_s']:.2f} s -> twin {grid['twin_s']:.2f} s "
          f"({grid['grid_speedup']:.2f}x; photonic half "
          f"{grid['photonic_speedup']:.2f}x)")
    print(f"  fast-path hit rate {grid['hit_rate']:.0%}, "
          f"engine wall time {grid['engine_cold_grid_s']:.2f} s")
    print(f"warm full grid, thread vs fork pool (n={pool['n']}, "
          f"{pool['cells']} cells):")
    print(f"  fork {pool['fork_s']:.2f} s -> threads {pool['threads_s']:.2f} "
          f"s ({pool['threads_over_fork']:.2f}x; compiled hit rate "
          f"{pool['compiled_hit_rate']:.0%})")
    if json_path:
        _emit_json({"kernel": kernel, "kernel_small": kernel_small,
                    "refresh": refresh, "cold_grid": grid,
                    "pool_grid": pool}, json_path)
        print(f"wrote {json_path}")


if __name__ == "__main__":
    main()
