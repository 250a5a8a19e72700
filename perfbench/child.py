"""Fresh-process measurements for the benchmark entry point (``run.py``).

Each mode runs in a new interpreter, so the import and the device
builds it times are paid the way a user's first command pays them.  The
result is printed as one JSON line on standard output.

    python3 perfbench/child.py prepare
    python3 perfbench/child.py cold SEED REQUESTS [--trace] [--inject-mismatch]
    python3 perfbench/child.py warm-setup
    python3 perfbench/child.py scipy
"""

from __future__ import annotations

import json
import os
import sys
import time

import benchlib


def prepare() -> dict:
    """Compile bytecode and the scheduler twin before anything is timed:
    a checkout pays both once, not on every run."""
    import repro.sim.engine  # noqa: F401
    from repro.sim import _fastloop

    return {"twin": _fastloop.available()}


def cold(seed: int, num_requests: int, trace: bool, inject: bool) -> dict:
    """The Fig. 9 grid as ``python -m repro.sim --grid`` computes it:
    serial, no store, engine defaults."""
    t0 = time.perf_counter()
    import repro.sim.engine as engine
    t1 = time.perf_counter()
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.record("import.repro_sim_engine", t0, t1)
        spans.install(tracer)
        tracer.start()
    from repro.sim.controller import kernel_counters

    tasks = engine.grid_tasks(num_requests=num_requests, seed=seed)
    finished = []
    g0 = time.perf_counter()
    results = engine.evaluate_tasks(
        tasks, on_result=lambda task, stats: finished.append(
            time.perf_counter()))
    g1 = time.perf_counter()
    if tracer is not None:
        tracer.stop()
    fig9_log_err, comet_best = benchlib.fig9_accuracy(results.items())
    digests = {}
    for task, stats in results.items():
        if inject:
            stats, inject = benchlib.perturb(stats), False
        digests[benchlib.task_key(task)] = benchlib.cell_digest(stats)
    out = {
        "setup_s": t1 - t0,
        "grid_s": g1 - g0,
        "latencies": [t - g0 for t in finished],
        "requests": sum(task.num_requests for task in tasks),
        "digests": digests,
        "fig9_log_err": fig9_log_err,
        "comet_best": comet_best,
        "rss_mb": benchlib.vm_hwm_mb(os.getpid()),
        "pid": os.getpid(),
        "start": t0,
        "end": g1,
        "kernel": kernel_counters(),
    }
    if tracer is not None:
        for span in tracer.spans:
            span["phase"] = "pass" if span["t0"] >= g0 else "setup"
        out["spans"] = tracer.spans
    return out


def warm_setup() -> dict:
    """The warm engine's set-up: import, every device build, twin load."""
    t0 = time.perf_counter()
    import repro.sim.engine as engine
    from repro.sim import _fastloop
    from repro.sim.factory import known_architectures

    for arch in known_architectures():
        engine.device_for(arch)
    _fastloop.available()
    return {"setup_s": time.perf_counter() - t0}


def scipy_import() -> dict:
    """``import scipy.optimize`` alone, after numpy (which ``repro``
    needs anyway)."""
    import numpy  # noqa: F401

    t0 = time.perf_counter()
    import scipy.optimize  # noqa: F401
    return {"seconds": time.perf_counter() - t0}


def main(argv: list) -> int:
    mode = argv[0]
    if mode == "prepare":
        out = prepare()
    elif mode == "cold":
        out = cold(int(argv[1]), int(argv[2]), "--trace" in argv,
                   "--inject-mismatch" in argv)
    elif mode == "warm-setup":
        out = warm_setup()
    elif mode == "scipy":
        out = scipy_import()
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
