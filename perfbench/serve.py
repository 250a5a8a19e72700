"""Traced evaluation daemon for the benchmark's per-layer run.

Installs the span wrappers of ``spans.py`` in this process, then runs
the real daemon through ``repro.sim.server.serve_main``.  When the
daemon shuts down, the spans are written to SPANS_FILE.

    python3 perfbench/serve.py SPANS_FILE [serve arguments...]
"""

from __future__ import annotations

import sys
import time

import benchlib  # noqa: F401  (puts the checkout's src on sys.path)
import spans


def main(argv: list) -> int:
    spans_path, serve_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import repro.sim.engine  # noqa: F401
    from repro.sim import server
    t1 = time.perf_counter()
    tracer = spans.Tracer()
    tracer.record("import.repro_sim_engine", t0, t1)
    spans.install(tracer)
    tracer.start()
    try:
        return server.serve_main(serve_args)
    finally:
        tracer.stop()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
