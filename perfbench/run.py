#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the COMET evaluation stack.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold_grid --seed 7 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the same workload once without tracing (in a child
run, for the baseline) and once with span wrappers installed in every
measured process (``spans.py``), and reports per-layer self times,
counts and the tracing overhead.  Every cell the program returns is
compared bit for bit with a serial in-process ``evaluate_cell`` of the
same task, computed outside the timed region.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it
(``report: {...}``) carries what the metrics do not: the results
digest, the tail percentile and its sample count, the realised traffic
mix and fabric provenance.  Metric names and units are listed in
``BENCHMARK.json``; ``NOTES.md`` explains them.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import itertools
import json
import os
import queue
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

import benchlib
import spans
from benchlib import HERE, ROOT, cell_digest, results_digest, task_key

#: Not 1: the golden rankings were tuned on seed 1, so any other seed
#: keeps the accuracy metric (``fig9_log_err``) on held-out data.
DEFAULT_SEED = 7

#: Set-ups per run for ``setup_s``; the median is reported.  Each
#: ``cold_grid`` pass is a set-up of its own, and a cold process's times
#: vary much more from one process to the next than a warm pass does,
#: so that workload takes more of them.
SETUPS = {"cold_grid": 8, "warm_sweep": 3, "daemon_mix": 3,
          "fabric_sweep": 3}

#: Candidate tail percentiles; the highest with at least ten samples
#: beyond it (at the run's guaranteed minimum sample count) is used.
TAIL_PERCENTILES = (50, 75, 80, 90, 95, 98, 99, 99.5, 99.9)

END_TO_END_UNITS = {
    "setup_s": "s",
    "grid_s": "s",
    "sim_mreq_per_s": "Mreq/s",
    "rtt_p50_ms": "ms",
    "rtt_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "fig9_log_err": "ratio",
}

#: Layers whose ``<name>.s`` (self time) and ``<name>.calls`` are
#: reported straight from their spans.
TIMED_LAYERS = (
    "photonics.slab.find_effective_indices",
    "device.cell.fc_for_transmission",
    "sim.tracegen.cached_trace_arrays",
    "sim.controller.run_arrays",
    "sim.store.get",
    "sim.store.put",
)
SELF_TIME_LAYERS = (
    "import.repro_sim_engine",
    "device.programming.level_table",
    "sim.factory.build_device",
    "sim.engine.evaluate_tasks",
    "sim.stats.to_dict",
    "sim.stats.from_dict",
    "sim.store.task_digest",
    "sim.server.handle_query",
    "sim.client.eval_cell",
    "sim.fabric.run_fabric",
)
SERVER_COUNTERS = ("store_hits", "lru_hits", "computed", "coalesced",
                   "errors")

PER_LAYER_UNITS: Dict[str, str] = {
    "import.repro_sim_engine.s": "s",
    "import.scipy_optimize.s": "s",
    **{f"{name}.{kind}": unit for name in TIMED_LAYERS
       for kind, unit in (("s", "s"), ("calls", "count"))},
    **{f"{name}.s": "s" for name in SELF_TIME_LAYERS[1:]},
    "sim.factory.build_device.COMET.s": "s",
    "sim.controller.us_per_kreq": "us",
    "sim.controller.compiled_hit_rate": "ratio",
    "sim.controller.fallbacks": "count",
    "sim.engine.parallel_efficiency": "ratio",
    "sim.engine.computed_cells": "count",
    "sim.client.decode.s": "s",
    "sim.client.reply_kb": "KB",
    "sim.server.encode.s": "s",
    "sim.server.network_s": "s",
    **{f"sim.server.{name}": "count" for name in SERVER_COUNTERS},
    "sim.server.hit_ratio": "ratio",
    "sim.fabric.stolen": "count",
    "sim.fabric.redispatched": "count",
    "sim.fabric.dead_hosts": "count",
    "sim.fabric.host_imbalance": "ratio",
    "sim.fabric.overhead_ratio": "ratio",
    "failed_frac": "ratio",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


@dataclass(frozen=True)
class Scale:
    """Input sizes.  ``FULL`` is the benchmark; ``TINY`` only exercises
    the code paths (``smoke.py``)."""

    requests: int
    min_passes: int
    min_blocks: int


FULL = Scale(requests=20_000, min_passes=3, min_blocks=10)
TINY = Scale(requests=500, min_passes=1, min_blocks=2)

#: Requests of each kind (store hit, LRU hit, computed miss) in one
#: ``daemon_mix`` block; a block is that workload's pass.
BLOCK_KIND = 10


@dataclass
class Outcome:
    """What one workload run measured."""

    setups: List[float] = field(default_factory=list)
    walls: List[float] = field(default_factory=list)
    requests: List[int] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    tail_min_samples: int = 0
    rss_mb: float = 0.0
    fig9_log_err: float = 0.0
    comet_best: bool = False
    digests: Dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    report: Dict[str, Any] = field(default_factory=dict)
    kernel: Dict[str, int] = field(default_factory=dict)
    server: Dict[str, int] = field(default_factory=dict)
    fabric: Dict[str, Any] = field(default_factory=dict)
    workers: int = 1
    cell_compute_s: float = 0.0
    # For the traced run: spans of every measured process, the start of
    # the timed region (earlier spans belong to the set-up) and the
    # measured intervals of the driving process.
    spans: List[Dict[str, Any]] = field(default_factory=list)
    timed_start: float = 0.0
    windows: List[Tuple[int, float, float]] = field(default_factory=list)

    def add_pass(self, t0: float, t1: float, requests: int,
                 latencies: Iterable[float]) -> None:
        self.walls.append(t1 - t0)
        self.windows.append((os.getpid(), t0, t1))
        self.requests.append(requests)
        self.latencies.extend(latencies)


class Checker:
    """Compares every returned cell with a serial in-process
    ``evaluate_cell`` of the same task.  ``inject`` perturbs the first
    cell added by one ulp, to show that the comparison catches it."""

    def __init__(self, inject: bool = False) -> None:
        self.inject = inject
        self.served: List[Tuple[str, str]] = []
        self.tasks: Dict[str, Any] = {}
        self.raised = 0

    def add(self, task: Any, stats: Any) -> None:
        if self.inject:
            stats, self.inject = benchlib.perturb(stats), False
        key = task_key(task)
        self.tasks[key] = task
        self.served.append((key, cell_digest(stats)))

    def settle(self, outcome: Outcome,
               reference: Optional[Dict[str, str]] = None) -> float:
        """Count attempted and failed cells into ``outcome``; returns the
        serial reference's seconds per cell it had to compute.

        ``reference`` holds digests already known (cells the harness
        computed itself); the rest are computed here, outside any timed
        region, each distinct task once.
        """
        from repro.sim import engine

        reference = dict(reference or {})
        missing = [task for key, task in self.tasks.items()
                   if key not in reference]
        t0 = time.perf_counter()
        for task in missing:
            reference[task_key(task)] = cell_digest(engine.evaluate_cell(task))
        per_cell = (time.perf_counter() - t0) / max(1, len(missing))
        outcome.attempted = len(self.served) + self.raised
        outcome.failed = self.raised + sum(
            1 for key, digest in self.served if reference[key] != digest)
        return per_cell


def keep_going(start: float, seconds: float, done: int, minimum: int,
               walls: Sequence[float]) -> bool:
    """Start another pass while under the minimum count, or while one
    more pass of the usual length still ends within ``seconds``."""
    if done < minimum:
        return True
    typical = statistics.median(walls) if walls else 0.0
    return time.perf_counter() - start + typical <= seconds


def run_json(cmd: List[str], timeout: float = 170.0) -> Dict[str, Any]:
    """Run a benchmark child process; its last stdout line is JSON."""
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          env=benchlib.child_env(), cwd=str(ROOT),
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:3])} failed "
                           f"({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def child(*args: Any) -> Dict[str, Any]:
    return run_json([sys.executable, str(HERE / "child.py"),
                     *map(str, args)])


# -- daemons -----------------------------------------------------------------


class Daemon:
    """One ``repro.sim serve`` subprocess with one compute worker.

    Untraced runs start the real CLI; traced runs start ``serve.py``,
    which installs the span wrappers and then calls ``serve_main``.
    Use as a context manager: the process is always stopped and reaped.
    """

    def __init__(self, work: Path, name: str, store: Optional[Path],
                 traced: bool) -> None:
        args = ["--host", "127.0.0.1", "--port", "0", "--workers", "1"]
        if store is not None:
            args += ["--store", str(store)]
        self.spans_path = work / f"{name}.spans.json" if traced else None
        if traced:
            cmd = [sys.executable, str(HERE / "serve.py"),
                   str(self.spans_path), *args]
        else:
            cmd = [sys.executable, "-m", "repro.sim", "serve", *args]
        self._log = open(work / f"{name}.log", "w")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._log, text=True,
            env=benchlib.child_env(), cwd=str(ROOT))
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self.address = ""

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def wait_ready(self, timeout: float = 120.0) -> None:
        """Block until the daemon announces its port and ``/healthz``
        answers."""
        from repro.sim.client import EvalClient

        deadline = time.monotonic() + timeout
        while not self.address:
            line = self._lines.get(
                timeout=max(0.0, deadline - time.monotonic()))
            if line is None:
                raise RuntimeError("daemon exited before it was ready")
            if line.startswith("ready: "):
                self.address = line.split()[1]
        EvalClient(self.address, retries=0).health()

    def client(self) -> Any:
        from repro.sim.client import EvalClient

        return EvalClient(self.address)

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc: Any) -> None:
        from repro.errors import SimulationError

        if self.address and self.proc.poll() is None:
            try:
                self.client().shutdown()
            except SimulationError:
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=30)
        self.proc.stdout.close()
        self._log.close()


def warm_up(daemon: Daemon, tasks: Sequence[Any]) -> List[Tuple[Any, Any]]:
    client = daemon.client()
    return [(task, client.eval_cell(task)) for task in tasks]


@contextlib.contextmanager
def fleet(outcome: Outcome, work: Path, name: str, count: int,
          store: Optional[Path], tracer: Optional[spans.Tracer],
          warm_tasks: Sequence[Any], checker: Checker) -> Iterator[List[Daemon]]:
    """``count`` daemons, each answering ``/healthz`` and warmed with one
    cell per architecture.  That is the set-up, timed into
    ``outcome.setups``.  On exit the daemons are shut down and the spans
    of traced ones are added to ``outcome.spans``."""
    with contextlib.ExitStack() as stack:
        t0 = time.perf_counter()
        daemons = [stack.enter_context(
            Daemon(work, f"{name}-{index}", store, tracer is not None))
            for index in range(count)]
        for daemon in daemons:
            daemon.wait_ready()
        with concurrent.futures.ThreadPoolExecutor(count) as pool:
            futures = [pool.submit(warm_up, daemon, warm_tasks)
                       for daemon in daemons]
            served = [future.result() for future in futures]
        t1 = time.perf_counter()
        outcome.setups.append(t1 - t0)
        outcome.windows.append((os.getpid(), t0, t1))
        with spans.paused(tracer):
            for task, stats in itertools.chain.from_iterable(served):
                checker.add(task, stats)
        del served
        yield daemons
    for daemon in daemons:
        if daemon.spans_path is not None:
            for span in spans.load(str(daemon.spans_path)):
                span["daemon"] = True
                outcome.spans.append(span)


def fleet_counters(daemons: Sequence[Daemon]) -> Dict[str, int]:
    """``/stats`` counters summed over the daemons; kernel dispatch
    counters carry a ``kernel.`` prefix."""
    total: Dict[str, int] = {}
    for daemon in daemons:
        stats = daemon.client().stats()
        counts = {key: stats[key] for key in (*SERVER_COUNTERS, "cells")}
        counts.update({f"kernel.{key}": value
                       for key, value in stats["kernel"].items()})
        for key, value in counts.items():
            total[key] = total.get(key, 0) + value
    return total


def record_counters(outcome: Outcome, before: Dict[str, int],
                    after: Dict[str, int]) -> None:
    for key, value in after.items():
        delta = value - before.get(key, 0)
        if key.startswith("kernel."):
            outcome.kernel[key[len("kernel."):]] = delta
        else:
            outcome.server[key] = delta


# -- workloads ---------------------------------------------------------------


def cold_grid(scale: Scale, seed: int, seconds: float, setups: int,
              tracer: Optional[spans.Tracer], work: Path,
              inject: bool) -> Outcome:
    """Why: what ``python -m repro.sim --grid`` costs a user.  A fresh
    process per pass computes the Fig. 9 grid (7 architectures x 8 SPEC
    workloads) serially with no store, so import, mode solves and
    device construction dominate: the workload on which the physics,
    import and factory layers show.  Every pass is also a set-up."""
    outcome = Outcome()
    passes: List[Dict[str, Any]] = []
    start = time.perf_counter()
    minimum = max(scale.min_passes, setups)
    while keep_going(start, seconds, len(passes), minimum, outcome.walls):
        flags = (["--trace"] if tracer else []) \
            + (["--inject-mismatch"] if inject and not passes else [])
        run = child("cold", seed, scale.requests, *flags)
        passes.append(run)
        outcome.walls.append(run["grid_s"])
    for run in passes:
        outcome.setups.append(run["setup_s"])
        outcome.requests.append(run["requests"])
        outcome.latencies.extend(run["latencies"])
        outcome.spans.extend(run.get("spans", []))
        outcome.windows.append((run["pid"], run["start"], run["end"]))
        for name, value in run["kernel"].items():
            outcome.kernel[name] = outcome.kernel.get(name, 0) + value
    outcome.tail_min_samples = len(passes[0]["latencies"]) * minimum
    outcome.rss_mb = statistics.median(run["rss_mb"] for run in passes)
    outcome.fig9_log_err = passes[0]["fig9_log_err"]
    outcome.comet_best = all(run["comet_best"] for run in passes) and all(
        run["fig9_log_err"] == outcome.fig9_log_err for run in passes)

    from repro.sim import engine

    checker = Checker()
    for task in engine.grid_tasks(num_requests=scale.requests, seed=seed):
        checker.tasks[task_key(task)] = task
    for run in passes:
        checker.served.extend(run["digests"].items())
    checker.settle(outcome)
    outcome.digests = passes[0]["digests"]
    return outcome


def warm_sweep(scale: Scale, seed: int, seconds: float, setups: int,
               tracer: Optional[spans.Tracer], work: Path,
               inject: bool) -> Outcome:
    """Why: a long-lived in-process engine, where tracegen, precompute,
    the kernel and stats do nearly all the work and no physics, wire or
    store work happens.  A scheduler or engine change shows here; a
    mode-solver change must not.  Each pass evaluates every
    architecture x all 14 workloads x 2 seeds on the default thread
    pool with 2 workers and no store.  The traces are generated in the
    first pass and served from the trace cache afterwards."""
    outcome = Outcome(workers=2)
    t0 = time.perf_counter()
    import repro.sim.engine as engine
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.record("import.repro_sim_engine", t0, t1)
        spans.install(tracer)
        tracer.start()
    from repro.sim import _fastloop
    from repro.sim.controller import kernel_counters
    from repro.sim.factory import ARCHITECTURE_NAMES, known_architectures
    from repro.sim.tracegen import SPEC_WORKLOADS, WORKLOAD_NAMES

    for arch in known_architectures():
        engine.device_for(arch)
    _fastloop.available()
    setup_end = time.perf_counter()
    outcome.setups.append(setup_end - t0)
    outcome.windows.append((os.getpid(), t0, setup_end))

    checker = Checker(inject)
    tasks = [engine.EvalTask(arch, workload, scale.requests, s)
             for s in (seed, seed + 1) for workload in WORKLOAD_NAMES
             for arch in known_architectures()]
    fig9_cells: List[Tuple[Any, Any]] = []
    kernel_before = kernel_counters()
    outcome.timed_start = start = time.perf_counter()
    while keep_going(start, seconds, len(outcome.walls), scale.min_passes,
                     outcome.walls):
        finished: List[float] = []
        p0 = time.perf_counter()
        results = engine.evaluate_tasks(
            tasks, workers=outcome.workers,
            on_result=lambda task, stats: finished.append(
                time.perf_counter()))
        p1 = time.perf_counter()
        outcome.add_pass(p0, p1, sum(task.num_requests for task in tasks),
                         [t - p0 for t in finished])
        with spans.paused(tracer):
            for task in tasks:
                checker.add(task, results[task])
        if not fig9_cells:
            fig9_cells = [(task, results[task]) for task in tasks
                          if task.seed == seed
                          and task.architecture in ARCHITECTURE_NAMES
                          and task.workload in SPEC_WORKLOADS]
        del results
    if tracer is not None:
        tracer.stop()
    outcome.kernel = {key: value - kernel_before.get(key, 0)
                      for key, value in kernel_counters().items()}
    outcome.rss_mb = benchlib.vm_hwm_mb(os.getpid())
    outcome.tail_min_samples = len(tasks) * scale.min_passes
    outcome.fig9_log_err, outcome.comet_best = \
        benchlib.fig9_accuracy(fig9_cells)
    checker.settle(outcome)
    outcome.digests = dict(checker.served[:len(tasks)])
    for _ in range(setups - 1):
        outcome.setups.append(child("warm-setup")["setup_s"])
    return outcome


def daemon_mix(scale: Scale, seed: int, seconds: float, setups: int,
               tracer: Optional[spans.Tracer], work: Path,
               inject: bool) -> Outcome:
    """Why: the wire, server, client and store-read layers.  One daemon
    with one compute worker and a store the benchmark fills before
    launch; one closed-loop client sends single-cell ``/eval`` requests
    with latencies in the reply.  A seeded shuffle mixes equal thirds
    of store hits, LRU hits and computed misses (each miss is written
    back to the store by the daemon).  Store prefill is harness work
    and is not part of ``setup_s``."""
    from repro.errors import SimulationError
    from repro.sim import engine
    from repro.sim.factory import known_architectures
    from repro.sim.store import ResultStore
    from repro.sim.tracegen import WORKLOAD_NAMES

    outcome = Outcome()
    rng = random.Random(seed)
    n = scale.requests
    archs = known_architectures()

    def shuffled(cell_seed: int) -> List[Any]:
        batch = [engine.EvalTask(arch, workload, n, cell_seed)
                 for arch in archs for workload in WORKLOAD_NAMES]
        rng.shuffle(batch)
        return batch

    def warm_tasks(index: int) -> List[Any]:
        return [engine.EvalTask(arch, WORKLOAD_NAMES[i % len(WORKLOAD_NAMES)],
                                n, seed + 500 + index)
                for i, arch in enumerate(archs)]

    fig9_tasks = engine.grid_tasks(num_requests=n, seed=seed)
    rng.shuffle(fig9_tasks)
    fig9_keys = {task_key(task) for task in fig9_tasks}
    store_tasks = fig9_tasks + shuffled(seed + 1) + shuffled(seed + 2)
    # Enough blocks that every Fig. 9 cell is served, as a store hit.
    min_blocks = max(scale.min_blocks, -(-len(fig9_tasks) // BLOCK_KIND))
    max_blocks = len(store_tasks) // BLOCK_KIND
    store_dir = work / "store"
    store = ResultStore(store_dir)
    reference: Dict[str, str] = {}
    for task in store_tasks:
        stats = engine.evaluate_cell(task)
        reference[task_key(task)] = cell_digest(stats)
        store.put(task, stats)
    misses = (task for miss_seed in itertools.count(seed + 10)
              for task in shuffled(miss_seed))
    stores = iter(store_tasks)

    checker = Checker(inject)
    fig9_cells: Dict[str, Tuple[Any, Any]] = {}
    if tracer is not None:
        spans.install(tracer)
        tracer.start()
    with fleet(outcome, work, "mix", 1, store_dir, tracer, warm_tasks(0),
               checker) as (daemon,):
        client = daemon.client()
        before = fleet_counters([daemon])
        recent = deque(warm_tasks(0), maxlen=64)
        first_timed = len(checker.served)
        outcome.timed_start = start = time.perf_counter()
        while len(outcome.walls) < max_blocks and keep_going(
                start, seconds, len(outcome.walls), min_blocks,
                outcome.walls):
            kinds = ["store", "lru", "miss"] * BLOCK_KIND
            rng.shuffle(kinds)
            replies = []
            rtts: List[float] = []
            b0 = time.perf_counter()
            for kind in kinds:
                task = (next(stores) if kind == "store" else next(misses)
                        if kind == "miss" else rng.choice(list(recent)))
                r0 = time.perf_counter()
                try:
                    stats = client.eval_cell(task)
                except SimulationError:
                    checker.raised += 1
                    continue
                rtts.append(time.perf_counter() - r0)
                replies.append((task, stats))
                if kind != "lru":
                    recent.append(task)
            outcome.add_pass(b0, time.perf_counter(), n * len(replies), rtts)
            with spans.paused(tracer):
                for task, stats in replies:
                    checker.add(task, stats)
                    if task_key(task) in fig9_keys:
                        fig9_cells[task_key(task)] = (task, stats)
        record_counters(outcome, before, fleet_counters([daemon]))
        outcome.rss_mb = benchlib.vm_hwm_mb(daemon.proc.pid)
    if tracer is not None:
        tracer.stop()
    for index in range(1, setups):
        with fleet(outcome, work, f"mix{index}", 1, store_dir, None,
                   warm_tasks(index), checker):
            pass
    if len(fig9_cells) != len(fig9_keys):
        raise RuntimeError("run too short to serve every Fig. 9 cell")
    outcome.fig9_log_err, outcome.comet_best = \
        benchlib.fig9_accuracy(fig9_cells.values())
    outcome.tail_min_samples = 3 * BLOCK_KIND * min_blocks
    checker.settle(outcome, reference)
    outcome.digests = dict(
        checker.served[first_timed:first_timed + outcome.tail_min_samples])
    outcome.report["realised_mix"] = {key: outcome.server[key]
                                      for key in SERVER_COUNTERS}
    outcome.report["setup_excludes"] = "store prefill (harness work)"
    return outcome


def fabric_sweep(scale: Scale, seed: int, seconds: float, setups: int,
                 tracer: Optional[spans.Tracer], work: Path,
                 inject: bool) -> Outcome:
    """Why: fabric dispatch and the async client, which no other
    workload touches, and bulk store writes.  Two daemons with no store
    and ``run_fabric`` in this process sweep cells never seen before
    (the Fig. 9 grid at a fresh seed per pass) with ``window=1`` per
    host; the coordinator writes every cell through to a local store
    with latency sidecars."""
    from repro.sim import engine, fabric
    from repro.sim.factory import ARCHITECTURE_NAMES
    from repro.sim.store import ResultStore, task_digest
    from repro.sim.sweep import SweepSpec
    from repro.sim.tracegen import SPEC_WORKLOADS

    outcome = Outcome()
    n = scale.requests
    workloads = tuple(sorted(SPEC_WORKLOADS))

    def warm_tasks(index: int) -> List[Any]:
        return [engine.EvalTask(arch, workloads[i % len(workloads)], n,
                                seed + 500 + index)
                for i, arch in enumerate(ARCHITECTURE_NAMES)]

    # The coordinator partitions cells by task digest, which needs each
    # device's fingerprint: build them before timing, like any other
    # lazy set-up of this process.
    for task in warm_tasks(0):
        task_digest(task)
    checker = Checker(inject)
    fig9_cells: List[Tuple[Any, Any]] = []
    per_host: Dict[str, int] = {}
    provenance = {"stolen": 0, "redispatched": 0, "dead_hosts": 0}
    if tracer is not None:
        spans.install(tracer)
        tracer.start()
    with fleet(outcome, work, "fabric", 2, None, tracer, warm_tasks(0),
               checker) as daemons:
        hosts = [daemon.address for daemon in daemons]
        before = fleet_counters(daemons)
        store = ResultStore(work / "fabric-store")
        first_timed = len(checker.served)
        outcome.timed_start = start = time.perf_counter()
        while keep_going(start, seconds, len(outcome.walls),
                         scale.min_passes, outcome.walls):
            spec = SweepSpec(architectures=ARCHITECTURE_NAMES,
                             workloads=workloads, num_requests=(n,),
                             seeds=(seed + len(outcome.walls),))
            finished: List[float] = []
            p0 = time.perf_counter()
            result = fabric.run_fabric(
                spec, hosts=hosts, store=store, window=1,
                on_result=lambda task, stats: finished.append(
                    time.perf_counter()))
            tasks = spec.tasks()
            outcome.add_pass(p0, time.perf_counter(), n * len(tasks),
                             [t - p0 for t in finished])
            with spans.paused(tracer):
                for task in tasks:
                    checker.add(task, result.results[task])
            if not fig9_cells:
                fig9_cells = [(task, result.results[task]) for task in tasks]
            for host, count in result.per_host.items():
                per_host[host] = per_host.get(host, 0) + count
            provenance["stolen"] += result.stolen
            provenance["redispatched"] += result.redispatched
            provenance["dead_hosts"] += len(result.dead_hosts)
            del result
        record_counters(outcome, before, fleet_counters(daemons))
        outcome.rss_mb = sum(benchlib.vm_hwm_mb(daemon.proc.pid)
                             for daemon in daemons)
    if tracer is not None:
        tracer.stop()
    for index in range(1, setups):
        with fleet(outcome, work, f"fabric{index}", 2, None, None,
                   warm_tasks(index), checker):
            pass
    cells_per_pass = len(ARCHITECTURE_NAMES) * len(workloads)
    outcome.tail_min_samples = cells_per_pass * scale.min_passes
    outcome.fig9_log_err, outcome.comet_best = \
        benchlib.fig9_accuracy(fig9_cells)
    outcome.cell_compute_s = checker.settle(outcome)
    outcome.digests = dict(
        checker.served[first_timed:first_timed + cells_per_pass])
    outcome.fabric = {**provenance, "per_host": per_host,
                      "cells": cells_per_pass * len(outcome.walls)}
    outcome.report["fabric"] = {**provenance,
                                "per_host": sorted(per_host.values())}
    return outcome


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "cold_grid": cold_grid,
    "warm_sweep": warm_sweep,
    "daemon_mix": daemon_mix,
    "fabric_sweep": fabric_sweep,
}


# -- metrics -----------------------------------------------------------------


def tail(latencies: Sequence[float],
         min_samples: int) -> Tuple[float, float]:
    """``(percentile, value)``: the highest candidate percentile with at
    least ten samples beyond it at ``min_samples``, fixed per workload
    so that it does not change between runs."""
    percentile = max(p for p in TAIL_PERCENTILES
                     if min_samples * (1 - p / 100) >= 10
                     or p == TAIL_PERCENTILES[0])
    ordered = sorted(latencies)
    rank = min(len(ordered) - 1, int(percentile / 100 * len(ordered)))
    return percentile, ordered[rank]


def end_to_end(outcome: Outcome) -> Dict[str, float]:
    _, tail_value = tail(outcome.latencies, outcome.tail_min_samples)
    return {
        "setup_s": statistics.median(outcome.setups),
        "grid_s": statistics.median(outcome.walls),
        "sim_mreq_per_s": statistics.median(
            requests / wall / 1e6
            for requests, wall in zip(outcome.requests, outcome.walls)),
        "rtt_p50_ms": statistics.median(outcome.latencies) * 1e3,
        "rtt_tail_ms": tail_value * 1e3,
        "peak_rss_mb": outcome.rss_mb,
        "fig9_log_err": outcome.fig9_log_err,
    }


def primary_seconds(workload: str, metrics: Dict[str, float]) -> float:
    """The end-to-end time tracing overhead is measured on."""
    if workload == "cold_grid":
        return metrics["setup_s"] + metrics["grid_s"]
    return metrics["grid_s"]


def per_layer(workload: str, outcome: Outcome, untraced: Dict[str, float],
              scipy_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced run.

    A span's ``.s`` is its self time.  Every sum is normalised to one
    set-up plus one pass: set-up spans are divided by the number of
    set-ups, pass spans by the number of passes.
    """
    from repro.sim.stats import kernel_dispatch_summary

    all_spans = outcome.spans
    own = spans.self_times(all_spans)
    me = os.getpid()
    n_setups, n_passes = len(outcome.setups), len(outcome.walls)
    by_key = {(span["pid"], span["id"]): span for span in all_spans}

    def per_unit(select: Callable[[Dict[str, Any]], bool],
                 value: Callable[[int, Dict[str, Any]], float]) -> float:
        setup = sum(value(i, span) for i, span in enumerate(all_spans)
                    if select(span) and span["phase"] == "setup")
        passes = sum(value(i, span) for i, span in enumerate(all_spans)
                     if select(span) and span["phase"] == "pass")
        return setup / n_setups + passes / n_passes

    def self_s(name: str, pid: Optional[int] = None,
               daemon: bool = False) -> float:
        return per_unit(
            lambda span: span["name"] == name
            and (pid is None or span["pid"] == pid)
            and (not daemon or span.get("daemon", False)),
            lambda i, span: own[i])

    def calls(name: str) -> float:
        return per_unit(lambda span: span["name"] == name,
                        lambda i, span: 1.0)

    def inclusive(name: str) -> List[Dict[str, Any]]:
        return [span for span in all_spans
                if span["name"] == name and span["phase"] == "pass"]

    metrics: Dict[str, float] = {}
    for name in TIMED_LAYERS:
        metrics[f"{name}.s"] = self_s(name)
        metrics[f"{name}.calls"] = calls(name)
    for name in SELF_TIME_LAYERS:
        metrics[f"{name}.s"] = self_s(name)
    metrics["import.scipy_optimize.s"] = scipy_s
    metrics["sim.factory.build_device.COMET.s"] = per_unit(
        lambda span: span["name"] == "sim.factory.build_device"
        and span.get("attrs", {}).get("arch") == "COMET",
        lambda i, span: span["t1"] - span["t0"])

    kernels = [span for span in all_spans
               if span["name"] == "sim.controller.run_arrays"]
    simulated = sum(span["attrs"]["n"] for span in kernels)
    kernel_s = sum(own[i] for i, span in enumerate(all_spans)
                   if span["name"] == "sim.controller.run_arrays")
    metrics["sim.controller.us_per_kreq"] = \
        kernel_s * 1e9 / simulated if simulated else 0.0
    summary = kernel_dispatch_summary(outcome.kernel)
    metrics["sim.controller.compiled_hit_rate"] = summary["hit_rate"]
    metrics["sim.controller.fallbacks"] = float(
        summary["fallbacks"]["device"] + summary["fallbacks"]["toolchain"])

    sweeps = inclusive("sim.engine.evaluate_tasks")
    sweep_wall = sum(span["t1"] - span["t0"] for span in sweeps)
    busy = sum(span["t1"] - span["t0"]
               for span in inclusive("sim.controller.run_arrays")
               if any(span["pid"] == sweep["pid"]
                      and sweep["t0"] <= span["t0"] <= sweep["t1"]
                      for sweep in sweeps))
    metrics["sim.engine.parallel_efficiency"] = \
        busy / (sweep_wall * outcome.workers) if sweep_wall else 0.0
    metrics["sim.engine.computed_cells"] = calls("sim.engine.evaluate_cell")

    def under_eval_cell(span: Dict[str, Any]) -> bool:
        parent = by_key.get((span["pid"], span["parent"]))
        return parent is not None and parent["name"] == "sim.client.eval_cell"

    metrics["sim.client.decode.s"] = \
        self_s("sim.client.json_loads", pid=me) \
        + self_s("sim.stats.from_dict", pid=me)
    replies = [span["attrs"]["nbytes"]
               for span in inclusive("sim.client.json_loads")
               if under_eval_cell(span)]
    metrics["sim.client.reply_kb"] = \
        statistics.mean(replies) / 1024 if replies else 0.0
    metrics["sim.client.eval_cell.s"] = self_s("sim.client.eval_cell", pid=me)
    metrics["sim.server.encode.s"] = \
        self_s("sim.stats.to_dict", daemon=True) \
        + self_s("sim.server.json_dumps", daemon=True)
    round_trips = inclusive("sim.client.eval_cell")
    queries = inclusive("sim.server.handle_query")
    metrics["sim.server.network_s"] = (
        (sum(s["t1"] - s["t0"] for s in round_trips)
         - sum(s["t1"] - s["t0"] for s in queries)) / len(round_trips)
        if round_trips else 0.0)
    for name in SERVER_COUNTERS:
        metrics[f"sim.server.{name}"] = \
            outcome.server.get(name, 0) / n_passes
    cells = outcome.server.get("cells", 0)
    metrics["sim.server.hit_ratio"] = (
        (outcome.server["store_hits"] + outcome.server["lru_hits"]) / cells
        if cells else 0.0)

    for name in ("stolen", "redispatched", "dead_hosts"):
        metrics[f"sim.fabric.{name}"] = \
            outcome.fabric.get(name, 0) / n_passes
    hosts = list(outcome.fabric.get("per_host", {}).values())
    metrics["sim.fabric.host_imbalance"] = \
        max(hosts) / min(hosts) if hosts and min(hosts) else 0.0
    metrics["sim.fabric.overhead_ratio"] = (
        sum(outcome.walls) / outcome.fabric["cells"]
        / outcome.cell_compute_s if outcome.fabric else 0.0)

    metrics["failed_frac"] = outcome.failed / max(1, outcome.attempted)
    metrics["trace.overhead_s"] = \
        primary_seconds(workload, end_to_end(outcome)) \
        - primary_seconds(workload, untraced)
    metrics["trace.coverage"] = coverage(outcome)
    return metrics


def coverage(outcome: Outcome) -> float:
    """Share of the measured windows (set-up and passes of the driving
    process) that spans of that process cover."""
    covered = sum(spans.covered(
        [(span["t0"], span["t1"]) for span in outcome.spans
         if span["pid"] == pid], w0, w1)
        for pid, w0, w1 in outcome.windows)
    total = sum(w1 - w0 for _, w0, w1 in outcome.windows)
    return covered / total if total else 0.0


# -- entry point -------------------------------------------------------------


def measure(args: argparse.Namespace, work: Path) -> Tuple[Outcome,
                                                            Dict[str, float]]:
    scale = TINY if args.scale == "tiny" else FULL
    run = WORKLOADS[args.workload]
    if not args.trace:
        outcome = run(scale, args.seed, args.seconds, args.setups, None,
                      work, args.inject_mismatch)
        return outcome, end_to_end(outcome)
    half = max(1.0, args.seconds / 2)
    base = run_json([sys.executable, str(HERE / "run.py"),
                     "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(half), "--trace", "0", "--setups", "1",
                     "--scale", args.scale])
    untraced = {name: entry["value"]
                for name, entry in base["metrics"].items()}
    tracer = spans.Tracer()
    outcome = run(scale, args.seed, half, 1, tracer, work,
                  args.inject_mismatch)
    outcome.spans.extend(tracer.spans)
    for span in outcome.spans:
        span.setdefault(
            "phase", "pass" if span["t0"] >= outcome.timed_start else "setup")
    outcome.attempted += base["attempted"]
    outcome.failed += base["failed"]
    scipy_s = child("scipy")["seconds"]
    return outcome, per_layer(args.workload, outcome, untraced, scipy_s)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setups", type=int, default=None,
                        help="set-ups per run; setup_s is their median "
                             "(default: 8 for cold_grid, 3 otherwise)")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small cells, for the smoke test only")
    parser.add_argument("--inject-mismatch", action="store_true",
                        help="perturb one cell by one ulp, to show that "
                             "the correctness check fires")
    args = parser.parse_args(argv)
    if args.setups is None:
        args.setups = SETUPS[args.workload]
    benchlib.clean_environ()
    child("prepare")

    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        outcome, metrics = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    from repro.sim.stats import kernel_dispatch_summary

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    correct = outcome.failed == 0 and outcome.comet_best
    percentile, _ = tail(outcome.latencies, outcome.tail_min_samples)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "results_digest": results_digest(outcome.digests),
        "comet_best_bandwidth": outcome.comet_best,
        "failed_frac": outcome.failed / max(1, outcome.attempted),
        "rtt_tail_percentile": percentile,
        "rtt_samples": len(outcome.latencies),
        "pass_walls_s": outcome.walls,
        "setup_samples_s": outcome.setups,
        "compiled_hit_rate": (
            kernel_dispatch_summary(outcome.kernel)["hit_rate"]
            if outcome.kernel else None),
        **outcome.report,
    }
    print("report: " + json.dumps(report), flush=True)
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
