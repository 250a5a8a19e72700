"""Parallel evaluation engine: the (architecture x workload) grid runner.

The Fig. 9 evaluation — every architecture against every workload — is
embarrassingly parallel across grid cells, and each cell repeats two
expensive setups: generating the workload trace and building the device
model.  The engine removes both:

* **Per-process caches** — devices are built once per architecture and
  traces generated once per ``(workload, n, seed)`` (write-locked
  column arrays, shared read-only between cells).
* **Thread fan-out** — with ``workers > 1`` the grid is mapped over a
  persistent thread pool.  Every cell is one call into
  :mod:`._fastloop`, which releases the GIL for the whole cell
  (mapping, recurrence and latency reduction alike; only argument
  marshalling and ``SimStats`` assembly hold it), so the threads share
  the device/controller/trace caches directly and hand results back
  without pickling.  Where the twin is unavailable
  (``REPRO_FASTLOOP=0``, no C toolchain) the same threads run the
  Python mirror, which holds the GIL: exact, but no faster than
  serial.  The pool survives across ``evaluate_tasks`` /
  ``run_evaluation`` / sweep calls and is torn down on process exit,
  on :func:`shutdown_worker_pool`, and by :func:`clear_device_caches`.
  Results come back in task order, so the output is deterministic and
  bit-identical to the serial path regardless of worker count or
  scheduling.
* **Serial path** — ``workers <= 1`` (the default) runs the same cells
  in the calling thread.

``REPRO_EVAL_WORKERS`` sets the default worker count; the controller's
fast-path scheduler kernel (:meth:`MemoryController.run_arrays`) is the
per-cell hot path.  :func:`profile_snapshot` exposes per-phase wall
times (trace fetch vs device build vs simulation vs store I/O) and
:func:`pool_profile_snapshot` the fan-out timings (``threads`` or
``serial``) for ``--profile``.
"""

from __future__ import annotations

import atexit
import dataclasses
import os
import threading
import time
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, List,
                    Optional, Sequence, Tuple)

from ..errors import ReproError, SimulationError, TraceError
from .controller import QUEUE_DEPTH_PER_CHANNEL, MemoryController
from .factory import ARCHITECTURE_NAMES, build_device, known_architectures
from .stats import SimStats
from .tracegen import SPEC_WORKLOADS, cached_trace_arrays, get_workload

if TYPE_CHECKING:   # avoid a runtime cycle: store imports EvalTask
    from .devices import MemoryDeviceModel
    from .store import ResultStore

#: Environment override for the default worker count.
WORKERS_ENV_VAR = "REPRO_EVAL_WORKERS"

# staticcheck: guarded-by[_CACHE_LOCK]
_DEVICE_CACHE: Dict[str, "MemoryDeviceModel"] = {}
# staticcheck: guarded-by[_CACHE_LOCK]
_CONTROLLER_CACHE: Dict[Tuple[str, Optional[int]], MemoryController] = {}

#: Guards the device/controller cache build: under the thread pool many
#: cells race to memoize the same architecture; double-checked locking
#: makes exactly one thread build (models are immutable once built, so
#: lock-free reads stay safe).
_CACHE_LOCK = threading.Lock()

#: The persistent thread pool: (ThreadPoolExecutor, worker count).
#: Lazily built by the first fan-out, reused by every later one with
#: the same size.
_THREAD_POOL: Optional[Tuple[Any, int]] = None

#: Per-phase wall-clock accumulators for ``--profile``.  Thread-safe:
#: pool threads accumulate concurrently, so the totals cover the whole
#: grid (summed across workers, they can exceed wall-clock).
# staticcheck: guarded-by[_PROFILE_LOCK, reads]
_PROFILE = {"trace_s": 0.0, "device_s": 0.0, "simulate_s": 0.0,
            "store_s": 0.0}
_PROFILE_LOCK = threading.Lock()

#: Fan-out accounting for ``--profile``: cells mapped and wall-clock
#: spent inside :func:`_map_tasks`, keyed by mode (``threads`` or
#: ``serial``).
# staticcheck: guarded-by[_PROFILE_LOCK, reads]
_POOL_PROFILE: Dict[str, Dict[str, float]] = {}


def profile_snapshot() -> Dict[str, float]:
    """Copy of the per-phase wall-time accumulators (seconds)."""
    with _PROFILE_LOCK:
        return dict(_PROFILE)


def pool_profile_snapshot() -> Dict[str, Dict[str, float]]:
    """Per-pool fan-out accounting: ``{mode: {runs, cells, wall_s}}``."""
    with _PROFILE_LOCK:
        return {mode: dict(entry) for mode, entry in _POOL_PROFILE.items()}


def reset_profile() -> None:
    """Zero the per-phase and per-pool accumulators."""
    with _PROFILE_LOCK:
        for key in _PROFILE:
            _PROFILE[key] = 0.0
        _POOL_PROFILE.clear()


def _profile_add(key: str, seconds: float) -> None:
    with _PROFILE_LOCK:
        _PROFILE[key] = _PROFILE.get(key, 0.0) + seconds


def _note_pool_run(mode: str, cells: int, wall_s: float) -> None:
    with _PROFILE_LOCK:
        entry = _POOL_PROFILE.setdefault(
            mode, {"runs": 0, "cells": 0, "wall_s": 0.0})
        entry["runs"] += 1
        entry["cells"] += cells
        entry["wall_s"] += wall_s

#: ``on_result`` callback type: called with each (task, stats) pair as
#: soon as the cell completes, in task order (incremental checkpointing).
ResultCallback = Callable[["EvalTask", SimStats], None]

#: Process-wide count of grid cells actually *computed* by the engine
#: (store hits never increment it).  Counted in the calling thread as
#: results arrive; this is what the zero-recompute pinning tests and
#: ``run-all --expect-no-compute`` read.
_COMPUTED_CELLS = 0  # staticcheck: guarded-by[_COMPUTED_LOCK, reads]
_COMPUTED_LOCK = threading.Lock()


def computed_cell_count() -> int:
    """Cells computed by this process's engine since import (or the last
    :func:`reset_computed_cell_count`)."""
    with _COMPUTED_LOCK:
        return _COMPUTED_CELLS


def reset_computed_cell_count() -> None:
    """Zero the computed-cell counter (tests, warm-pass assertions)."""
    global _COMPUTED_CELLS
    with _COMPUTED_LOCK:
        _COMPUTED_CELLS = 0


@dataclass(frozen=True)
class EvalTask:
    """One grid cell: a workload trace run against one architecture.

    ``queue_depth`` optionally overrides the controller's transaction
    queue (``None`` keeps the per-channel default) — the sweep axis the
    queue-depth ablation explores.
    """

    architecture: str
    workload: str
    num_requests: int
    seed: int
    queue_depth: Optional[int] = None

    def describe(self) -> str:
        """Human-readable cell label for error messages and logs."""
        label = (f"{self.architecture} x {self.workload}, "
                 f"n={self.num_requests}, seed={self.seed}")
        if self.queue_depth is not None:
            label += f", queue_depth={self.queue_depth}"
        return label


#: Wire-format field names of one :class:`EvalTask`, in dataclass order.
TASK_FIELDS: Tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(EvalTask))


def task_to_dict(task: EvalTask) -> Dict[str, Any]:
    """JSON-serializable dict of one task (inverse of
    :func:`task_from_dict`)."""
    return dataclasses.asdict(task)


def _require_int(payload: Dict[str, Any], key: str, default: int) -> int:
    """Fetch an integer field from an untrusted payload.

    ``bool`` is an ``int`` subclass in Python, but ``"seed": true`` on
    the wire is a client bug, not a seed of 1 — reject it explicitly.
    """
    value = payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SimulationError(f"task field {key!r} must be an integer, "
                              f"got {value!r}")
    return value


def task_from_dict(payload: Any) -> EvalTask:
    """Validated :class:`EvalTask` from an untrusted wire payload.

    This is the trust boundary of the evaluation service: every field is
    type- and range-checked so malformed queries surface as structured
    ``SimulationError`` messages (the server's 4xx path) instead of a
    worker traceback mid-compute.  ``num_requests`` defaults to 20000 and
    ``seed`` to 1, matching :func:`run_evaluation`; re-encoding the same
    task (dict round trip, any key order) yields an equal task and
    therefore the same store digest.
    """
    if not isinstance(payload, dict):
        raise SimulationError(
            f"task must be a JSON object, got {type(payload).__name__}")
    unknown = sorted(set(payload) - set(TASK_FIELDS))
    if unknown:
        raise SimulationError(
            f"unknown task fields {unknown}; known: {list(TASK_FIELDS)}")
    architecture = payload.get("architecture")
    if not isinstance(architecture, str):
        raise SimulationError("task field 'architecture' must be a string")
    if architecture not in known_architectures():
        raise SimulationError(
            f"unknown architecture {architecture!r}; "
            f"known: {known_architectures()}")
    workload = payload.get("workload")
    if not isinstance(workload, str):
        raise SimulationError("task field 'workload' must be a string")
    try:
        get_workload(workload)
    except TraceError as error:
        raise SimulationError(str(error)) from None
    num_requests = _require_int(payload, "num_requests", 20_000)
    if num_requests < 1:
        raise SimulationError("task field 'num_requests' must be >= 1")
    seed = _require_int(payload, "seed", 1)
    if not 0 <= seed < 2 ** 32:
        # numpy's RandomState range; catching it here keeps it a 4xx
        # validation error instead of a mid-compute worker failure.
        raise SimulationError(
            "task field 'seed' must be in [0, 2**32)")
    queue_depth = payload.get("queue_depth")
    if queue_depth is not None:
        if isinstance(queue_depth, bool) or not isinstance(queue_depth, int):
            raise SimulationError(
                f"task field 'queue_depth' must be an integer or null, "
                f"got {queue_depth!r}")
        if queue_depth < 1:
            raise SimulationError("task field 'queue_depth' must be >= 1")
    return EvalTask(architecture, workload, num_requests, seed, queue_depth)


def device_for(architecture: str):
    """Per-process memoized device model, shared across every consumer
    (controllers at any queue depth, store fingerprinting).  The build
    is the costly part — COMET's involves the mode-solver stack."""
    device = _DEVICE_CACHE.get(architecture)
    if device is None:
        with _CACHE_LOCK:
            device = _DEVICE_CACHE.get(architecture)
            if device is None:
                device = build_device(architecture)
                _DEVICE_CACHE[architecture] = device
    return device


def clear_device_caches() -> None:
    """Drop every cache a model edit could leave stale.

    Clears the memoized devices and controllers (so the next use
    rebuilds from the current definitions) and the per-process trace
    cache, and shuts the persistent thread pool down (the next fan-out
    starts a fresh one).

    For in-process model edits with a result store in play, call
    :func:`repro.sim.store.clear_fingerprint_cache` instead — it clears
    these caches *and* the memoized fingerprints/digests derived from
    them; clearing only here would leave the store addressing results
    computed under the old model.
    """
    # Under the lock: a concurrent device_for() build must not land its
    # double-checked insert between the two clears and survive with a
    # stale model.
    with _CACHE_LOCK:
        _DEVICE_CACHE.clear()
        _CONTROLLER_CACHE.clear()
    cached_trace_arrays.cache_clear()
    shutdown_worker_pool()


def shutdown_worker_pool() -> None:
    """Shut the persistent thread pool down (the next fan-out rebuilds
    it)."""
    global _THREAD_POOL
    if _THREAD_POOL is not None:
        executor, _size = _THREAD_POOL
        _THREAD_POOL = None
        executor.shutdown(wait=True, cancel_futures=True)


def _ensure_thread_pool(workers: int):
    """The persistent thread pool, built on first use and rebuilt only
    when the requested size changes."""
    global _THREAD_POOL
    if _THREAD_POOL is not None:
        executor, size = _THREAD_POOL
        if size == workers:
            return executor
        shutdown_worker_pool()
    from concurrent.futures import ThreadPoolExecutor

    executor = ThreadPoolExecutor(max_workers=workers,
                                  thread_name_prefix="repro-eval")
    _THREAD_POOL = (executor, workers)
    return executor


atexit.register(shutdown_worker_pool)

# A fork while another thread holds one of the engine locks would leave
# the child's copy locked forever (only the forking thread survives),
# so hand the child fresh locks instead of inheriting snapshotted ones.
os.register_at_fork(
    after_in_child=lambda: globals().update(
        _CACHE_LOCK=threading.Lock(), _PROFILE_LOCK=threading.Lock(),
        _COMPUTED_LOCK=threading.Lock()))


def controller_for(architecture: str,
                   queue_depth: Optional[int] = None) -> MemoryController:
    """Per-process memoized controller over the shared device model.
    ``queue_depth`` overrides the per-channel default transaction queue
    (distinct depths share one device build)."""
    key = (architecture, queue_depth)
    controller = _CONTROLLER_CACHE.get(key)
    if controller is None:
        device = device_for(architecture)
        with _CACHE_LOCK:
            controller = _CONTROLLER_CACHE.get(key)
            if controller is None:
                controller = MemoryController(
                    device,
                    queue_depth=(queue_depth if queue_depth is not None
                                 else QUEUE_DEPTH_PER_CHANNEL
                                 * device.channels),
                )
                _CONTROLLER_CACHE[key] = controller
    return controller


def evaluate_cell(task: EvalTask) -> SimStats:
    """Run one grid cell; the unit of work the pool distributes."""
    t0 = time.perf_counter()
    trace = cached_trace_arrays(task.workload, task.num_requests, task.seed)
    t1 = time.perf_counter()
    # The first lookup per architecture builds the device model.
    controller = controller_for(task.architecture, task.queue_depth)
    t2 = time.perf_counter()
    stats = controller.run_arrays(trace, workload_name=task.workload)
    t3 = time.perf_counter()
    _profile_add("trace_s", t1 - t0)
    _profile_add("device_s", t2 - t1)
    _profile_add("simulate_s", t3 - t2)
    return stats


def evaluate_cell_checked(task: EvalTask) -> SimStats:
    """``evaluate_cell`` with the failing cell annotated on error.

    Without this, an exception raised on a pool thread surfaces with no
    indication of which (architecture, workload) cell died — and the
    unexpected kinds (ValueError, numpy errors) are exactly the ones
    that need the cell label most.

    This is the unit of work both the grid pool and the evaluation
    server's executor submit.  It looks ``evaluate_cell`` up at call
    time, so replacement implementations (tests, instrumentation) reach
    every executor.
    """
    try:
        return evaluate_cell(task)
    except Exception as error:
        detail = str(error) if isinstance(error, ReproError) \
            else f"{type(error).__name__}: {error}"
        raise SimulationError(
            f"grid cell ({task.describe()}) failed: {detail}") from error


def _resolve_workers(workers: Optional[int]) -> int:
    """Validate and normalize the worker count.

    ``0`` explicitly means "one worker per available CPU" (it used to be
    silently coerced to 1); negative counts are rejected.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV_VAR, "1")
        try:
            workers = int(raw)
        except ValueError:
            raise SimulationError(
                f"{WORKERS_ENV_VAR} must be an integer, got {raw!r}"
            ) from None
    if workers < 0:
        raise SimulationError("worker count must be non-negative")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


def _map_tasks(tasks: Sequence[EvalTask], workers: int,
               on_result: Optional[ResultCallback] = None
               ) -> List[SimStats]:
    """Map cells over the persistent thread pool, or run them in the
    calling thread for ``workers <= 1`` or a single cell.

    The returned list is in task order; ``on_result`` fires for each
    cell as soon as its stats arrive — in *completion* order under the
    pool, so callers (the result store, the sweep runner) checkpoint
    every finished cell immediately and an interruption loses nothing
    already computed.  ``on_result`` always runs in the calling thread.
    Cell failures re-raise as ``SimulationError`` annotated with the
    failing cell.
    """
    def count_computed() -> None:
        global _COMPUTED_CELLS
        with _COMPUTED_LOCK:
            _COMPUTED_CELLS += 1

    def serial() -> List[SimStats]:
        collected = []
        for task in tasks:
            stats = evaluate_cell_checked(task)
            count_computed()
            if on_result is not None:
                on_result(task, stats)
            collected.append(stats)
        return collected

    mode = "threads" if workers > 1 and len(tasks) > 1 else "serial"
    t_fanout = time.perf_counter()
    try:
        if mode == "serial":
            return serial()
        return _map_tasks_threads(tasks, workers, on_result,
                                  count_computed)
    finally:
        _note_pool_run(mode, len(tasks), time.perf_counter() - t_fanout)


def _map_tasks_threads(tasks: Sequence[EvalTask], workers: int,
                       on_result: Optional[ResultCallback],
                       count_computed: Callable[[], None]
                       ) -> List[SimStats]:
    """Thread fan-out: the compiled twin releases the GIL for the whole
    cell, so threads scale with no result pickling and shared
    device/controller caches.  Each distinct trace is generated (or
    found cached) once in this thread, then every worker reads the same
    arrays."""
    for key in dict.fromkeys((task.workload, task.num_requests, task.seed)
                             for task in tasks):
        cached_trace_arrays(*key)
    executor = _ensure_thread_pool(workers)
    from concurrent.futures import as_completed

    slots: List[Optional[SimStats]] = [None] * len(tasks)
    futures = {executor.submit(evaluate_cell_checked, task): index
               for index, task in enumerate(tasks)}
    try:
        for future in as_completed(futures):
            index = futures[future]
            stats = future.result()
            count_computed()
            if on_result is not None:
                on_result(tasks[index], stats)
            slots[index] = stats
    except BaseException:
        # One cell failed (annotated) or the caller interrupted: stop
        # feeding the pool, let in-flight cells finish, keep the pool.
        for future in futures:
            future.cancel()
        raise
    return slots


def grid_tasks(
    architectures: Sequence[str] = ARCHITECTURE_NAMES,
    workloads: Optional[Iterable[str]] = None,
    num_requests: int = 20_000,
    seed: int = 1,
) -> List[EvalTask]:
    """The validated (architecture x workload) grid as a task list.

    Workload-major order: the cells of one workload are adjacent, so
    each trace is generated once and reused while it is cached.  Shared
    by :func:`run_evaluation` and remote grid
    consumers (the evaluation client's Fig. 9 path), so both expand the
    same grid to the same tasks in the same order.
    """
    workload_names = list(workloads) if workloads is not None \
        else sorted(SPEC_WORKLOADS)
    if not workload_names:
        raise SimulationError("need at least one workload")
    architectures = list(architectures)
    if not architectures:
        raise SimulationError("need at least one architecture")
    for name in workload_names:
        try:
            get_workload(name)
        except TraceError as error:
            raise SimulationError(str(error)) from None
    return [
        EvalTask(arch, workload, num_requests, seed)
        for workload in workload_names
        for arch in architectures
    ]


def run_evaluation(
    architectures: Sequence[str] = ARCHITECTURE_NAMES,
    workloads: Optional[Iterable[str]] = None,
    num_requests: int = 20_000,
    seed: int = 1,
    workers: Optional[int] = None,
    store: Optional["ResultStore"] = None,
    resume: bool = True,
) -> Dict[str, Dict[str, SimStats]]:
    """The full Fig. 9 grid: every architecture on every workload.

    Returns ``results[arch][workload] -> SimStats``.  ``workers`` > 1
    fans the grid out over that many pool threads (``0`` = one per
    CPU); the result is identical to the serial run for the same
    arguments.

    With a :class:`repro.sim.store.ResultStore`, every computed cell is
    checkpointed to disk as soon as it completes; when ``resume`` is
    true, cells whose digest is already in the store are served from it
    instead of being recomputed (``resume=False`` recomputes and
    overwrites).  Stored results are bit-identical to computed ones.
    """
    architectures = list(architectures)
    tasks = grid_tasks(architectures, workloads, num_requests, seed)
    lookup = evaluate_tasks(tasks, workers=workers, store=store,
                            resume=resume)

    results: Dict[str, Dict[str, SimStats]] = {
        arch: {} for arch in architectures
    }
    for task in tasks:
        results[task.architecture][task.workload] = lookup[task]
    return results


def evaluate_tasks(
    tasks: Sequence[EvalTask],
    workers: Optional[int] = None,
    store: Optional["ResultStore"] = None,
    resume: bool = True,
    on_result: Optional[ResultCallback] = None,
    store_latencies: bool = True,
) -> Dict[EvalTask, SimStats]:
    """Evaluate an arbitrary task list with store read-through/write-back.

    The shared core of :func:`run_evaluation` and the sweep runner:
    store hits (when ``resume``) skip :func:`evaluate_cell` entirely,
    misses are fanned out over ``workers`` pool threads and written back
    to the store the moment each result arrives.  ``on_result`` fires for every
    *computed* cell (after the store write), letting callers log
    progress or checkpoint additional state.  ``store_latencies=False``
    writes archival entries without the bulky per-request samples —
    percentile queries still work through the store's fixed-bin latency
    histograms.
    """
    cached: Dict[EvalTask, SimStats] = {}
    if store is not None and resume:
        t0 = time.perf_counter()
        cached = {task: hit for task, hit in store.get_many(tasks).items()
                  if hit is not None}
        _profile_add("store_s", time.perf_counter() - t0)
    missing = [task for task in tasks if task not in cached]

    def checkpoint(task: EvalTask, stats: SimStats) -> None:
        if store is not None:
            t0 = time.perf_counter()
            store.put(task, stats, latencies=store_latencies)
            _profile_add("store_s", time.perf_counter() - t0)
        if on_result is not None:
            on_result(task, stats)

    computed = _map_tasks(missing, _resolve_workers(workers),
                          on_result=checkpoint)
    results = dict(cached)
    results.update(zip(missing, computed))
    return results
