"""Span tracing from outside the program.

The benchmark does not instrument ``repro`` itself.  Instead,
:func:`install` replaces public functions and methods of the program's
modules with wrappers that record a span around each call: its name,
start, end, parent span and the id shared by every span of one cell or
request.  Spans stay in memory and are written out when the run ends
(:meth:`Tracer.dump`).  Recording is off until :meth:`Tracer.start`, so
the harness's own calls into the same functions (reference
computations, store prefill) are never counted.

Times are ``time.perf_counter()``, which on Linux reads the system-wide
monotonic clock, so spans from the daemons and from the benchmark
process share one time axis.
"""

from __future__ import annotations

import concurrent.futures.thread
import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import os
import threading
import time
import types
from collections import defaultdict
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: ``(span_id, trace_id)`` of the innermost open span in this context.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)

#: Span names that start a new trace id, so that the spans of one cell
#: (``evaluate_cell``) or one request (``handle_query``, a client
#: ``eval_cell``) share an id; other spans inherit their parent's.
_TRACE_ROOTS = ("sim.engine.evaluate_cell", "sim.server.handle_query",
                "sim.client.eval_cell")


class Tracer:
    """Collects spans of one process."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._pid = os.getpid()

    def start(self) -> None:
        self.enabled = True

    def stop(self) -> None:
        self.enabled = False

    def _open(self, name: str) -> Tuple[int, int, Optional[int], Any]:
        parent = _CURRENT.get()
        with self._lock:
            span_id = next(self._ids)
        trace_id = span_id if parent is None or name in _TRACE_ROOTS \
            else parent[1]
        token = _CURRENT.set((span_id, trace_id))
        return span_id, trace_id, parent[0] if parent else None, token

    def _close(self, name: str, opened: Tuple[int, int, Optional[int], Any],
               t0: float, attrs: Optional[Dict[str, Any]]) -> None:
        t1 = time.perf_counter()
        span_id, trace_id, parent, token = opened
        _CURRENT.reset(token)
        record = {"pid": self._pid, "id": span_id, "parent": parent,
                  "trace": trace_id, "name": name, "t0": t0, "t1": t1}
        if attrs:
            record["attrs"] = attrs
        with self._lock:
            self.spans.append(record)

    def record(self, name: str, t0: float, t1: float) -> None:
        """Add a span the caller timed itself (an import)."""
        with self._lock:
            span_id = next(self._ids)
            self.spans.append({"pid": self._pid, "id": span_id,
                               "parent": None, "trace": span_id,
                               "name": name, "t0": t0, "t1": t1})

    def wrap(self, func: Any, name: str, attrs_of: Any = None) -> Any:
        """A wrapper of ``func`` recording span ``name`` per call.

        ``attrs_of(args, kwargs)`` may return a dict stored on the span
        (the architecture of a device build, a trace's request count).
        """
        tracer = self

        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                if not tracer.enabled:
                    return await func(*args, **kwargs)
                attrs = attrs_of(args, kwargs) if attrs_of else None
                opened = tracer._open(name)
                t0 = time.perf_counter()
                try:
                    return await func(*args, **kwargs)
                finally:
                    tracer._close(name, opened, t0, attrs)
            return async_wrapper

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return func(*args, **kwargs)
            attrs = attrs_of(args, kwargs) if attrs_of else None
            opened = tracer._open(name)
            t0 = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                tracer._close(name, opened, t0, attrs)
        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


@contextlib.contextmanager
def paused(tracer: Optional[Tracer]) -> Iterator[None]:
    """Record nothing inside the block (the harness's own work, such as
    digesting returned cells between timed passes)."""
    if tracer is None or not tracer.enabled:
        yield
        return
    tracer.stop()
    try:
        yield
    finally:
        tracer.start()


def _patch(tracer: Tracer, owner: Any, attr: str, name: str,
           attrs_of: Any = None) -> None:
    """Replace ``owner.attr`` (a module function, method or
    classmethod) by its span-recording wrapper."""
    raw = vars(owner).get(attr) if isinstance(owner, type) \
        else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr,
                classmethod(tracer.wrap(raw.__func__, name, attrs_of)))
        return
    wrapped = tracer.wrap(raw, name, attrs_of)
    for extra in ("cache_clear", "cache_info"):    # lru_cache functions
        if hasattr(raw, extra):
            setattr(wrapped, extra, getattr(raw, extra))
    setattr(owner, attr, wrapped)


def _propagate_context_into_threads() -> None:
    """Run every thread-pool task in its submitter's context.

    ``ThreadPoolExecutor`` (and asyncio's ``run_in_executor``, built on
    it) starts tasks in an empty context, which would cut the parent
    link of spans opened in the engine's and the server's worker
    threads.
    """
    executor = concurrent.futures.thread.ThreadPoolExecutor
    if getattr(executor.submit, "_perfbench", False):
        return
    submit = executor.submit

    def submit_in_context(self: Any, fn: Any, /, *args: Any,
                          **kwargs: Any) -> Any:
        return submit(self, contextvars.copy_context().run, fn,
                      *args, **kwargs)
    submit_in_context._perfbench = True
    executor.submit = submit_in_context


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every measured layer.

    Names are patched where callers look them up: a function imported
    by name into another module is replaced there too.
    """
    from repro.device import cell, programming
    from repro.photonics import slab
    from repro.sim import (client, controller, engine, fabric, factory,
                           server, stats, store, tracegen)

    _propagate_context_into_threads()
    _patch(tracer, slab.MultilayerSlabSolver, "find_effective_indices",
           "photonics.slab.find_effective_indices")
    _patch(tracer, cell.OpticalGstCell, "fc_for_transmission",
           "device.cell.fc_for_transmission")
    _patch(tracer, programming.CellProgrammer, "level_table",
           "device.programming.level_table")
    for module in (factory, engine):
        _patch(tracer, module, "build_device", "sim.factory.build_device",
               lambda args, kwargs: {"arch": args[0]})
    for module in (tracegen, engine):
        _patch(tracer, module, "cached_trace_arrays",
               "sim.tracegen.cached_trace_arrays")
    _patch(tracer, controller.MemoryController, "run_arrays",
           "sim.controller.run_arrays",
           lambda args, kwargs: {"n": len(args[1]),
                                 "device": args[0].device.name})
    _patch(tracer, engine, "evaluate_cell", "sim.engine.evaluate_cell")
    _patch(tracer, engine, "evaluate_tasks", "sim.engine.evaluate_tasks")
    _patch(tracer, stats.SimStats, "to_dict", "sim.stats.to_dict")
    _patch(tracer, stats.SimStats, "from_dict", "sim.stats.from_dict")
    for module in (store, server, fabric):
        _patch(tracer, module, "task_digest", "sim.store.task_digest")
    _patch(tracer, store.ResultStore, "get", "sim.store.get")
    _patch(tracer, store.ResultStore, "put", "sim.store.put")
    _patch(tracer, server.EvalServer, "handle_query",
           "sim.server.handle_query")
    _patch(tracer, client.EvalClient, "eval_cell", "sim.client.eval_cell")
    _patch(tracer, client.AsyncEvalClient, "eval_cell",
           "sim.client.eval_cell")
    _patch(tracer, fabric, "run_fabric", "sim.fabric.run_fabric")
    # JSON encode (server) and decode (clients) of the wire reply: the
    # modules' ``json`` is swapped for a copy whose dumps/loads record
    # spans; ``nbytes`` on the decode span gives the reply size.
    server.json = _json_proxy(tracer, dumps="sim.server.json_dumps")
    client.json = _json_proxy(tracer, loads="sim.client.json_loads")


def _json_proxy(tracer: Tracer, dumps: Optional[str] = None,
                loads: Optional[str] = None) -> types.ModuleType:
    proxy = types.ModuleType("json")
    proxy.__dict__.update(vars(json))
    if dumps:
        proxy.dumps = tracer.wrap(json.dumps, dumps)
    if loads:
        proxy.loads = tracer.wrap(
            json.loads, loads,
            lambda args, kwargs: {"nbytes": len(args[0])})
    return proxy


# -- analysis ----------------------------------------------------------------


def covered(intervals: Iterable[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of ``[lo, hi]`` that the union of ``intervals`` covers."""
    total, edge = 0.0, lo
    for t0, t1 in sorted(intervals):
        t0, t1 = max(t0, edge), min(t1, hi)
        if t1 > t0:
            total += t1 - t0
            edge = t1
    return total


def self_times(spans: Sequence[Dict[str, Any]]) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    Children are matched by ``(pid, parent id)``; overlapping children
    (a pool running cells on several threads) count once.
    """
    children: Dict[Tuple[int, int], List[Tuple[float, float]]] = \
        defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[(span["pid"], span["parent"])].append(
                (span["t0"], span["t1"]))
    return [max(0.0, span["t1"] - span["t0"] - covered(
        children.get((span["pid"], span["id"]), ()), span["t0"], span["t1"]))
        for span in spans]


def load(path: str) -> List[Dict[str, Any]]:
    with open(path) as handle:
        return json.load(handle)
