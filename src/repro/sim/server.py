"""Async evaluation service: store read-through, coalescing, bounded compute.

PR 1/PR 2 built batch evaluation (``evaluate_tasks`` fan-out, the
content-addressed :class:`~repro.sim.store.ResultStore`); this module is
the online layer over them — an asyncio daemon that answers evaluation
*queries* instead of running fixed sweeps:

* **One HTTP front-end, one core.**  A minimal HTTP/1.1 endpoint
  (``POST /eval``, ``GET /stats``, ``GET /healthz``, ``POST /shutdown``)
  funnels every query into :meth:`EvalServer.handle_query`.
* **Read-through.**  Every query resolves to :class:`EvalTask` digests;
  cells already in the :class:`ResultStore` are served from disk, and a
  small in-process LRU over *deserialized* :class:`SimStats` short-cuts
  repeated hot cells past JSON parsing entirely.
* **Coalescing.**  N concurrent identical queries trigger exactly one
  computation: the first arrival owns a shared resolution task keyed by
  digest, later arrivals await it (counted in ``/stats`` as
  ``coalesced``).  The shared task is shielded, so one cancelled client
  never aborts a computation other clients are waiting on.
* **Bounded compute.**  Misses are scheduled onto a thread pool of
  ``workers`` threads: one for ``workers <= 1`` (the deterministic test
  configuration), more otherwise.  The compiled scheduler twin runs
  each cell outside the GIL, so the threads share the process's caches
  and dispatch counters and hand results back without pickling.  Store
  I/O runs on its own small thread pool so disk reads never stall the
  event loop; so does an architecture's first task digest, which
  builds its device.  Once a cell's device and workload fingerprints
  are memoized (:func:`~repro.sim.store.memoized_task_digest`), its
  digest is one small hash and stays on the loop.
* **Structured errors.**  Malformed JSON, unknown architectures/
  workloads and bad field types are 4xx-style JSON errors; a cell that
  dies mid-compute comes back as a 5xx JSON error annotated with the
  failing cell (the same ``grid cell (...) failed`` shape the sweep
  path uses) — never a hung connection or a bare worker traceback.
* **Two reply encodings, negotiated.**  Every reply is the JSON of its
  reply object, except a 200 ``POST /eval`` reply to a request whose
  ``Accept`` header names :data:`FRAME_CONTENT_TYPE`: that one is a
  frame (:func:`encode_frame`), a JSON header line followed by the
  per-request samples as packed float64, so 20,000 samples per cell
  are not printed as text and parsed back.  The bundled clients always
  ask for it; curl gets JSON.

Served stats are bit-identical to a direct :func:`evaluate_cell` call
in both encodings: the reply is ``SimStats.to_dict``, Python floats
round-trip exactly through JSON, and frame samples are the float64
bytes themselves.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from collections import OrderedDict
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

import numpy as np

from ..errors import ReproError, SimulationError
from .engine import (EvalTask, _resolve_workers, evaluate_cell_checked,
                     task_from_dict, task_to_dict)
from .stats import SimStats, pack_latencies, unpack_latencies
from .store import ResultStore, memoized_task_digest, task_digest
from .sweep import SweepSpec

#: Default size of the in-process LRU over deserialized SimStats.
DEFAULT_LRU_SIZE = 256

#: Hard cap on cells expanded from a single query (a typo'd sweep must
#: not wedge the daemon behind a million-cell grid).
MAX_CELLS_PER_QUERY = 4096

#: Hard cap on one cell's request count over the wire: a single
#: ``num_requests=2e9`` cell would occupy the bounded executor for
#: hours and allocate multi-GB traces — far past any legitimate query
#: (the full-size grid runs 20k).
MAX_REQUESTS_PER_CELL = 1_000_000

#: Hard cap on an HTTP request body, and on any one line either side
#: reads: the server's request and header lines, the clients' response
#: lines.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Hard cap on HTTP header lines per message, shared with the clients'
#: response parsers — neither side may be pinned in a header-read loop
#: by a peer streaming headers forever.
MAX_HEADER_LINES = 128

#: Content type of the binary ``/eval`` reply (:func:`encode_frame`).
FRAME_CONTENT_TYPE = "application/x-repro-frame"

_HTTP_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    500: "Internal Server Error",
}

#: Counter names reported by ``/stats`` (all start at zero).
COUNTER_NAMES = (
    "queries",        # eval queries accepted
    "cells",          # cells resolved successfully across all queries
    "store_hits",     # cells served from the ResultStore
    "lru_hits",       # cells served from the in-process LRU
    "coalesced",      # cells that joined an in-flight identical compute
    "computed",       # cells actually evaluated by the executor
    "errors",         # queries answered with a structured error
)


def _samples_as_list(value: Any) -> Any:
    """``json.dumps`` hook: a reply's sample array becomes its list."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def encode_json(reply: Dict[str, Any]) -> bytes:
    """A reply object as JSON: sample arrays become lists of floats,
    byte-identical to ``json.dumps`` of the ``SimStats.to_dict()``
    reply."""
    return json.dumps(reply, default=_samples_as_list).encode("utf-8")


def encode_frame(reply: Dict[str, Any]) -> bytes:
    """A 200 ``/eval`` reply object as a binary frame.

    Layout: one header line, the ``json.dumps`` of the reply with each
    result's ``stats.latencies_ns`` array replaced by its length, then
    every result's samples in result order, packed like the store's
    ``.lat`` sidecar (:func:`~repro.sim.stats.pack_latencies`).  The
    body ends exactly at the last block.  Spaces pad the header line
    so each block starts 8-byte aligned (``bytes`` data is, so the
    client's views are too): numpy sums a misaligned float64 view in
    buffered chunks, which would change a served mean in its last bits.
    """
    results, blocks = [], []
    for row in reply["results"]:
        samples = row["stats"]["latencies_ns"]
        results.append({**row, "stats": {**row["stats"],
                                         "latencies_ns": len(samples)}})
        blocks.append(pack_latencies(samples))
    header = json.dumps({**reply, "results": results}).encode("utf-8")
    padding = b" " * (-(len(header) + 1) % 8)
    return b"".join([header, padding, b"\n", *blocks])


def decode_frame(body: bytes,
                 loads: Callable[[bytes], Any]) -> Dict[str, Any]:
    """Inverse of :func:`encode_frame`: the reply object, each result's
    ``stats.latencies_ns`` a float64 view into ``body`` (no copy).

    ``loads`` parses the header line (the caller's ``json.loads``).
    Every shape error — no header line, a header that is not a JSON
    object, a sample count that is not a non-negative int or runs past
    the body, bytes after the last block — raises
    :class:`SimulationError`.
    """
    end = body.find(b"\n")
    if end < 0:
        raise SimulationError("malformed server reply: frame has no "
                              "header line")
    try:
        reply = loads(body[:end])
    except (ValueError, RecursionError) as error:
        raise SimulationError(
            f"malformed server reply: frame header: {error}") from None
    results = reply.get("results", []) if isinstance(reply, dict) else None
    if not isinstance(results, list):
        raise SimulationError("malformed server reply: frame header is "
                              "not a reply object")
    offset = end + 1
    for index, row in enumerate(results):
        stats = row.get("stats") if isinstance(row, dict) else None
        count = stats.get("latencies_ns") if isinstance(stats, dict) \
            else None
        if type(count) is not int or not 0 <= 8 * count <= len(body) - offset:
            raise SimulationError(
                f"malformed server reply: result {index} has no valid "
                f"sample count within the frame")
        stats["latencies_ns"] = unpack_latencies(body, count, offset)
        offset += 8 * count
    if offset != len(body):
        raise SimulationError(
            f"malformed server reply: {len(body) - offset} bytes after "
            f"the last sample block")
    return reply


def _accepts_frame(accept: str) -> bool:
    """Whether an ``Accept`` header lists :data:`FRAME_CONTENT_TYPE`
    (media-type parameters are ignored)."""
    return any(item.split(";", 1)[0].strip().lower() == FRAME_CONTENT_TYPE
               for item in accept.split(","))


def _parse_query(payload: Any) -> Tuple[List[EvalTask], bool]:
    """Expand one eval query into validated tasks.

    Exactly one of ``task`` (single cell), ``tasks`` (batch) or
    ``sweep`` (a :class:`SweepSpec` payload) selects the cells;
    ``latencies: false`` trims the bulky per-request samples from the
    response.  Every validation failure is a ``SimulationError`` — the
    server's 4xx path.
    """
    if not isinstance(payload, dict):
        raise SimulationError(
            f"query must be a JSON object, got {type(payload).__name__}")
    allowed = {"task", "tasks", "sweep", "latencies"}
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise SimulationError(
            f"unknown query fields {unknown}; known: {sorted(allowed)}")
    sources = [key for key in ("task", "tasks", "sweep") if key in payload]
    if len(sources) != 1:
        raise SimulationError(
            "query needs exactly one of 'task', 'tasks' or 'sweep'")
    latencies = payload.get("latencies", True)
    if not isinstance(latencies, bool):
        raise SimulationError(
            f"query field 'latencies' must be a boolean, got {latencies!r}")
    def check_cell_count(count: int) -> None:
        if count > MAX_CELLS_PER_QUERY:
            raise SimulationError(
                f"query expands to {count} cells; the per-query limit "
                f"is {MAX_CELLS_PER_QUERY} — split it into smaller batches")

    if sources[0] == "task":
        tasks = [task_from_dict(payload["task"])]
    elif sources[0] == "tasks":
        raw = payload["tasks"]
        if not isinstance(raw, list) or not raw:
            raise SimulationError(
                "query field 'tasks' must be a non-empty list")
        check_cell_count(len(raw))
        tasks = [task_from_dict(item) for item in raw]
    else:
        spec = SweepSpec.from_dict(payload["sweep"])
        # Check the axis product *before* materializing the cross
        # product: a {1e5 n's x 1e5 seeds} payload is small on the wire
        # but 10^10 tasks in memory.
        check_cell_count(spec.num_cells)
        tasks = spec.tasks()
    for task in tasks:
        if task.num_requests > MAX_REQUESTS_PER_CELL:
            raise SimulationError(
                f"cell ({task.describe()}) exceeds the per-cell request "
                f"limit {MAX_REQUESTS_PER_CELL}")
    return tasks, latencies


class EvalServer:
    """The asyncio evaluation daemon (see the module docstring).

    Construct, ``await start()``, query over HTTP or directly via
    :meth:`handle_query`, ``await stop()``.  ``port=0``
    binds an ephemeral port (read it back from :attr:`http_address`);
    ``workers`` follows the engine convention (``0`` = one per CPU,
    ``<= 1`` = a single compute thread, the configuration the
    deterministic tests pin).
    """

    def __init__(
        self,
        store: Optional[Union[str, Path, ResultStore]] = None,
        workers: int = 1,
        lru_size: int = DEFAULT_LRU_SIZE,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        if store is not None and not isinstance(store, ResultStore):
            store = ResultStore(store)
        self.store = store
        self.workers = _resolve_workers(workers)
        self.host = host
        self.port = port
        self._lru_size = max(0, int(lru_size))
        self._lru: "OrderedDict[str, SimStats]" = OrderedDict()
        self._inflight: Dict[str, "asyncio.Task"] = {}
        self._counters: Dict[str, int] = {name: 0 for name in COUNTER_NAMES}
        self._compute: Optional[ThreadPoolExecutor] = None
        self._io: Optional[ThreadPoolExecutor] = None
        self._servers: List[asyncio.AbstractServer] = []
        self._handlers: Set["asyncio.Task"] = set()
        self._shutdown = asyncio.Event()
        self._started_monotonic: Optional[float] = None
        # Baseline for the fast-path counters: /stats reports this
        # server's delta, not process-lifetime totals (keeps scripted
        # load replays deterministic).
        from .controller import kernel_counters

        self._kernel_baseline = kernel_counters()

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind the HTTP front-end and spin up the executors."""
        self._started_monotonic = time.monotonic()
        self._compute = self._compute_pool()
        self._io = ThreadPoolExecutor(max_workers=2,
                                      thread_name_prefix="eval-store-io")
        http_server = await asyncio.start_server(
            self._accept, self.host, self.port, limit=MAX_BODY_BYTES)
        self.port = http_server.sockets[0].getsockname()[1]
        self._servers.append(http_server)

    def _accept(self, reader: asyncio.StreamReader,
                writer: asyncio.StreamWriter) -> None:
        """The stream server's callback: each connection runs as a task
        this server owns, so :meth:`stop` can cancel it.  Given a
        coroutine function instead, the stream server would own the
        task, and on Python 3.11 it logs a cancelled one at ERROR.
        """
        task = asyncio.ensure_future(self._handle_http(reader, writer))
        self._handlers.add(task)
        task.add_done_callback(self._handlers.discard)

    async def stop(self) -> None:
        """Close the front-end, end its open connections, then shut
        the executors down.

        ``wait_closed()`` does not wait for open connections on every
        Python, so the connection handlers still running are cancelled
        and awaited here.  The executors wait for their running cells on
        a helper thread, which keeps the event loop serving meanwhile.
        """
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        self._servers.clear()
        handlers = list(self._handlers)
        for handler in handlers:
            handler.cancel()
        await asyncio.gather(*handlers, return_exceptions=True)
        for executor in (self._compute, self._io):
            if executor is not None:
                await asyncio.to_thread(executor.shutdown, wait=True,
                                        cancel_futures=True)
        self._compute = self._io = None
        self._shutdown.set()

    async def serve_until_shutdown(self) -> None:
        """``start()`` then block until ``/shutdown`` (or ``stop()``)."""
        await self.start()
        try:
            await self._shutdown.wait()
        finally:
            await self.stop()

    @property
    def http_address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def request_shutdown(self) -> None:
        """Ask the serve loop to exit (idempotent, callable from
        handlers and signal handlers)."""
        self._shutdown.set()

    def _compute_pool(self) -> ThreadPoolExecutor:
        """The bounded compute executor: ``workers`` threads, one for
        ``workers <= 1`` (fully deterministic scheduling, the
        configuration the load-test harness replays).  Construction is
        lazy and cheap, so a broken pool is replaced on the loop."""
        return ThreadPoolExecutor(max_workers=max(1, self.workers),
                                  thread_name_prefix="eval-compute")

    # -- stats / LRU --------------------------------------------------------

    def health_snapshot(self) -> Dict[str, Any]:
        """The ``/healthz`` payload: liveness plus cheap vitals.

        ``{"ok": true}`` is the compatibility floor older probes check;
        the rest lets the fabric's membership prober and ``fabric
        stats`` share one health surface — uptime (monotonic seconds
        since :meth:`start`, ``null`` before it), the in-flight
        resolution count, and the compute pool's kind (always
        ``"thread"``) and size.  Cheap by construction: no store I/O,
        no executor round-trips.
        """
        uptime: Optional[float] = None
        if self._started_monotonic is not None:
            uptime = max(0.0, time.monotonic() - self._started_monotonic)
        return {
            "ok": True,
            "uptime_s": uptime,
            "inflight": len(self._inflight),
            "workers": self.workers,
            "executor": "thread",
        }

    def stats_snapshot(self) -> Dict[str, Any]:
        """The ``/stats`` payload: counters plus configuration.

        ``kernel`` reports the controller's fast-path dispatch counters
        since this server was constructed; the compute threads update
        them in this process.
        """
        from .controller import kernel_counters

        counters = kernel_counters()
        return {
            **self._counters,
            "inflight": len(self._inflight),
            "lru_entries": len(self._lru),
            "lru_size": self._lru_size,
            "workers": self.workers,
            "executor": "thread",
            "store": str(self.store.root) if self.store is not None else None,
            # Clamped: a process-wide reset_kernel_counters() after this
            # server's baseline snapshot must not surface as negative
            # dispatch counts.
            "kernel": {key: max(0, counters[key]
                                - self._kernel_baseline[key])
                       for key in counters},
        }

    def _lru_get(self, digest: str) -> Optional[SimStats]:
        stats = self._lru.get(digest)
        if stats is not None:
            self._lru.move_to_end(digest)
        return stats

    def _lru_put(self, digest: str, stats: SimStats) -> None:
        if self._lru_size <= 0:
            return
        self._lru[digest] = stats
        self._lru.move_to_end(digest)
        while len(self._lru) > self._lru_size:
            self._lru.popitem(last=False)

    # -- resolution core ----------------------------------------------------

    async def resolve_task(self, task: EvalTask) -> Tuple[SimStats, str]:
        """One cell → ``(stats, source)`` with read-through + coalescing.

        ``source`` is ``"lru"``, ``"store"``, ``"computed"`` or
        ``"coalesced"`` (this request joined an identical in-flight
        computation started by an earlier one).
        """
        digest = memoized_task_digest(task)
        if digest is None:
            # First digest of an architecture builds its device model
            # (~0.7 s for COMET) — keep that off the event loop.
            digest = await asyncio.get_running_loop().run_in_executor(
                self._io, task_digest, task)
        stats = self._lru_get(digest)
        if stats is not None:
            self._counters["lru_hits"] += 1
            return stats, "lru"
        shared = self._inflight.get(digest)
        if shared is None:
            created = True
            shared = asyncio.ensure_future(self._resolve_miss(task, digest))
            self._inflight[digest] = shared

            def _cleanup(done: "asyncio.Task", digest: str = digest) -> None:
                if self._inflight.get(digest) is shared:
                    del self._inflight[digest]
                if not done.cancelled():
                    done.exception()    # mark retrieved: no GC warning
            shared.add_done_callback(_cleanup)
        else:
            created = False
            self._counters["coalesced"] += 1
        # Shielded: cancelling one waiter (e.g. a gather sibling failed)
        # must not abort a computation other waiters share.
        stats, source = await asyncio.shield(shared)
        return stats, (source if created else "coalesced")

    async def _resolve_miss(self, task: EvalTask, digest: str) \
            -> Tuple[SimStats, str]:
        """The shared per-digest resolution: store, then compute."""
        loop = asyncio.get_running_loop()
        pool = self._compute
        try:
            if self.store is not None:
                stats = await loop.run_in_executor(
                    self._io, self.store.get, task)
                if stats is not None:
                    self._counters["store_hits"] += 1
                    self._lru_put(digest, stats)
                    return stats, "store"
            pool = self._compute    # re-read: may have been rebuilt
            stats = await loop.run_in_executor(
                pool, evaluate_cell_checked, task)
            self._counters["computed"] += 1
            if self.store is not None:
                await loop.run_in_executor(
                    self._io, self.store.put, task, stats)
            self._lru_put(digest, stats)
            return stats, "computed"
        except BrokenExecutor as error:
            # The pool broke: it is unusable for every later query —
            # rebuild it and surface the failing cell the way the sweep
            # path does.  A broken pool fails *every* pending future at
            # once, so several handlers land here back to back: only
            # the one whose submission pool is still current replaces
            # it (no await between the check and the swap), the rest
            # must not tear down the healthy replacement.
            if self._compute is pool:
                self._compute = self._compute_pool()
                pool.shutdown(wait=False, cancel_futures=True)
            raise SimulationError(
                f"grid cell ({task.describe()}) failed: evaluation worker "
                f"died ({type(error).__name__}); worker pool restarted"
            ) from error
        except asyncio.CancelledError:
            raise
        except Exception as error:
            if isinstance(error, ReproError):
                raise
            raise SimulationError(
                f"grid cell ({task.describe()}) failed: "
                f"{type(error).__name__}: {error}") from error

    async def handle_query(self, payload: Any) -> Tuple[int, Dict[str, Any]]:
        """Answer one eval query → ``(http_status, response_payload)``.

        The core ``POST /eval`` calls; tests may call it directly.  Responses are all-or-nothing: any failing
        cell fails the query with a structured error.  Each result's
        ``stats.latencies_ns`` stays the float64 sample array: the
        front-end encodes it as a JSON list (:func:`encode_json`) or a
        frame block (:func:`encode_frame`).
        """
        self._counters["queries"] += 1
        try:
            tasks, latencies = _parse_query(payload)
        except SimulationError as error:
            self._counters["errors"] += 1
            return 400, {"ok": False, "error": str(error)}
        try:
            resolved = await asyncio.gather(
                *(self.resolve_task(task) for task in tasks))
        except ReproError as error:
            self._counters["errors"] += 1
            return 500, {"ok": False, "error": str(error)}
        self._counters["cells"] += len(tasks)
        results = [
            {
                "task": task_to_dict(task),
                "digest": task_digest(task),   # memoized by resolution
                "source": source,
                "stats": stats.to_dict(latencies=latencies, as_list=False),
            }
            for task, (stats, source) in zip(tasks, resolved)
        ]
        return 200, {"ok": True, "results": results}

    # -- HTTP front-end -----------------------------------------------------

    async def _handle_http(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        """One HTTP/1.1 request per connection (``Connection: close``)."""
        shutting_down = False
        try:
            status, payload, frame = await self._http_exchange(reader)
            if status == 200 and payload.get("shutting_down"):
                shutting_down = True
            await self._write_http(writer, status, payload, frame)
        except (asyncio.IncompleteReadError, ConnectionError,
                asyncio.LimitOverrunError, ValueError):
            pass    # client went away or sent garbage beyond recovery
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            if shutting_down:
                # Response flushed first, then the serve loop exits.
                self.request_shutdown()

    async def _http_exchange(self, reader: asyncio.StreamReader) \
            -> Tuple[int, Dict[str, Any], bool]:
        """Read one request and answer it → ``(status, payload,
        frame)``; ``frame`` says whether to send the payload as a
        binary frame: only a 200 ``/eval`` reply to a request that
        asked for one."""
        request_line = await reader.readline()
        if not request_line:
            raise ConnectionError("empty request")
        try:
            method, target, _version = \
                request_line.decode("latin-1").split(None, 2)
        except ValueError:
            self._counters["errors"] += 1
            return 400, {"ok": False, "error": "malformed request line"}, \
                False
        headers: Dict[str, str] = {}
        header_lines = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            header_lines += 1
            if header_lines > MAX_HEADER_LINES:
                self._counters["errors"] += 1
                return 400, {"ok": False,
                             "error": f"more than {MAX_HEADER_LINES} "
                                      f"header lines"}, False
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            self._counters["errors"] += 1
            return 400, {"ok": False, "error": "bad Content-Length"}, False
        if length < 0 or length > MAX_BODY_BYTES:
            self._counters["errors"] += 1
            return 413, {"ok": False,
                         "error": f"body exceeds {MAX_BODY_BYTES} bytes"}, \
                False
        body = await reader.readexactly(length) if length else b""
        path = target.split("?", 1)[0]
        status, payload = await self._route_http(method, path, body)
        frame = status == 200 and path == "/eval" \
            and _accepts_frame(headers.get("accept", ""))
        return status, payload, frame

    async def _route_http(self, method: str, path: str, body: bytes) \
            -> Tuple[int, Dict[str, Any]]:
        if path == "/healthz":
            if method != "GET":
                return self._method_not_allowed("GET")
            return 200, self.health_snapshot()
        if path == "/stats":
            if method != "GET":
                return self._method_not_allowed("GET")
            return 200, {"ok": True, "stats": self.stats_snapshot()}
        if path == "/eval":
            if method != "POST":
                return self._method_not_allowed("POST")
            try:
                payload = json.loads(body)
            except (ValueError, RecursionError) as error:
                # ValueError covers a body that is not UTF-8 as well as
                # bad JSON; RecursionError, nesting too deep to parse.
                self._counters["errors"] += 1
                return 400, {"ok": False,
                             "error": f"malformed JSON body: {error}"}
            return await self.handle_query(payload)
        if path == "/shutdown":
            if method != "POST":
                return self._method_not_allowed("POST")
            return 200, {"ok": True, "shutting_down": True}
        self._counters["errors"] += 1
        return 404, {"ok": False, "error": f"unknown path {path!r}; "
                     f"routes: /eval /stats /healthz /shutdown"}

    def _method_not_allowed(self, allowed: str) -> Tuple[int, Dict[str, Any]]:
        self._counters["errors"] += 1
        return 405, {"ok": False, "error": f"method not allowed; use {allowed}"}

    @staticmethod
    async def _write_http(writer: asyncio.StreamWriter, status: int,
                          payload: Dict[str, Any], frame: bool) -> None:
        if frame:
            content_type, body = FRAME_CONTENT_TYPE, encode_frame(payload)
        else:
            content_type, body = "application/json", encode_json(payload)
        head = (f"HTTP/1.1 {status} {_HTTP_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()


async def _serve(server: EvalServer, quiet: bool = False) -> None:
    """CLI body: start, announce, install signal handlers, serve."""
    import signal

    await server.start()
    if not quiet:
        print(f"ready: {server.http_address}", flush=True)
        if server.store is not None:
            print(f"store: {server.store.root}", flush=True)
        print(f"workers: {server.workers} (thread)", flush=True)
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, server.request_shutdown)
        except (NotImplementedError, RuntimeError):
            pass    # non-unix event loops: KeyboardInterrupt still works
    try:
        await server._shutdown.wait()
    finally:
        await server.stop()


def serve_main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.sim serve`` — run the daemon until shutdown."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.sim serve",
        description="Async evaluation daemon: JSON queries over HTTP, "
                    "with result-store read-through, request coalescing "
                    "and an LRU.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8787,
                        help="HTTP port (0 = ephemeral, printed on start)")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="result store directory for read-through and "
                             "write-back")
    parser.add_argument("--workers", type=int, default=1,
                        help="compute threads (0 = one per CPU)")
    parser.add_argument("--lru", type=int, default=DEFAULT_LRU_SIZE,
                        help="in-process LRU entries over deserialized "
                             "stats (0 disables)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the startup banner")
    args = parser.parse_args(argv)
    try:
        server = EvalServer(store=args.store, workers=args.workers,
                            lru_size=args.lru, host=args.host,
                            port=args.port)
    except (SimulationError, OSError) as error:
        parser.error(str(error))
    try:
        asyncio.run(_serve(server, quiet=args.quiet))
    except KeyboardInterrupt:
        pass    # signal handler missed the window: still a clean exit
    except OSError as error:
        print(f"error: cannot serve on {args.host}:{args.port}: {error}",
              file=sys.stderr)
        return 1
    if not args.quiet:
        print("shutdown clean", flush=True)
    return 0
