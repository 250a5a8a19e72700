"""Clients for the async evaluation service (:mod:`repro.sim.server`).

One wire protocol, one response reader, two I/O shells:

* The daemon speaks HTTP/1.1 at ``http://host:port``, one request per
  connection.  :func:`_request_bytes` builds every request and
  :func:`_response_steps` parses every reply without doing any I/O
  itself: the sync :class:`EvalClient` feeds it from a blocking socket,
  the :class:`AsyncEvalClient` from asyncio streams.  Both clients
  therefore apply the same parse checks and raise the same errors
  after the same number of attempts.
* Both list ``application/x-repro-frame`` in ``Accept``, so a 200
  ``/eval`` reply arrives as a binary frame
  (:func:`repro.sim.server.encode_frame`): a JSON header plus the
  per-request samples as packed float64, which become read-only views
  into the reply body without a copy.  Every other reply, and every
  reply from a daemon that predates frames, is JSON; the
  ``Content-Type`` of each reply says which.

``REPRO_EVAL_SERVER`` names the default server address, which is how
``exp/fig9.py`` and the ``python -m repro.sim query`` CLI find a warm
daemon.  Responses deserialize back into :class:`SimStats` that are
bit-identical to a local :func:`repro.sim.engine.evaluate_cell` call in
either encoding: frame samples are the float64 bytes themselves, and
Python floats survive JSON exactly.

**Transient failures.**  Connection-level problems — refused connects,
resets, a daemon restarting mid-sweep — raise :class:`TransportError`
(a :class:`SimulationError` subclass) and are retried with exponential
backoff + jitter for the idempotent operations (eval / stats / ping),
up to ``retries`` extra attempts per call.  ``POST /shutdown`` is never
retried: a shutdown whose response was lost may already have landed,
and re-sending it to the daemon that restarted in between would kill
the *new* daemon.  Structured server errors and malformed responses
are not retried — they are deterministic, not transient; a reply of
the wrong shape raises ``SimulationError("malformed server reply:
...")``.
"""

from __future__ import annotations

import json
import os
import random
import socket
import sys
import time
import urllib.parse
from typing import (Any, BinaryIO, Dict, Generator, List, Optional, Sequence,
                    Tuple)

from ..errors import SimulationError
from .engine import EvalTask, task_to_dict
from .server import (FRAME_CONTENT_TYPE, MAX_BODY_BYTES, MAX_HEADER_LINES,
                     decode_frame)
from .stats import SimStats
from .sweep import SweepSpec

#: Environment variable naming the default evaluation-server address;
#: when set, ``exp/fig9.py`` routes its grid through the daemon.
SERVER_ENV_VAR = "REPRO_EVAL_SERVER"

DEFAULT_TIMEOUT = 600.0

#: Extra attempts after a transport failure of an idempotent call.
DEFAULT_RETRIES = 2

#: Base backoff before the first retry (seconds); doubles per attempt,
#: with multiplicative jitter in [0.5, 1.5).
DEFAULT_BACKOFF = 0.2

#: Ceiling on the un-jittered retry delay (seconds).  ``backoff *
#: 2**attempt`` is unbounded — at a high attempt count (the fabric's
#: ``cell_attempts`` budget compounds with per-call retries) a single
#: cell could sleep for minutes; the cap keeps the worst wait bounded
#: while preserving the early exponential spread.
DEFAULT_MAX_BACKOFF = 30.0

#: ``Accept`` header of every HTTP request: a 200 ``/eval`` reply as a
#: binary frame, anything else as JSON.
ACCEPT = f"{FRAME_CONTENT_TYPE}, application/json"

#: Operations that must make exactly one attempt, whatever ``retries``
#: says: a lost shutdown response may mean the shutdown *landed*, and
#: re-sending it would take down a daemon that restarted in between.
NON_IDEMPOTENT_OPS = frozenset({"shutdown"})


class TransportError(SimulationError):
    """A connection-level failure (refused, reset, timed out, closed
    before a complete response) — transient, safe to retry for
    idempotent operations.  Malformed-but-complete responses stay
    plain :class:`SimulationError`: a server sending garbage will send
    the same garbage again."""


def _retry_delay(backoff: float, attempt: int,
                 max_backoff: float = DEFAULT_MAX_BACKOFF) -> float:
    """Exponential backoff with multiplicative jitter, capped.

    Jitter spreads a fleet of clients hammering a restarted daemon
    back out in time instead of having every retry land in the same
    instant (the thundering-herd failure mode a fabric run exposes).
    ``max_backoff`` bounds the un-jittered delay so a deep attempt
    count never turns into a multi-minute sleep on one cell.
    """
    return min(backoff * (2 ** attempt), max_backoff) * \
        (0.5 + random.random())


def default_server() -> Optional[str]:
    """The ``$REPRO_EVAL_SERVER`` address, or ``None``."""
    return os.environ.get(SERVER_ENV_VAR) or None


def _split_address(address: Optional[str]) -> Tuple[str, int]:
    """Normalize an address (``http://host:port`` or ``host:port``)
    into ``(host, port)``."""
    address = address or default_server()
    if not address:
        raise SimulationError(
            f"no evaluation server address: pass one explicitly or set "
            f"${SERVER_ENV_VAR}")
    if "://" not in address:
        address = "http://" + address
    parsed = urllib.parse.urlsplit(address)
    if parsed.scheme != "http":
        raise SimulationError(
            f"unsupported server scheme {parsed.scheme!r} in {address!r}; "
            f"use http://host:port")
    if not parsed.hostname or not parsed.port:
        raise SimulationError(
            f"server address {address!r} needs an explicit host and port")
    return parsed.hostname, parsed.port


def _check_reply(reply: Any, status: Optional[int] = None) -> Dict[str, Any]:
    """Raise the server's structured error, or return the ok payload."""
    if not isinstance(reply, dict):
        raise SimulationError(f"malformed server reply: {reply!r}")
    if not reply.get("ok", False):
        error = reply.get("error", "unknown server error")
        prefix = f"server error ({status}): " if status else "server error: "
        raise SimulationError(prefix + str(error))
    return reply


def _decode_body(raw: bytes, content_type: str = "application/json") \
        -> Any:
    """One reply body → its reply object, by ``Content-Type``: a binary
    ``/eval`` frame or JSON.  Both clients decode every reply here."""
    if content_type.split(";", 1)[0].strip().lower() == FRAME_CONTENT_TYPE:
        return decode_frame(raw, json.loads)
    try:
        return json.loads(raw)
    except (ValueError, RecursionError) as error:
        raise SimulationError(
            f"malformed server response: {error}") from error


def _request_bytes(host: str, port: int, method: str, path: str,
                   payload: Optional[Dict[str, Any]] = None) -> bytes:
    """One HTTP/1.1 request as sent on the wire: the head, then the
    JSON of ``payload`` (no body without one)."""
    body = json.dumps(payload).encode() if payload is not None else b""
    head = (f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            f"Accept: {ACCEPT}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n").encode("latin-1")
    return head + body


#: The error both shells raise for a response line longer than
#: ``MAX_BODY_BYTES``, the server's own cap.
_STREAM_LIMIT_MESSAGE = (
    f"server response line exceeds the {MAX_BODY_BYTES}-byte stream "
    f"limit; request latencies=False for very large cells")


def _response_steps() -> Generator[Optional[int], bytes, Tuple[int, Any]]:
    """Parse one HTTP response without doing any I/O.

    A generator that a client shell drives: each ``yield`` asks for the
    next line (``None``) or for exactly that many body bytes (an
    ``int``), and the shell sends back the bytes it read.  It returns
    ``(status, reply)``, the body decoded by :func:`_decode_body`.

    A complete but malformed response raises :class:`SimulationError`,
    which is not retried: a bad status line, more than
    ``MAX_HEADER_LINES`` header lines (a peer streaming headers forever
    must not pin the client here), or a ``Content-Length`` that is not
    a non-negative integer.  EOF before the status line raises
    :class:`TransportError`: the daemon died between accept and reply,
    a restart race.
    """
    status_line = yield None
    if not status_line:
        raise TransportError(
            "evaluation server closed the connection before responding")
    try:
        status = int(status_line.split()[1])
    except (IndexError, ValueError):
        raise SimulationError(
            f"malformed HTTP status line: {status_line!r}") from None
    length = 0
    content_type = ""
    header_lines = 0
    while True:
        line = yield None
        if line in (b"\r\n", b"\n", b""):
            break
        header_lines += 1
        if header_lines > MAX_HEADER_LINES:
            raise SimulationError(
                f"server response has more than {MAX_HEADER_LINES} "
                f"header lines")
        name, _, value = line.decode("latin-1").partition(":")
        name = name.strip().lower()
        if name == "content-type":
            content_type = value.strip()
        elif name == "content-length":
            try:
                length = int(value.strip())
            except ValueError:
                raise SimulationError(
                    f"malformed Content-Length header: "
                    f"{value.strip()!r}") from None
    if length < 0:
        raise SimulationError(f"malformed Content-Length header: {length}")
    body = yield length
    return status, _decode_body(body, content_type)


def _results_to_stats(tasks: Sequence[EvalTask], reply: Dict[str, Any]) \
        -> Dict[EvalTask, SimStats]:
    """Zip an eval reply back onto the requested tasks (server order ==
    request order; the echoed task dict is cross-checked).  A reply of
    the wrong shape raises ``SimulationError("malformed server reply:
    ...")``."""
    results = reply.get("results")
    if not isinstance(results, list) or len(results) != len(tasks):
        raise SimulationError(
            f"server returned {len(results) if isinstance(results, list) else 'malformed'} "
            f"results for {len(tasks)} tasks")
    lookup: Dict[EvalTask, SimStats] = {}
    for index, (task, row) in enumerate(zip(tasks, results)):
        if not isinstance(row, dict) or not isinstance(row.get("stats"),
                                                       dict):
            raise SimulationError(
                f"malformed server reply: result {index} is not an object "
                f"with a stats object")
        echoed = row.get("task")
        if echoed != task_to_dict(task):
            raise SimulationError(
                f"server reply out of order: expected {task.describe()}, "
                f"got {echoed!r}")
        try:
            lookup[task] = SimStats.from_dict(row["stats"])
        except (TypeError, ValueError, OverflowError) as error:
            raise SimulationError(
                f"malformed server reply: stats of {task.describe()}: "
                f"{error}") from error
    return lookup


class EvalClient:
    """Synchronous client: the shared reader over a blocking socket.

    ``EvalClient()`` with no address uses ``$REPRO_EVAL_SERVER``.
    Every call opens one connection (the server speaks ``Connection:
    close``), and ``timeout`` bounds the connect and each read.
    ``retries`` extra attempts (exponential backoff from ``backoff``
    seconds, jittered) absorb transient transport failures of the
    idempotent operations; shutdown always makes exactly one attempt.
    """

    def __init__(self, address: Optional[str] = None,
                 timeout: float = DEFAULT_TIMEOUT,
                 retries: int = DEFAULT_RETRIES,
                 backoff: float = DEFAULT_BACKOFF,
                 max_backoff: float = DEFAULT_MAX_BACKOFF) -> None:
        self.host, self.port = _split_address(address)
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff = backoff
        self.max_backoff = max_backoff

    # -- transport ----------------------------------------------------------

    @staticmethod
    def _read(stream: BinaryIO, need: Optional[int]) -> bytes:
        """One step of :func:`_response_steps`: a line of at most
        ``MAX_BODY_BYTES`` bytes, or exactly ``need`` body bytes."""
        if need is None:
            line = stream.readline(MAX_BODY_BYTES + 1)
            if len(line) > MAX_BODY_BYTES and not line.endswith(b"\n"):
                raise SimulationError(_STREAM_LIMIT_MESSAGE)
            return line
        chunks = []
        while need > 0:
            # Bounded reads: the buffered reader allocates what it is
            # asked for up front, and a Content-Length is the peer's word.
            chunk = stream.read(min(need, MAX_BODY_BYTES))
            if not chunk:
                raise TransportError("evaluation server closed mid-response")
            chunks.append(chunk)
            need -= len(chunk)
        return b"".join(chunks)

    def _call_once(self, path: str, method: str,
                   payload: Optional[Dict[str, Any]] = None) \
            -> Dict[str, Any]:
        steps = _response_steps()
        try:
            with socket.create_connection((self.host, self.port),
                                          timeout=self.timeout) as sock:
                sock.sendall(_request_bytes(self.host, self.port, method,
                                            path, payload))
                with sock.makefile("rb") as stream:
                    need = next(steps)
                    while True:
                        need = steps.send(self._read(stream, need))
        except StopIteration as done:
            status, reply = done.value
        except OSError as error:
            raise TransportError(
                f"evaluation server {self.host}:{self.port} unreachable: "
                f"{error}") from error
        return _check_reply(reply, status)

    def _call(self, op: str, path: str, method: str,
              payload: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        attempts = 1 if op in NON_IDEMPOTENT_OPS else self.retries + 1
        for attempt in range(attempts):
            if attempt:
                time.sleep(_retry_delay(self.backoff, attempt - 1,
                                        self.max_backoff))
            try:
                return self._call_once(path, method, payload)
            except TransportError:
                if attempt + 1 >= attempts:
                    raise
        raise AssertionError("unreachable")

    # -- queries ------------------------------------------------------------

    def eval_tasks(self, tasks: Sequence[EvalTask],
                   latencies: bool = True) -> Dict[EvalTask, SimStats]:
        """Evaluate a batch; returns ``{task: stats}`` (server-side
        read-through / coalescing / compute as needed)."""
        tasks = list(tasks)
        if not tasks:
            return {}
        payload = {"tasks": [task_to_dict(task) for task in tasks],
                   "latencies": latencies}
        reply = self._call("eval", "/eval", "POST", payload)
        return _results_to_stats(tasks, reply)

    def eval_cell(self, task: EvalTask, latencies: bool = True) -> SimStats:
        """Evaluate one cell."""
        return self.eval_tasks([task], latencies=latencies)[task]

    def eval_sweep(self, spec: SweepSpec,
                   latencies: bool = True) -> Dict[EvalTask, SimStats]:
        """Evaluate a full sweep spec server-side."""
        payload = {"sweep": spec.to_dict(), "latencies": latencies}
        reply = self._call("eval", "/eval", "POST", payload)
        return _results_to_stats(spec.tasks(), reply)

    def stats(self) -> Dict[str, Any]:
        """The daemon's ``/stats`` counters."""
        return self._call("stats", "/stats", "GET")["stats"]

    def health(self) -> Dict[str, Any]:
        """The daemon's ``GET /healthz`` payload: ``ok``, uptime,
        in-flight count, pool kind and size.  Raises on an unreachable
        daemon — use :meth:`ping` for a boolean probe."""
        return self._call("ping", "/healthz", "GET")

    def ping(self) -> bool:
        """True iff the daemon answers its health check."""
        try:
            return bool(self.health().get("ok"))
        except SimulationError:
            return False

    def shutdown(self) -> None:
        """Ask the daemon to exit cleanly."""
        self._call("shutdown", "/shutdown", "POST")


class AsyncEvalClient:
    """Asyncio client: the shared reader over asyncio streams.

    All methods mirror :class:`EvalClient`, including the one
    connection per call and the retry policy (idempotent ops only,
    shutdown never).  ``timeout`` bounds the connect and each read.
    Connections are opened with ``limit=MAX_BODY_BYTES``, the server's
    own cap and the sync shell's line limit, so a response line bigger
    than asyncio's 64 KiB default stream limit parses instead of
    surfacing a raw ``LimitOverrunError`` from ``readline()``.
    """

    def __init__(self, address: Optional[str] = None,
                 timeout: float = DEFAULT_TIMEOUT,
                 retries: int = DEFAULT_RETRIES,
                 backoff: float = DEFAULT_BACKOFF,
                 max_backoff: float = DEFAULT_MAX_BACKOFF) -> None:
        self.host, self.port = _split_address(address)
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff = backoff
        self.max_backoff = max_backoff

    async def _read(self, reader: "Any", need: Optional[int]) -> bytes:
        """One step of :func:`_response_steps`, every failure mode
        structured: timeouts and closed connections are transport
        (retryable), limit overruns are malformed-response errors
        (not)."""
        import asyncio

        try:
            if need is None:
                return await asyncio.wait_for(reader.readline(),
                                              self.timeout)
            return await asyncio.wait_for(reader.readexactly(need),
                                          self.timeout)
        except asyncio.TimeoutError as error:
            raise TransportError(
                "evaluation server timed out mid-response") from error
        except asyncio.IncompleteReadError as error:
            raise TransportError(
                f"evaluation server closed mid-response: {error}") from error
        except (asyncio.LimitOverrunError, ValueError) as error:
            raise SimulationError(_STREAM_LIMIT_MESSAGE) from error
        except OSError as error:
            # A reset/aborted connection mid-read is transport, exactly
            # like a refused connect.
            raise TransportError(
                f"evaluation server connection failed: {error}") from error

    async def _call_once(self, path: str, method: str,
                         payload: Optional[Dict[str, Any]] = None) \
            -> Dict[str, Any]:
        import asyncio

        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port,
                                        limit=MAX_BODY_BYTES),
                self.timeout)
        except (OSError, asyncio.TimeoutError) as error:
            raise TransportError(
                f"evaluation server {self.host}:{self.port} unreachable: "
                f"{error}") from error
        steps = _response_steps()
        try:
            writer.write(_request_bytes(self.host, self.port, method, path,
                                        payload))
            await writer.drain()
            need = next(steps)
            while True:
                need = steps.send(await self._read(reader, need))
        except StopIteration as done:
            status, reply = done.value
        except OSError as error:
            # Write-side resets (the peer dropped us while we sent the
            # request) are transport failures too.
            raise TransportError(
                f"evaluation server connection failed: {error}") from error
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        return _check_reply(reply, status)

    async def _call(self, op: str, path: str, method: str,
                    payload: Optional[Dict[str, Any]] = None) \
            -> Dict[str, Any]:
        import asyncio

        attempts = 1 if op in NON_IDEMPOTENT_OPS else self.retries + 1
        for attempt in range(attempts):
            if attempt:
                await asyncio.sleep(_retry_delay(self.backoff, attempt - 1,
                                                 self.max_backoff))
            try:
                return await self._call_once(path, method, payload)
            except TransportError:
                if attempt + 1 >= attempts:
                    raise
        raise AssertionError("unreachable")

    async def eval_tasks(self, tasks: Sequence[EvalTask],
                         latencies: bool = True) -> Dict[EvalTask, SimStats]:
        tasks = list(tasks)
        if not tasks:
            return {}
        payload = {"tasks": [task_to_dict(task) for task in tasks],
                   "latencies": latencies}
        reply = await self._call("eval", "/eval", "POST", payload)
        return _results_to_stats(tasks, reply)

    async def eval_cell(self, task: EvalTask,
                        latencies: bool = True) -> SimStats:
        return (await self.eval_tasks([task], latencies=latencies))[task]

    async def eval_sweep(self, spec: SweepSpec,
                         latencies: bool = True) -> Dict[EvalTask, SimStats]:
        payload = {"sweep": spec.to_dict(), "latencies": latencies}
        reply = await self._call("eval", "/eval", "POST", payload)
        return _results_to_stats(spec.tasks(), reply)

    async def stats(self) -> Dict[str, Any]:
        return (await self._call("stats", "/stats", "GET"))["stats"]

    async def health(self) -> Dict[str, Any]:
        """The daemon's health payload, as :meth:`EvalClient.health`."""
        return await self._call("ping", "/healthz", "GET")

    async def ping(self) -> bool:
        """True iff the daemon answers its health check (the membership
        prober's probe; mirrors :meth:`EvalClient.ping`)."""
        try:
            return bool((await self.health()).get("ok"))
        except SimulationError:
            return False

    async def shutdown(self) -> None:
        await self._call("shutdown", "/shutdown", "POST")


def evaluate_tasks_remote(tasks: Sequence[EvalTask],
                          address: Optional[str] = None,
                          latencies: bool = True) \
        -> Dict[EvalTask, SimStats]:
    """One-shot remote evaluation (the fig9 read-through path)."""
    return EvalClient(address).eval_tasks(tasks, latencies=latencies)


def query_main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.sim query`` — one query against a daemon."""
    import argparse

    from .factory import ARCHITECTURE_NAMES
    from .tracegen import WORKLOAD_NAMES

    parser = argparse.ArgumentParser(
        prog="repro.sim query",
        description="Query a running evaluation daemon (see "
                    "'python -m repro.sim serve').",
    )
    parser.add_argument("--server", default=None,
                        help=f"daemon address (default: ${SERVER_ENV_VAR}); "
                             f"http://host:port")
    parser.add_argument("--arch", choices=ARCHITECTURE_NAMES)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--requests", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--queue-depth", type=int, default=None)
    parser.add_argument("--stats", action="store_true",
                        help="print the daemon's /stats counters and exit")
    parser.add_argument("--shutdown", action="store_true",
                        help="ask the daemon to exit cleanly")
    args = parser.parse_args(argv)
    try:
        client = EvalClient(args.server)
        if args.stats:
            for key, value in sorted(client.stats().items()):
                print(f"{key:12s}: {value}")
            return 0
        if args.shutdown:
            client.shutdown()
            print("shutdown requested")
            return 0
        if not args.arch or not args.workload:
            parser.error("--arch and --workload are required for an "
                         "evaluation query (or use --stats/--shutdown)")
        task = EvalTask(args.arch, args.workload, args.requests, args.seed,
                        args.queue_depth)
        stats = client.eval_cell(task)
    except SimulationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    row = stats.as_row()
    print(f"architecture : {stats.device_name}")
    print(f"workload     : {stats.workload_name}")
    print(f"requests     : {stats.num_requests} "
          f"({stats.num_reads} R / {stats.num_writes} W)")
    print(f"bandwidth    : {row['bandwidth_gbps']:.2f} GB/s")
    print(f"avg latency  : {row['avg_latency_ns']:.1f} ns "
          f"(p95 {row['p95_latency_ns']:.1f} ns)")
    print(f"EPB          : {row['epb_pj']:.1f} pJ/bit")
    print(f"BW/EPB       : {row['bw_per_epb']:.4f}")
    return 0
