"""Clients for the async evaluation service (:mod:`repro.sim.server`).

Two transports, one reply object:

* ``http://host:port`` — the daemon's HTTP endpoint, spoken by the sync
  :class:`EvalClient` (stdlib ``http.client``) and the
  :class:`AsyncEvalClient` (raw asyncio streams).  Both list
  ``application/x-repro-frame`` in ``Accept``, so a 200 ``/eval`` reply
  arrives as a binary frame (:func:`repro.sim.server.encode_frame`):
  a JSON header plus the per-request samples as packed float64, which
  become read-only views into the reply body without a copy.  Every
  other reply, and every reply from a daemon that predates frames, is
  JSON; the ``Content-Type`` of each reply says which.
* ``unix:///path/to.sock`` — the newline-delimited-JSON line protocol
  over a unix socket (both clients).

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

import http.client
import json
import os
import random
import socket
import sys
import time
import urllib.parse
from typing import Any, Dict, List, Optional, Sequence, Tuple

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


def _split_address(address: Optional[str]) -> Tuple[str, Any]:
    """Normalize an address into ``("http", (host, port))`` or
    ``("unix", path)``."""
    address = address or default_server()
    if not address:
        raise SimulationError(
            f"no evaluation server address: pass one explicitly or set "
            f"${SERVER_ENV_VAR}")
    if address.startswith("unix://"):
        path = address[len("unix://"):]
        if not path:
            raise SimulationError(f"empty unix socket path in {address!r}")
        return "unix", path
    if "://" not in address:
        address = "http://" + address
    parsed = urllib.parse.urlsplit(address)
    if parsed.scheme != "http":
        raise SimulationError(
            f"unsupported server scheme {parsed.scheme!r} in {address!r}; "
            f"use http://host:port or unix:///path")
    if not parsed.hostname or not parsed.port:
        raise SimulationError(
            f"server address {address!r} needs an explicit host and port")
    return "http", (parsed.hostname, parsed.port)


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
    """Synchronous client (HTTP or unix line protocol).

    ``EvalClient()`` with no address uses ``$REPRO_EVAL_SERVER``.
    ``retries`` extra attempts (exponential backoff from ``backoff``
    seconds, jittered) absorb transient transport failures of the
    idempotent operations; shutdown always makes exactly one attempt.
    """

    def __init__(self, address: Optional[str] = None,
                 timeout: float = DEFAULT_TIMEOUT,
                 retries: int = DEFAULT_RETRIES,
                 backoff: float = DEFAULT_BACKOFF,
                 max_backoff: float = DEFAULT_MAX_BACKOFF) -> None:
        self.transport, self.target = _split_address(address)
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff = backoff
        self.max_backoff = max_backoff

    # -- transport ----------------------------------------------------------

    def _http_request(self, method: str, path: str,
                      payload: Optional[Dict[str, Any]] = None) \
            -> Tuple[int, Any]:
        host, port = self.target
        connection = http.client.HTTPConnection(host, port,
                                                timeout=self.timeout)
        try:
            body = json.dumps(payload).encode() if payload is not None \
                else None
            headers = {"Accept": ACCEPT}
            if body is not None:
                headers["Content-Type"] = "application/json"
            try:
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                raw = response.read()
            except (OSError, http.client.HTTPException) as error:
                raise TransportError(
                    f"evaluation server {host}:{port} unreachable: "
                    f"{error}") from error
            return response.status, _decode_body(
                raw, response.getheader("Content-Type", ""))
        finally:
            connection.close()

    def _line_request(self, payload: Dict[str, Any]) -> Any:
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.settimeout(self.timeout)
                sock.connect(self.target)
                sock.sendall(json.dumps(payload).encode() + b"\n")
                with sock.makefile("rb") as stream:
                    line = stream.readline()
        except OSError as error:
            raise TransportError(
                f"evaluation server unix://{self.target} unreachable: "
                f"{error}") from error
        if not line:
            raise TransportError("evaluation server closed the connection")
        return _decode_body(line)

    def _call_once(self, op: str, path: str, method: str,
                   payload: Optional[Dict[str, Any]] = None) \
            -> Dict[str, Any]:
        if self.transport == "unix":
            message = dict(payload or {})
            message["op"] = op
            return _check_reply(self._line_request(message))
        status, reply = self._http_request(method, path, payload)
        return _check_reply(reply, status)

    def _call(self, op: str, path: str, method: str,
              payload: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        attempts = 1 if op in NON_IDEMPOTENT_OPS else self.retries + 1
        for attempt in range(attempts):
            if attempt:
                time.sleep(_retry_delay(self.backoff, attempt - 1,
                                        self.max_backoff))
            try:
                return self._call_once(op, path, method, payload)
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
        """The daemon's health payload (``GET /healthz`` / op ping):
        ``ok``, uptime, in-flight count, pool kind and size.  Raises on
        an unreachable daemon — use :meth:`ping` for a boolean probe."""
        if self.transport == "unix":
            return self._call("ping", "", "")
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
    """Asyncio client: same wire formats, non-blocking transports.

    HTTP requests open one connection per call (the server speaks
    ``Connection: close``); unix line-protocol calls do the same for
    simplicity.  All methods mirror :class:`EvalClient`, including the
    retry policy (idempotent ops only, shutdown never).  Connections
    are opened with ``limit=MAX_BODY_BYTES`` — the server's own cap —
    so a latency-bearing response bigger than asyncio's 64 KiB default
    stream limit parses instead of surfacing a raw
    ``LimitOverrunError`` from ``readline()``.
    """

    def __init__(self, address: Optional[str] = None,
                 timeout: float = DEFAULT_TIMEOUT,
                 retries: int = DEFAULT_RETRIES,
                 backoff: float = DEFAULT_BACKOFF,
                 max_backoff: float = DEFAULT_MAX_BACKOFF) -> None:
        self.transport, self.target = _split_address(address)
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff = backoff
        self.max_backoff = max_backoff

    async def _read_line(self, reader: "Any", what: str) -> bytes:
        """One bounded line read with every failure mode structured:
        timeouts and closed connections are transport (retryable),
        limit overruns are malformed-response errors (not)."""
        import asyncio

        try:
            return await asyncio.wait_for(reader.readline(), self.timeout)
        except asyncio.TimeoutError as error:
            raise TransportError(
                f"evaluation server timed out reading {what}") from error
        except (asyncio.LimitOverrunError, ValueError) as error:
            raise SimulationError(
                f"server {what} exceeds the {MAX_BODY_BYTES}-byte stream "
                f"limit; request latencies=False for very large cells"
            ) from error
        except OSError as error:
            # A reset/aborted connection mid-read is transport, exactly
            # like a refused connect.
            raise TransportError(
                f"evaluation server connection failed reading {what}: "
                f"{error}") from error

    async def _http_request(self, method: str, path: str,
                            payload: Optional[Dict[str, Any]] = None) \
            -> Tuple[int, Any]:
        import asyncio

        host, port = self.target
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port, limit=MAX_BODY_BYTES),
                self.timeout)
        except (OSError, asyncio.TimeoutError) as error:
            raise TransportError(
                f"evaluation server {host}:{port} unreachable: "
                f"{error}") from error
        try:
            body = json.dumps(payload).encode() if payload is not None \
                else b""
            head = (f"{method} {path} HTTP/1.1\r\n"
                    f"Host: {host}:{port}\r\n"
                    f"Accept: {ACCEPT}\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    f"Connection: close\r\n\r\n").encode("latin-1")
            writer.write(head + body)
            await writer.drain()
            status_line = await self._read_line(reader, "HTTP status line")
            if not status_line:
                # EOF before a single response byte — the daemon died
                # between accept and reply (a restart race), so this is
                # transport, not a malformed response.
                raise TransportError(
                    "evaluation server closed the connection before "
                    "responding")
            try:
                status = int(status_line.split()[1])
            except (IndexError, ValueError):
                raise SimulationError(
                    f"malformed HTTP status line: {status_line!r}") from None
            length = 0
            content_type = ""
            header_lines = 0
            while True:
                line = await self._read_line(reader, "HTTP header line")
                if line in (b"\r\n", b"\n", b""):
                    break
                header_lines += 1
                if header_lines > MAX_HEADER_LINES:
                    # A runaway (or malicious) peer streaming headers
                    # forever must not pin the client in this loop.
                    raise SimulationError(
                        f"server response has more than "
                        f"{MAX_HEADER_LINES} header lines")
                name, _, value = line.decode("latin-1").partition(":")
                name = name.strip().lower()
                if name == "content-type":
                    content_type = value.strip()
                elif name == "content-length":
                    try:
                        length = int(value.strip())
                    except ValueError:
                        # The structured malformed-response path every
                        # other parse failure takes — never a raw
                        # ValueError escaping to the caller.
                        raise SimulationError(
                            f"malformed Content-Length header: "
                            f"{value.strip()!r}") from None
            if length < 0:
                raise SimulationError(
                    f"malformed Content-Length header: {length}")
            try:
                raw = await asyncio.wait_for(reader.readexactly(length),
                                             self.timeout)
            except asyncio.TimeoutError as error:
                raise TransportError(
                    "evaluation server timed out mid-response") from error
            return status, _decode_body(raw, content_type)
        except asyncio.IncompleteReadError as error:
            raise TransportError(
                f"evaluation server closed mid-response: {error}") from error
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

    async def _line_request(self, payload: Dict[str, Any]) -> Any:
        import asyncio

        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_unix_connection(self.target,
                                             limit=MAX_BODY_BYTES),
                self.timeout)
        except (OSError, asyncio.TimeoutError) as error:
            raise TransportError(
                f"evaluation server unix://{self.target} unreachable: "
                f"{error}") from error
        try:
            try:
                writer.write(json.dumps(payload).encode() + b"\n")
                await writer.drain()
            except OSError as error:
                raise TransportError(
                    f"evaluation server connection failed: "
                    f"{error}") from error
            line = await self._read_line(reader, "line-protocol response")
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if not line:
            raise TransportError("evaluation server closed the connection")
        return _decode_body(line)

    async def _call_once(self, op: str, path: str, method: str,
                         payload: Optional[Dict[str, Any]] = None) \
            -> Dict[str, Any]:
        if self.transport == "unix":
            message = dict(payload or {})
            message["op"] = op
            return _check_reply(await self._line_request(message))
        status, reply = await self._http_request(method, path, payload)
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
                return await self._call_once(op, path, method, payload)
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
        if self.transport == "unix":
            return await self._call("ping", "", "")
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
                             f"http://host:port or unix:///path")
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
