"""Client transport hardening: retry/backoff policy and the
response-parser failure modes a fleet exposes.

The retry tests drive the real clients against a *scriptable* fake
endpoint (each accepted connection consumes the next behavior: drop the
connection, or send canned bytes), so attempt counts are observable and
deterministic.  The parser tests send responses no well-behaved daemon
would produce — a garbage status line, malformed ``Content-Length``,
unbounded header streams, a response line bigger than the stream limit,
eval replies of the wrong shape, truncated or padded ``/eval`` frames —
and pin that every one surfaces as a structured
:class:`SimulationError`, never a raw
``ValueError``/``LimitOverrunError``/``AttributeError``.  Both clients
parse with one reader (``client._response_steps``), so each parser case
runs against both shells and must give the same error after the same
number of connections.
"""

import asyncio
import json
import math
import re
import socket
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.client import (DEFAULT_MAX_BACKOFF, DEFAULT_RETRIES,
                              MAX_BODY_BYTES, MAX_HEADER_LINES,
                              NON_IDEMPOTENT_OPS, AsyncEvalClient,
                              EvalClient, TransportError, _decode_body,
                              _retry_delay)
from repro.sim.engine import EvalTask, task_to_dict
from repro.sim.server import (FRAME_CONTENT_TYPE, decode_frame,
                              encode_frame, encode_json)
from repro.sim.stats import SimStats, summarize_latencies

#: Close the connection without a byte — a daemon dying mid-restart.
DROP = "drop"

TASK = EvalTask("EPCM-MM", "gcc", 300, 7)


def http_response(payload, status=200, content_type="application/json"):
    body = payload if isinstance(payload, bytes) \
        else json.dumps(payload).encode()
    return (f"HTTP/1.1 {status} X\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n").encode() + body


STATS_OK = http_response({"ok": True, "stats": {"computed": 3}})
SHUTDOWN_OK = http_response({"ok": True})


class FakeEndpoint(threading.Thread):
    """Scriptable TCP endpoint for the *sync* client.

    Each accepted connection consumes the next script entry: ``DROP``
    closes immediately, bytes are sent after the request head arrives.
    ``connections`` counts accepts — the retry-policy observable.
    """

    def __init__(self, script):
        super().__init__(daemon=True)
        self.listener = socket.socket()
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(8)
        self.port = self.listener.getsockname()[1]
        self.script = list(script)
        self.connections = 0

    @property
    def address(self):
        return f"http://127.0.0.1:{self.port}"

    def run(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return          # closed — test over
            self.connections += 1
            behavior = self.script.pop(0) if self.script else DROP
            with conn:
                if behavior == DROP:
                    continue
                conn.settimeout(5.0)
                try:
                    head = b""
                    while b"\r\n\r\n" not in head:
                        chunk = conn.recv(4096)
                        if not chunk:
                            break
                        head += chunk
                    conn.sendall(behavior)
                except OSError:
                    continue

    def close(self):
        self.listener.close()


@pytest.fixture
def endpoint(request):
    """Build-and-start helper; always closes the listener."""
    created = []

    def build(script):
        fake = FakeEndpoint(script)
        fake.start()
        created.append(fake)
        return fake

    yield build
    for fake in created:
        fake.close()


def run_async_endpoint(script, scenario):
    """The async twin of :class:`FakeEndpoint`: same script semantics,
    served by ``asyncio.start_server`` on the test's event loop."""
    state = {"connections": 0, "script": list(script)}

    async def handle(reader, writer):
        state["connections"] += 1
        behavior = state["script"].pop(0) if state["script"] else DROP
        try:
            if behavior != DROP:
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                writer.write(behavior)
                await writer.drain()
        except ConnectionError:
            pass        # the client hung up mid-send, as FakeEndpoint allows
        finally:
            writer.close()

    async def wrapper():
        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            client = yield_client(port)
            return await scenario(client), state["connections"]
        finally:
            server.close()
            await server.wait_closed()

    def yield_client(port):
        return AsyncEvalClient(f"http://127.0.0.1:{port}",
                               timeout=5.0, retries=2, backoff=0.001)

    return asyncio.run(wrapper())


class TestRetryPolicy:
    def test_transient_drop_then_recovery_succeeds(self, endpoint):
        fake = endpoint([DROP, DROP, STATS_OK])
        client = EvalClient(fake.address, retries=2, backoff=0.001)
        assert client.stats() == {"computed": 3}
        assert fake.connections == 3

    def test_retry_budget_exhaustion_raises_transport_error(self, endpoint):
        fake = endpoint([DROP, DROP, DROP])
        client = EvalClient(fake.address, retries=2, backoff=0.001)
        with pytest.raises(TransportError):
            client.stats()
        assert fake.connections == 3    # exactly retries + 1 attempts

    def test_retries_zero_means_single_attempt(self, endpoint):
        fake = endpoint([DROP, STATS_OK])
        client = EvalClient(fake.address, retries=0, backoff=0.001)
        with pytest.raises(TransportError):
            client.stats()
        assert fake.connections == 1

    def test_shutdown_is_never_retried(self, endpoint):
        # A lost shutdown response may mean the shutdown *landed*;
        # re-sending it would kill a daemon that restarted in between.
        fake = endpoint([DROP, SHUTDOWN_OK])
        client = EvalClient(fake.address, retries=5, backoff=0.001)
        with pytest.raises(TransportError):
            client.shutdown()
        assert fake.connections == 1
        assert "shutdown" in NON_IDEMPOTENT_OPS

    def test_structured_server_errors_are_not_retried(self, endpoint):
        # Deterministic failures re-fail identically: retrying a 500
        # would just run the broken request again.
        fake = endpoint([http_response({"ok": False, "error": "boom"},
                                       status=500), STATS_OK])
        client = EvalClient(fake.address, retries=3, backoff=0.001)
        with pytest.raises(SimulationError, match="boom") as excinfo:
            client.stats()
        assert not isinstance(excinfo.value, TransportError)
        assert fake.connections == 1

    def test_async_transient_drop_then_recovery(self):
        async def scenario(client):
            return await client.stats()
        stats, connections = run_async_endpoint(
            [DROP, DROP, STATS_OK], scenario)
        assert stats == {"computed": 3}
        assert connections == 3

    def test_async_shutdown_is_never_retried(self):
        async def scenario(client):
            with pytest.raises(TransportError):
                await client.shutdown()
            return None
        _, connections = run_async_endpoint([DROP, SHUTDOWN_OK], scenario)
        assert connections == 1

    def test_retry_delay_is_jittered_exponential(self):
        for attempt in range(4):
            nominal = 0.2 * (2 ** attempt)
            samples = [_retry_delay(0.2, attempt) for _ in range(200)]
            assert all(0.5 * nominal <= s < 1.5 * nominal for s in samples)
            # Jitter actually jitters — a fleet's retries must spread.
            assert len({round(s, 9) for s in samples}) > 1

    def test_default_retry_budget_is_small(self):
        assert 1 <= DEFAULT_RETRIES <= 3

    def test_retry_delay_is_capped_by_max_backoff(self):
        # Unbounded backoff * 2**attempt sleeps for minutes at the
        # attempt counts a long fabric run reaches; the cap bounds
        # every delay (jitter included: at most 1.5x the cap).
        samples = [_retry_delay(0.2, attempt, max_backoff=1.0)
                   for attempt in range(16) for _ in range(20)]
        assert all(sample < 1.5 * 1.0 for sample in samples)
        # Small attempts are untouched by a generous cap — the default
        # schedule below the ceiling is exactly what it always was.
        for attempt in range(3):
            nominal = 0.2 * (2 ** attempt)
            assert all(0.5 * nominal
                       <= _retry_delay(0.2, attempt, max_backoff=60.0)
                       < 1.5 * nominal for _ in range(50))

    def test_default_max_backoff_bounds_the_worst_case(self):
        assert 0 < DEFAULT_MAX_BACKOFF <= 60.0
        assert _retry_delay(0.2, 60) < 1.5 * DEFAULT_MAX_BACKOFF

    def test_max_backoff_knob_caps_real_retry_sleeps(self, endpoint):
        # A pathological base backoff with a tight cap: the two retry
        # sleeps are bounded by the cap, not the exponential schedule.
        fake = endpoint([DROP, DROP, STATS_OK])
        client = EvalClient(fake.address, retries=2, backoff=30.0,
                            max_backoff=0.02)
        started = time.monotonic()
        assert client.stats() == {"computed": 3}
        assert time.monotonic() - started < 5.0
        assert fake.connections == 3

    def test_async_client_accepts_max_backoff(self):
        client = AsyncEvalClient("http://127.0.0.1:1", backoff=30.0,
                                 max_backoff=0.02)
        assert client.max_backoff == 0.02


def stats_via(shell, response):
    """``stats()`` on the ``shell`` client against one canned response
    → ``(outcome, connections)``: the outcome is the reply or the
    :class:`SimulationError` raised, and a retried failure shows as a
    connection count above one."""
    if shell == "sync":
        fake = FakeEndpoint([response])
        fake.start()
        try:
            client = EvalClient(fake.address, timeout=5.0, retries=2,
                                backoff=0.001)
            try:
                outcome = client.stats()
            except SimulationError as error:
                outcome = error
        finally:
            fake.close()
        return outcome, fake.connections

    async def scenario(client):
        try:
            return await client.stats()
        except SimulationError as error:
            return error
    return run_async_endpoint([response], scenario)


@pytest.mark.parametrize("shell", ["sync", "async"])
class TestResponseParser:
    """Both shells drive one reader, so a complete but malformed
    response is the same structured error in each, after one
    connection: it is not retried."""

    def assert_structured(self, shell, response, match):
        outcome, connections = stats_via(shell, response)
        assert isinstance(outcome, SimulationError), outcome
        assert not isinstance(outcome, TransportError), outcome
        assert re.search(match, str(outcome)), outcome
        assert connections == 1

    def test_garbage_status_line_is_structured(self, shell):
        self.assert_structured(
            shell, b"HTTTP 2xx\r\nContent-Length: 2\r\n\r\n{}",
            "malformed HTTP status line")

    def test_malformed_content_length_is_structured(self, shell):
        response = (b"HTTP/1.1 200 X\r\n"
                    b"Content-Length: not-a-number\r\n"
                    b"Connection: close\r\n\r\n{}")
        self.assert_structured(shell, response, "malformed Content-Length")

    def test_negative_content_length_is_structured(self, shell):
        response = (b"HTTP/1.1 200 X\r\n"
                    b"Content-Length: -7\r\n"
                    b"Connection: close\r\n\r\n{}")
        self.assert_structured(shell, response, "malformed Content-Length")

    def test_header_line_count_is_bounded(self, shell):
        junk = b"".join(b"X-Pad-%d: y\r\n" % i
                        for i in range(MAX_HEADER_LINES + 8))
        response = (b"HTTP/1.1 200 X\r\n" + junk
                    + b"Content-Length: 2\r\n\r\n{}")
        self.assert_structured(
            shell, response, f"more than {MAX_HEADER_LINES} header lines")

    def test_oversized_header_line_is_structured(self, shell):
        # A line bigger than the stream limit must surface as a
        # structured error, not asyncio's raw readline() ValueError or
        # an unbounded read in the sync shell.
        response = (b"HTTP/1.1 200 X\r\nX-Pad: "
                    + b"y" * (MAX_BODY_BYTES + 4096)
                    + b"\r\nContent-Length: 2\r\n\r\n{}")
        self.assert_structured(shell, response, "stream limit")

    def test_within_limit_response_parses(self, shell):
        # The reason the async shell opens connections with
        # limit=MAX_BODY_BYTES: a header line and a body far bigger
        # than asyncio's 64 KiB default both parse, in both shells.
        payload = {"ok": True, "stats": {"pad": "y" * (256 * 1024)}}
        body = json.dumps(payload).encode()
        response = (b"HTTP/1.1 200 X\r\nX-Pad: " + b"y" * (256 * 1024)
                    + b"\r\nContent-Length: %d\r\n\r\n" % len(body)
                    + body)
        assert stats_via(shell, response) == (payload["stats"], 1)


def _stats_row(stats):
    return {"task": task_to_dict(TASK), "digest": "0" * 64,
            "source": "computed", "stats": stats}


#: Eval replies of the wrong shape, each as the client receives it.
MALFORMED_EVAL_REPLIES = {
    "result-not-an-object": http_response({"ok": True, "results": [42]}),
    "row-without-stats": http_response(
        {"ok": True, "results": [{"task": task_to_dict(TASK)}]}),
    "stats-missing-fields": http_response(
        {"ok": True, "results": [_stats_row({"device_name": "x"})]}),
    "stats-bad-field-type": http_response(
        {"ok": True, "results": [_stats_row(
            {"device_name": "x", "workload_name": "gcc", "num_requests": 1,
             "num_reads": 1, "num_writes": 0, "total_bytes": 64,
             "sim_time_ns": "soon", "busy_time_ns": 1.0,
             "active_time_ns": 1.0})]}),
    "frame-count-past-end": http_response(
        json.dumps({"ok": True, "results": [_stats_row(
            {"latencies_ns": 3})]}).encode() + b"\n" + bytes(16),
        content_type=FRAME_CONTENT_TYPE),
}


class TestMalformedEvalReplies:
    """A complete reply of the wrong shape is a structured, unretried
    error in both clients — never a raw AttributeError/KeyError/
    TypeError, which would kill a fabric worker with its cell."""

    @pytest.mark.parametrize("name", sorted(MALFORMED_EVAL_REPLIES))
    def test_sync_client(self, endpoint, name):
        fake = endpoint([MALFORMED_EVAL_REPLIES[name]])
        client = EvalClient(fake.address, retries=2, backoff=0.001)
        with pytest.raises(SimulationError,
                           match="malformed server reply") as excinfo:
            client.eval_cell(TASK)
        assert not isinstance(excinfo.value, TransportError)
        assert fake.connections == 1

    @pytest.mark.parametrize("name", sorted(MALFORMED_EVAL_REPLIES))
    def test_async_client(self, name):
        async def scenario(client):
            with pytest.raises(SimulationError,
                               match="malformed server reply") as excinfo:
                await client.eval_cell(TASK)
            assert not isinstance(excinfo.value, TransportError)
        _, connections = run_async_endpoint(
            [MALFORMED_EVAL_REPLIES[name]], scenario)
        assert connections == 1


#: Addresses urllib refuses to parse: a port that is not an integer, a
#: port out of range, an IPv6 host with no closing bracket.
BAD_ADDRESSES = ("http://127.0.0.1:abc", "http://127.0.0.1:99999",
                 "http://[::1")


class TestServerAddresses:
    """A server address that does not parse is the structured error
    every other bad address gets, naming the address — never
    urllib's raw ValueError."""

    @pytest.mark.parametrize("address", BAD_ADDRESSES)
    @pytest.mark.parametrize("shell", [EvalClient, AsyncEvalClient])
    def test_bad_address_is_structured(self, shell, address):
        with pytest.raises(SimulationError,
                           match="bad server address") as excinfo:
            shell(address)
        assert repr(address) in str(excinfo.value)

    def test_query_cli_with_a_bad_port_exits_1(self, capsys):
        from repro.sim.client import query_main
        assert query_main(["--server", "http://127.0.0.1:abc",
                           "--stats"]) == 1
        assert "bad server address" in capsys.readouterr().err


# -- the /eval frame parser ---------------------------------------------------

#: Samples as a daemon may produce them, plus the floats JSON spells
#: specially: NaN, both infinities, and negative zero.
SAMPLES = st.lists(
    st.floats(allow_nan=False, width=64)
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    max_size=24)
FIELD_FLOATS = st.floats(min_value=0.0, max_value=1e12, allow_nan=False)


@st.composite
def sim_stats(draw):
    """A SimStats with raw samples, or with none but a summary (an
    archival store entry served again)."""
    samples = draw(SAMPLES)
    summary = None
    if not samples and draw(st.booleans()):
        summary = summarize_latencies(draw(st.lists(
            st.floats(min_value=0.0, max_value=1e8), min_size=1,
            max_size=8)))
    return SimStats(
        device_name=draw(st.text(max_size=8)),
        workload_name=draw(st.text(max_size=8)),
        num_requests=draw(st.integers(0, 10 ** 6)),
        num_reads=draw(st.integers(0, 10 ** 6)),
        num_writes=draw(st.integers(0, 10 ** 6)),
        total_bytes=draw(st.integers(0, 10 ** 9)),
        sim_time_ns=draw(st.floats(min_value=1e-3, max_value=1e12)),
        busy_time_ns=draw(FIELD_FLOATS),
        active_time_ns=draw(FIELD_FLOATS),
        latencies_ns=samples,
        op_energy_j=draw(FIELD_FLOATS),
        row_hits=draw(st.integers(0, 10 ** 6)),
        latency_summary=summary,
    )


def eval_reply(stats_list, latencies=True):
    """The reply object ``handle_query`` builds for these stats."""
    return {"ok": True, "results": [
        _stats_row(stats.to_dict(latencies=latencies, as_list=False))
        for stats in stats_list]}


def frame_of(stats_list, latencies=True):
    with np.errstate(all="ignore"):    # summaries of inf/NaN samples
        return encode_frame(eval_reply(stats_list, latencies))


def decoded_stats(reply):
    return [SimStats.from_dict(row["stats"]) for row in reply["results"]]


def canonical(stats):
    """Every field as JSON text: equal text means equal bits, NaN
    included (which ``==`` never calls equal)."""
    return json.dumps(stats.to_dict(), sort_keys=True)


class TestFrameParser:
    """The binary ``/eval`` reply, fuzzed like the HTTP parser above:
    whatever the bytes, decoding raises SimulationError or returns
    exactly what was encoded."""

    @given(stats_list=st.lists(sim_stats(), min_size=1, max_size=3),
           latencies=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_round_trip_matches_input_and_json_path(self, stats_list,
                                                    latencies):
        body = frame_of(stats_list, latencies)
        with np.errstate(all="ignore"):
            as_json = encode_json(eval_reply(stats_list, latencies))
            sent = stats_list if latencies else [
                replace(stats, latencies_ns=[],
                        latency_summary=stats.to_dict(
                            latencies=False)["latency_summary"])
                for stats in stats_list]
        # Padding puts the first block on an 8-byte boundary.
        assert body.index(b"\n") % 8 == 7
        framed = decoded_stats(_decode_body(body, FRAME_CONTENT_TYPE))
        listed = decoded_stats(_decode_body(as_json))
        for expected, got, via_json in zip(sent, framed, listed):
            assert canonical(got) == canonical(expected) \
                == canonical(via_json)
            assert got.latencies_ns.tobytes() \
                == expected.latencies_ns.tobytes() \
                == via_json.latencies_ns.tobytes()
            # A view into the body: read-only, aligned, not a copy.
            assert not got.latencies_ns.flags.owndata
            assert not got.latencies_ns.flags.writeable
            assert got.latencies_ns.flags.aligned

    @given(stats_list=st.lists(sim_stats(), min_size=1, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_bytes_are_the_documented_layout(self, stats_list):
        """The bytes on the wire: the reply's ``json.dumps`` with each
        sample array replaced by its length, spaces to the next 8-byte
        boundary, a newline, then every result's samples as packed
        ``<f8`` in result order."""
        reply = eval_reply(stats_list)
        rows = reply["results"]
        line = json.dumps({**reply, "results": [
            {**row, "stats": {**row["stats"],
                              "latencies_ns": len(row["stats"]
                                                  ["latencies_ns"])}}
            for row in rows]}).encode()
        assert frame_of(stats_list) == b"".join(
            [line, b" " * (-(len(line) + 1) % 8), b"\n",
             *(np.asarray(row["stats"]["latencies_ns"], "<f8").tobytes()
               for row in rows)])

    @given(stats_list=st.lists(sim_stats(), min_size=1, max_size=2))
    @settings(max_examples=25, deadline=None)
    def test_every_truncation_is_structured(self, stats_list):
        body = frame_of(stats_list)
        for cut in range(len(body)):
            with pytest.raises(SimulationError):
                decode_frame(body[:cut], json.loads)

    @given(stats_list=st.lists(sim_stats(), min_size=1, max_size=2),
           extra=st.binary(min_size=1, max_size=32))
    @settings(max_examples=50, deadline=None)
    def test_trailing_bytes_are_structured(self, stats_list, extra):
        with pytest.raises(SimulationError, match="after the last"):
            decode_frame(frame_of(stats_list) + extra, json.loads)

    @given(samples=st.integers(0, 6), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_bad_counts_are_structured(self, samples, data):
        count = data.draw(st.integers(max_value=-1) | st.booleans()
                          | st.floats() | st.integers(min_value=samples + 1)
                          | st.none() | st.text(max_size=4), label="count")
        header = json.dumps({"ok": True, "results": [
            {"stats": {"latencies_ns": count}}]}).encode()
        with pytest.raises(SimulationError, match="sample count"):
            decode_frame(header + b"\n" + bytes(8 * samples), json.loads)

    @given(body=st.binary(max_size=64).filter(lambda raw: b"\n" not in raw))
    @settings(max_examples=80, deadline=None)
    def test_missing_header_newline_is_structured(self, body):
        with pytest.raises(SimulationError, match="no header line"):
            decode_frame(body, json.loads)

    @given(header=st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats()
        | st.text(max_size=8),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=8).filter(lambda value: not isinstance(value, dict))
        | st.binary(max_size=32).filter(lambda raw: b"\n" not in raw))
    @settings(max_examples=120, deadline=None)
    def test_header_that_is_not_a_json_object_is_structured(self, header):
        line = header if isinstance(header, bytes) \
            else json.dumps(header).encode()
        try:
            if isinstance(json.loads(line), dict):
                return      # random bytes that happen to be an object
        except ValueError:
            pass
        with pytest.raises(SimulationError, match="frame header"):
            decode_frame(line + b"\n", json.loads)
