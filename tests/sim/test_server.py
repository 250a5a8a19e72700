"""Async evaluation service: served results, coalescing, deterministic
load-test replay, structured error paths.

The daemon is spun up in-process (ephemeral port, ``workers=1`` — a
single worker thread, so compute scheduling is fully deterministic) and
driven through the real front-ends: raw HTTP bytes, the sync/async
clients, and the unix line protocol.
"""

import asyncio
import json
import logging
import threading
import time

import pytest

from test_client_retry import FakeEndpoint, http_response, run_async_endpoint

from repro.errors import SimulationError
from repro.sim import engine
from repro.sim.client import AsyncEvalClient, EvalClient
from repro.sim.engine import EvalTask, evaluate_cell, task_to_dict
from repro.sim.server import (EvalServer, FRAME_CONTENT_TYPE,
                              MAX_CELLS_PER_QUERY, _parse_query,
                              decode_frame)
from repro.sim.store import (ResultStore, clear_fingerprint_cache,
                             task_digest)
from repro.sim.sweep import SweepSpec

TASK = EvalTask("EPCM-MM", "gcc", 300, 7)
OTHER = EvalTask("EPCM-MM", "mcf", 300, 7)
BURST = EvalTask("EPCM-MM", "lbm", 300, 7)


def run_scenario(scenario, **server_kwargs):
    """Start a fresh daemon, run the async scenario against it, always
    stop it — the shared harness of every test here."""
    async def wrapper():
        server = EvalServer(port=0, **server_kwargs)
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.stop()
    return asyncio.run(wrapper())


def slow_compute(monkeypatch, delay=0.25):
    """Slow every cell evaluation down by ``delay`` seconds.

    Concurrency tests need the guarantee that *all* concurrent requests
    arrive while the first computation is still in flight; a loopback
    connect takes microseconds, so a quarter second makes the coalescing
    outcome deterministic instead of a race.  Applies to the in-process
    worker thread (``workers=1``), which is how every test here runs.
    """
    real = engine.evaluate_cell

    def delayed(task):
        time.sleep(delay)
        return real(task)
    monkeypatch.setattr(engine, "evaluate_cell", delayed)


async def raw_exchange(port, method, path, body=b"", accept=None):
    """One raw HTTP exchange → (status, {header: value}, body bytes).

    Bypasses the clients on purpose: the malformed-request tests need
    to send bytes no well-behaved client would produce, and the
    negotiation tests choose the ``Accept`` header themselves.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    head = (f"{method} {path} HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {len(body)}\r\n")
    if accept is not None:
        head += f"Accept: {accept}\r\n"
    writer.write(head.encode() + b"\r\n" + body)
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    raw = await reader.readexactly(int(headers.get("content-length", 0)))
    writer.close()
    await writer.wait_closed()
    return status, headers, raw


async def raw_http(port, method, path, body=b""):
    """One raw HTTP exchange → (status, parsed-JSON body)."""
    status, _headers, raw = await raw_exchange(port, method, path, body)
    return status, json.loads(raw)


def eval_body(task, **fields):
    return json.dumps({"task": task_to_dict(task), **fields}).encode()


def expected_reply(task, source="computed", latencies=True):
    """The reply object a daemon sends for one cell, stats built with
    ``SimStats.to_dict`` — the JSON wire format."""
    return {"ok": True, "results": [{
        "task": task_to_dict(task), "digest": task_digest(task),
        "source": source,
        "stats": evaluate_cell(task).to_dict(latencies=latencies)}]}


class TestServedResults:
    def test_miss_is_bit_identical_to_direct_evaluate_cell(self):
        async def scenario(server):
            return await AsyncEvalClient(server.http_address).eval_cell(TASK)
        served = run_scenario(scenario)
        assert served == evaluate_cell(TASK)   # dataclass eq: every field,
        # including the full per-request latency list, bit-for-bit

    def test_store_read_through_skips_compute(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(TASK, evaluate_cell(TASK))

        async def scenario(server):
            client = AsyncEvalClient(server.http_address)
            stats = await client.eval_cell(TASK)
            return stats, await client.stats()
        stats, counters = run_scenario(scenario, store=store)
        assert stats == evaluate_cell(TASK)
        assert counters["store_hits"] == 1
        assert counters["computed"] == 0

    def test_computed_cell_written_back_to_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")

        async def scenario(server):
            await AsyncEvalClient(server.http_address).eval_cell(TASK)
        run_scenario(scenario, store=store)
        assert store.get(TASK) == evaluate_cell(TASK)

    def test_lru_short_circuits_repeat_queries(self):
        async def scenario(server):
            client = AsyncEvalClient(server.http_address)
            first = await client.eval_cell(TASK)
            second = await client.eval_cell(TASK)
            return first, second, await client.stats()
        first, second, counters = run_scenario(scenario)
        assert first == second
        assert counters["computed"] == 1
        assert counters["lru_hits"] == 1

    def test_batch_query_matches_direct(self):
        tasks = [TASK, OTHER]

        async def scenario(server):
            return await AsyncEvalClient(server.http_address).eval_tasks(tasks)
        lookup = run_scenario(scenario)
        for task in tasks:
            assert lookup[task] == evaluate_cell(task)

    def test_sweep_query_expands_server_side(self):
        spec = SweepSpec(architectures=("EPCM-MM",),
                         workloads=("gcc", "mcf"),
                         num_requests=(300,), seeds=(7,))

        async def scenario(server):
            client = AsyncEvalClient(server.http_address)
            return await client.eval_sweep(spec), await client.stats()
        lookup, counters = run_scenario(scenario)
        assert set(lookup) == set(spec.tasks())
        assert counters["cells"] == spec.num_cells
        for task, stats in lookup.items():
            assert stats == evaluate_cell(task)

    def test_latencies_false_trims_the_samples(self):
        async def scenario(server):
            client = AsyncEvalClient(server.http_address)
            return await client.eval_cell(TASK, latencies=False)
        lean = run_scenario(scenario)
        assert lean.latencies_ns.tolist() == []
        assert lean.bandwidth_gbps == evaluate_cell(TASK).bandwidth_gbps

    def test_sync_client_over_unix_line_protocol(self, tmp_path):
        sock = tmp_path / "eval.sock"

        async def scenario(server):
            loop = asyncio.get_running_loop()

            def sync_part():
                client = EvalClient(f"unix://{sock}")
                assert client.ping()
                stats = client.eval_cell(TASK)
                counters = client.stats()
                return stats, counters
            return await loop.run_in_executor(None, sync_part)
        stats, counters = run_scenario(scenario, unix_path=sock)
        assert stats == evaluate_cell(TASK)
        assert counters["computed"] == 1

    def test_async_ping_matches_sync_health_surface(self):
        # The membership prober runs on AsyncEvalClient.ping; it must
        # see the same /healthz surface the sync client does.
        async def scenario(server):
            client = AsyncEvalClient(server.http_address)
            return await client.ping(), await client.health()
        alive, health = run_scenario(scenario)
        assert alive is True
        assert health["ok"] is True
        assert health["uptime_s"] >= 0
        assert health["workers"] >= 1

    def test_async_ping_false_when_unreachable(self):
        async def scenario(server):
            address = server.http_address
            await server.stop()
            return await AsyncEvalClient(address, retries=0).ping()
        assert run_scenario(scenario) is False


class TestDigestHop:
    """A task digest leaves the event loop only when it must build a
    device: once the fingerprints are memoized it is one small hash."""

    def test_memoized_digest_submits_nothing_to_the_io_pool(self):
        async def scenario(server):
            client = AsyncEvalClient(server.http_address)
            await client.eval_cell(TASK)    # fingerprints TASK's models
            submitted = []
            real_submit = server._io.submit

            def counting_submit(fn, *args, **kwargs):
                submitted.append(fn)
                return real_submit(fn, *args, **kwargs)
            server._io.submit = counting_submit
            repeat = await client.eval_cell(TASK)
            return submitted, repeat, await client.stats()
        submitted, repeat, counters = run_scenario(scenario)
        assert submitted == []
        assert counters["lru_hits"] == 1
        assert repeat == evaluate_cell(TASK)

    def test_first_digest_builds_the_device_off_the_loop(self,
                                                         monkeypatch):
        clear_fingerprint_cache()
        real_build = engine.build_device
        builders = []

        def recording(architecture):
            builders.append(threading.get_ident())
            return real_build(architecture)
        monkeypatch.setattr(engine, "build_device", recording)

        async def scenario(server):
            stats = await AsyncEvalClient(server.http_address).eval_cell(
                TASK)
            return threading.get_ident(), stats
        loop_thread, stats = run_scenario(scenario)
        assert builders and loop_thread not in builders
        assert stats == evaluate_cell(TASK)


class TestCoalescing:
    def test_16_concurrent_identical_queries_trigger_one_compute(
            self, monkeypatch):
        slow_compute(monkeypatch)

        async def scenario(server):
            client = AsyncEvalClient(server.http_address)
            results = await asyncio.gather(
                *(client.eval_cell(BURST) for _ in range(16)))
            return results, await client.stats()
        results, counters = run_scenario(scenario)
        direct = evaluate_cell(BURST)
        assert all(stats == direct for stats in results)
        # The coalescing contract, observable in /stats: exactly one
        # computation, the other fifteen joined it in flight.
        assert counters["computed"] == 1
        assert counters["coalesced"] == 15
        assert counters["cells"] == 16

    def test_coalesced_compute_failure_reaches_every_waiter(self,
                                                            monkeypatch):
        def boom(task):
            raise ValueError("boom")
        monkeypatch.setattr(engine, "evaluate_cell", boom)

        async def scenario(server):
            client = AsyncEvalClient(server.http_address)
            errors = []
            for result in await asyncio.gather(
                    *(client.eval_cell(BURST) for _ in range(4)),
                    return_exceptions=True):
                assert isinstance(result, SimulationError)
                errors.append(str(result))
            return errors, await client.stats()
        errors, counters = run_scenario(scenario)
        assert len(errors) == 4
        for message in errors:
            assert "grid cell (" in message and "boom" in message
        assert counters["computed"] == 0


class TestLoadReplay:
    """The scripted load-test harness: a fixed mix of hits, misses,
    malformed requests and duplicate bursts, replayed against a fresh
    daemon — responses must be identical across replays and misses
    bit-identical to direct computation."""

    MIX = [TASK, OTHER, TASK, BURST, OTHER, TASK]

    async def _replay(self, server):
        client = AsyncEvalClient(server.http_address)
        transcript = []
        # Sequential section: misses, then hits of the same cells.
        for task in self.MIX:
            status, payload = await raw_http(
                server.port, "POST", "/eval",
                json.dumps({"task": task_to_dict(task)}).encode())
            transcript.append((status, json.dumps(payload, sort_keys=True)))
        # Malformed + unknown-arch requests interleave with real load.
        status, payload = await raw_http(server.port, "POST", "/eval",
                                         b"{definitely not json")
        transcript.append((status, json.dumps(payload, sort_keys=True)))
        status, payload = await raw_http(
            server.port, "POST", "/eval",
            json.dumps({"task": {"architecture": "NOPE",
                                 "workload": "gcc"}}).encode())
        transcript.append((status, json.dumps(payload, sort_keys=True)))
        # Duplicate burst: concurrent identical queries.  *Which* of the
        # eight wins the race to compute is scheduling-dependent, so the
        # transcript records the sorted response set — with the
        # slowed-down compute all eight are guaranteed in flight
        # together, so the multiset (1 computed + 7 coalesced, equal
        # stats) is deterministic.
        burst_task = EvalTask("EPCM-MM", "omnetpp", 300, 7)
        responses = await asyncio.gather(*(
            raw_http(server.port, "POST", "/eval",
                     json.dumps({"task": task_to_dict(burst_task)}).encode())
            for _ in range(8)))
        transcript.extend(sorted(
            (status, json.dumps(payload, sort_keys=True))
            for status, payload in responses))
        counters = await client.stats()
        counters.pop("store")    # tmp dir differs between replays
        transcript.append((200, json.dumps(counters, sort_keys=True)))
        return transcript

    def test_replay_is_deterministic_and_matches_direct(self, tmp_path,
                                                        monkeypatch):
        slow_compute(monkeypatch, delay=0.1)
        transcripts = []
        for run in ("one", "two"):
            store = ResultStore(tmp_path / f"store-{run}")
            transcripts.append(
                run_scenario(self._replay, store=store, workers=1))
        assert transcripts[0] == transcripts[1]

        # Spot-check the first miss against direct computation: the
        # served stats dict is exactly SimStats.to_dict.
        status, body = transcripts[0][0]
        assert status == 200
        first = json.loads(body)["results"][0]
        assert first["stats"] == json.loads(
            json.dumps(evaluate_cell(TASK).to_dict()))
        # Errors are structured, not hung connections.
        assert transcripts[0][len(self.MIX)][0] == 400
        assert transcripts[0][len(self.MIX) + 1][0] == 400

    @pytest.mark.slow
    def test_heavy_replay_is_deterministic(self, tmp_path):
        """The long mix: every SPEC workload x two architectures, three
        passes with bursts — slow, run with --runslow."""
        from repro.sim.tracegen import SPEC_WORKLOADS

        tasks = [EvalTask(arch, workload, 2000, 7)
                 for arch in ("EPCM-MM", "2D_DDR3")
                 for workload in sorted(SPEC_WORKLOADS)]

        async def replay(server):
            client = AsyncEvalClient(server.http_address)
            transcript = []
            for _ in range(3):
                lookup = await client.eval_tasks(tasks)
                transcript.append(
                    {t.describe(): lookup[t].to_dict() for t in tasks})
                bursts = await asyncio.gather(
                    *(client.eval_cell(tasks[0]) for _ in range(16)))
                assert all(b == bursts[0] for b in bursts)
            counters = await client.stats()
            counters.pop("store")
            transcript.append(counters)
            return transcript

        first = run_scenario(replay, store=ResultStore(tmp_path / "s1"))
        second = run_scenario(replay, store=ResultStore(tmp_path / "s2"))
        assert first == second
        assert first[0] == {t.describe(): evaluate_cell(t).to_dict()
                            for t in tasks}


class TestErrorPaths:
    """Malformed and failing queries come back as structured JSON
    errors with 4xx/5xx statuses — never a hang or a raw traceback."""

    def _status_of(self, payload, **server_kwargs):
        async def scenario(server):
            body = payload if isinstance(payload, bytes) \
                else json.dumps(payload).encode()
            return await raw_http(server.port, "POST", "/eval", body)
        return run_scenario(scenario, **server_kwargs)

    def test_malformed_json_is_400(self):
        status, body = self._status_of(b"{not json at all")
        assert status == 400
        assert body["ok"] is False and "malformed JSON" in body["error"]

    def test_unknown_architecture_is_400(self):
        status, body = self._status_of(
            {"task": {"architecture": "NOPE", "workload": "gcc"}})
        assert status == 400
        assert "unknown architecture 'NOPE'" in body["error"]

    def test_unknown_workload_is_400(self):
        status, body = self._status_of(
            {"task": {"architecture": "COMET", "workload": "doom"}})
        assert status == 400
        assert body["ok"] is False

    def test_bad_field_types_are_400(self):
        for task in (
            {"architecture": "COMET", "workload": "gcc",
             "num_requests": "many"},
            {"architecture": "COMET", "workload": "gcc", "seed": True},
            {"architecture": "COMET", "workload": "gcc", "queue_depth": 0},
            {"architecture": "COMET", "workload": "gcc", "bogus": 1},
        ):
            status, body = self._status_of({"task": task})
            assert status == 400, task
            assert body["ok"] is False

    def test_query_shape_errors_are_400(self):
        for payload in (
            [],                                   # not an object
            {},                                   # no source
            {"task": {}, "tasks": []},            # two sources
            {"tasks": []},                        # empty batch
            {"task": {"architecture": "COMET", "workload": "gcc"},
             "latencies": "yes"},                 # non-bool latencies
            {"sweep": {"bogus_axis": [1]}},       # unknown sweep axis
            {"sweep": {"num_requests": ["many"]}},
        ):
            status, body = self._status_of(payload)
            assert status == 400, payload
            assert body["ok"] is False and body["error"]

    def test_oversized_sweep_is_rejected_up_front(self):
        status, body = self._status_of(
            {"sweep": {"architectures": ["EPCM-MM"],
                       "workloads": ["gcc"],
                       "seeds": list(range(MAX_CELLS_PER_QUERY + 1))}})
        assert status == 400
        assert str(MAX_CELLS_PER_QUERY) in body["error"]

    def test_huge_axis_product_rejected_before_expansion(self):
        """The cell cap must fire on the axis *product*, before the
        cross product is materialized — two 10k-element axes expand to
        10^8 tasks, which would wedge the daemon if built first."""
        status, body = self._status_of(
            {"sweep": {"architectures": ["EPCM-MM"],
                       "workloads": ["gcc"],
                       "seeds": list(range(10_000)),
                       "num_requests": list(range(1, 10_001))}})
        assert status == 400
        assert str(MAX_CELLS_PER_QUERY) in body["error"]

    def test_out_of_range_seed_is_400_not_worker_error(self):
        for seed in (-1, 2 ** 32):
            status, body = self._status_of(
                {"task": {"architecture": "COMET", "workload": "gcc",
                          "seed": seed}})
            assert status == 400, seed
            assert "seed" in body["error"]
        status, body = self._status_of(
            {"sweep": {"architectures": ["EPCM-MM"],
                       "workloads": ["gcc"], "seeds": [-1]}})
        assert status == 400
        assert "seed" in body["error"]

    def test_oversized_cell_request_count_is_400(self):
        from repro.sim.server import MAX_REQUESTS_PER_CELL

        status, body = self._status_of(
            {"task": {"architecture": "COMET", "workload": "gcc",
                      "num_requests": MAX_REQUESTS_PER_CELL + 1}})
        assert status == 400
        assert "request limit" in body["error"]

    def test_unknown_path_and_method(self):
        async def scenario(server):
            missing = await raw_http(server.port, "GET", "/nope")
            wrong = await raw_http(server.port, "GET", "/eval")
            return missing, wrong
        (missing_status, missing_body), (wrong_status, wrong_body) = \
            run_scenario(scenario)
        assert missing_status == 404 and missing_body["ok"] is False
        assert wrong_status == 405 and "POST" in wrong_body["error"]

    def test_worker_crash_annotates_the_failing_cell(self, monkeypatch):
        """A cell dying mid-compute surfaces like the sweep path: a 5xx
        JSON error naming the cell, not a worker traceback."""
        def boom(task):
            raise ValueError("synthetic crash")
        monkeypatch.setattr(engine, "evaluate_cell", boom)

        async def scenario(server):
            return await raw_http(
                server.port, "POST", "/eval",
                json.dumps({"task": task_to_dict(TASK)}).encode())
        status, body = run_scenario(scenario)
        assert status == 500
        assert body["ok"] is False
        assert f"grid cell ({TASK.describe()})" in body["error"]
        assert "synthetic crash" in body["error"]

    def test_server_survives_a_crashed_cell(self, monkeypatch):
        real = engine.evaluate_cell
        calls = {"n": 0}

        def flaky(task):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("first one dies")
            return real(task)
        monkeypatch.setattr(engine, "evaluate_cell", flaky)

        async def scenario(server):
            client = AsyncEvalClient(server.http_address)
            with pytest.raises(SimulationError):
                await client.eval_cell(TASK)
            stats = await client.eval_cell(TASK)    # recovered
            return stats, await client.stats()
        stats, counters = run_scenario(scenario)
        assert stats == evaluate_cell(TASK)
        assert counters["errors"] == 1

    def test_broken_executor_rebuilds_the_pool_once(self, monkeypatch):
        """A hard worker death (BrokenExecutor) must replace the compute
        pool and keep serving; the error names the cell."""
        from concurrent.futures import BrokenExecutor

        from repro.sim import server as server_mod

        real = server_mod.evaluate_cell_checked
        calls = {"n": 0}

        def dying(task):
            calls["n"] += 1
            if calls["n"] == 1:
                raise BrokenExecutor("worker vanished")
            return real(task)
        monkeypatch.setattr(server_mod, "evaluate_cell_checked", dying)

        async def scenario(server):
            client = AsyncEvalClient(server.http_address)
            old_pool = server._compute
            with pytest.raises(SimulationError, match="worker died"):
                await client.eval_cell(TASK)
            rebuilt = server._compute
            stats = await client.eval_cell(TASK)
            return old_pool is rebuilt, stats
        same_pool, stats = run_scenario(scenario)
        assert not same_pool
        assert stats == evaluate_cell(TASK)

    def test_parse_query_rejects_non_dict_tasks(self):
        with pytest.raises(SimulationError):
            _parse_query({"tasks": ["COMET"]})


class TestReplyNegotiation:
    """The ``Accept`` matrix: a binary frame only for a 200 ``/eval``
    reply to a request that asks for one; every other reply is the
    exact JSON it always was."""

    @pytest.mark.parametrize("latencies", [True, False])
    def test_no_accept_gets_json_bytes_of_the_to_dict_reply(self,
                                                            latencies):
        async def scenario(server):
            return await raw_exchange(server.port, "POST", "/eval",
                                      eval_body(TASK, latencies=latencies))
        status, headers, raw = run_scenario(scenario)
        assert status == 200
        assert headers["content-type"] == "application/json"
        assert raw == json.dumps(
            expected_reply(TASK, latencies=latencies)).encode()

    def test_accept_gets_a_frame_only_on_a_200_eval(self, monkeypatch):
        real = engine.evaluate_cell
        calls = {"n": 0}

        def crash_first(task):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ValueError("synthetic crash")
            return real(task)
        monkeypatch.setattr(engine, "evaluate_cell", crash_first)
        accept = f"application/json, {FRAME_CONTENT_TYPE};q=0.9"

        async def scenario(server):
            def ask(method, path, body=b""):
                return raw_exchange(server.port, method, path, body, accept)
            return {
                "crashed": await ask("POST", "/eval", eval_body(TASK)),
                "eval": await ask("POST", "/eval", eval_body(TASK)),
                "lean": await ask("POST", "/eval",
                                  eval_body(TASK, latencies=False)),
                "bad-json": await ask("POST", "/eval", b"{nope"),
                "bad-arch": await ask("POST", "/eval", json.dumps(
                    {"task": {"architecture": "NOPE",
                              "workload": "gcc"}}).encode()),
                "wrong-method": await ask("GET", "/eval"),
                "unknown-path": await ask("GET", "/nope"),
                "stats": await ask("GET", "/stats"),
                "healthz": await ask("GET", "/healthz"),
            }
        replies = run_scenario(scenario)
        expected = {"crashed": 500, "bad-json": 400, "bad-arch": 400,
                    "wrong-method": 405, "unknown-path": 404,
                    "stats": 200, "healthz": 200}
        for name, status in expected.items():
            got, headers, raw = replies[name]
            assert got == status, name
            assert headers["content-type"] == "application/json", name
            assert isinstance(json.loads(raw), dict), name
        direct = evaluate_cell(TASK)
        for name, source, latencies in (("eval", "computed", True),
                                        ("lean", "lru", False)):
            status, headers, raw = replies[name]
            assert status == 200
            assert headers["content-type"] == FRAME_CONTENT_TYPE
            header = json.loads(raw[:raw.index(b"\n")])
            reply = expected_reply(TASK, source, latencies)
            row = reply["results"][0]["stats"]
            row["latencies_ns"] = len(row["latencies_ns"])
            assert header == json.loads(json.dumps(reply))
            served = decode_frame(raw, json.loads)["results"][0]["stats"]
            assert served["latencies_ns"].tobytes() == (
                direct.latencies_ns.tobytes() if latencies else b"")
        assert len(replies["lean"][2]) == replies["lean"][2].index(b"\n") + 1

    def test_line_protocol_reply_is_unchanged(self, tmp_path):
        sock = tmp_path / "eval.sock"

        async def scenario(server):
            reader, writer = await asyncio.open_unix_connection(str(sock))
            writer.write(eval_body(TASK) + b"\n")
            await writer.drain()
            line = await reader.readline()
            writer.close()
            await writer.wait_closed()
            return line
        line = run_scenario(scenario, unix_path=sock)
        assert line == json.dumps(expected_reply(TASK)).encode() + b"\n"

    def test_both_clients_decode_a_json_only_endpoint(self):
        """A daemon that predates frames ignores ``Accept`` and answers
        JSON: both clients still decode it bit-identically."""
        direct = evaluate_cell(TASK)
        canned = http_response(expected_reply(TASK, source="store"))
        fake = FakeEndpoint([canned])
        fake.start()
        try:
            assert EvalClient(fake.address).eval_cell(TASK) == direct
        finally:
            fake.close()

        async def scenario(client):
            return await client.eval_cell(TASK)
        served, connections = run_async_endpoint([canned], scenario)
        assert served == direct
        assert connections == 1


class TestLineProtocol:
    def test_ops_over_unix_socket(self, tmp_path):
        sock = tmp_path / "eval.sock"

        async def scenario(server):
            reader, writer = await asyncio.open_unix_connection(str(sock))

            async def roundtrip(message):
                writer.write(message if isinstance(message, bytes)
                             else json.dumps(message).encode())
                writer.write(b"\n")
                await writer.drain()
                return json.loads(await reader.readline())

            ping = await roundtrip({"op": "ping"})
            evaluated = await roundtrip({"op": "eval",
                                         "task": task_to_dict(TASK)})
            implicit = await roundtrip({"task": task_to_dict(TASK)})
            malformed = await roundtrip(b"{nope")
            unknown = await roundtrip({"op": "teleport"})
            stats = await roundtrip({"op": "stats"})
            writer.close()
            await writer.wait_closed()
            return ping, evaluated, implicit, malformed, unknown, stats

        ping, evaluated, implicit, malformed, unknown, stats = \
            run_scenario(scenario, unix_path=tmp_path / "eval.sock")
        # The line ping carries the same enriched health payload as
        # GET /healthz, plus the protocol's pong marker.
        assert ping["ok"] is True and ping["pong"] is True
        assert ping["uptime_s"] >= 0 and ping["inflight"] == 0
        assert evaluated["ok"] and implicit["ok"]
        assert evaluated["results"][0]["source"] == "computed"
        assert implicit["results"][0]["source"] == "lru"
        assert malformed["ok"] is False
        assert unknown["ok"] is False and "teleport" in unknown["error"]
        assert stats["stats"]["computed"] == 1

    def test_shutdown_op_stops_the_serve_loop(self, tmp_path):
        sock = tmp_path / "eval.sock"

        async def scenario():
            server = EvalServer(port=0, unix_path=sock)
            serve = asyncio.ensure_future(server.serve_until_shutdown())
            await asyncio.sleep(0)          # let it bind
            for _ in range(50):
                if server._servers:
                    break
                await asyncio.sleep(0.05)
            reader, writer = await asyncio.open_unix_connection(str(sock))
            writer.write(b'{"op": "shutdown"}\n')
            await writer.drain()
            reply = json.loads(await reader.readline())
            writer.close()
            await asyncio.wait_for(serve, timeout=10)
            return reply
        reply = asyncio.run(scenario())
        assert reply == {"ok": True, "shutting_down": True}


class TestHttpMisc:
    def test_healthz_and_stats(self):
        async def scenario(server):
            health = await raw_http(server.port, "GET", "/healthz")
            stats = await raw_http(server.port, "GET", "/stats")
            return health, stats
        (health_status, health), (stats_status, stats) = run_scenario(scenario)
        # {"ok": true} compatibility preserved; the enriched payload
        # (uptime, in-flight count, pool kind/size) is what the fabric
        # prober and `fabric stats` read.
        assert health_status == 200 and health["ok"] is True
        assert health["uptime_s"] >= 0
        assert health["inflight"] == 0
        assert health["workers"] >= 1
        assert isinstance(health["executor"], str)
        assert stats_status == 200
        for key in ("queries", "cells", "computed", "coalesced",
                    "store_hits", "lru_hits", "errors", "inflight",
                    "workers", "executor"):
            assert key in stats["stats"]

    def test_stats_kernel_counts_process_pool_dispatches(
            self, expected_dispatch):
        """A two-worker daemon's compute threads count their dispatches
        in the daemon's process, so /stats.kernel reports the cell."""
        from repro.sim import controller as controller_mod

        async def scenario(server):
            await AsyncEvalClient(server.http_address).eval_cell(TASK)
            return server.stats_snapshot()

        controller_mod.reset_kernel_counters()
        stats = run_scenario(scenario, workers=2)
        assert stats["workers"] == 2
        assert stats["executor"] == "thread"
        assert stats["kernel"] == expected_dispatch(shared_bus=1)

    def test_http_shutdown_endpoint(self):
        async def scenario():
            server = EvalServer(port=0)
            serve = asyncio.ensure_future(server.serve_until_shutdown())
            for _ in range(50):
                if server._servers:
                    break
                await asyncio.sleep(0.05)
            status, body = await raw_http(server.port, "POST", "/shutdown")
            await asyncio.wait_for(serve, timeout=10)
            return status, body
        status, body = asyncio.run(scenario())
        assert status == 200 and body["shutting_down"] is True


def pending_handlers():
    """The running loop's unfinished connection-handler tasks."""
    return [task for task in asyncio.all_tasks()
            if task.get_coro().__qualname__ in (
                "EvalServer._handle_http", "EvalServer._handle_line")]


async def close_quietly(writer):
    writer.close()
    try:
        await writer.wait_closed()
    except ConnectionError:
        pass


class TestStop:
    def test_stop_ends_a_connection_that_sent_only_a_request_line(self):
        """The handler waiting for headers is ended by stop(), not left
        for the loop's close to cancel — which asyncio logs at ERROR."""
        records = []
        collector = logging.Handler(logging.ERROR)
        collector.emit = records.append
        logger = logging.getLogger("asyncio")

        async def scenario():
            server = EvalServer(port=0)
            await server.start()
            _reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(b"POST /eval HTTP/1.1\r\n")
            await writer.drain()
            for _ in range(200):
                if pending_handlers():
                    break
                await asyncio.sleep(0.01)
            opened = len(pending_handlers())
            await server.stop()
            left = len(pending_handlers())
            await close_quietly(writer)
            return opened, left

        logger.addHandler(collector)
        try:
            opened, left = asyncio.run(scenario())
        finally:
            logger.removeHandler(collector)
        assert opened == 1
        assert left == 0
        assert [record.getMessage() for record in records] == []

    def test_stop_waits_for_a_running_cell_off_the_loop(self,
                                                        monkeypatch):
        """stop() still waits for the cell in flight, but on a helper
        thread: a heartbeat on the loop keeps ticking meanwhile."""
        delay = 0.4
        slow_compute(monkeypatch, delay=delay)
        started, finished = threading.Event(), threading.Event()
        slow = engine.evaluate_cell

        def watched(task):
            started.set()
            try:
                return slow(task)
            finally:
                finished.set()
        monkeypatch.setattr(engine, "evaluate_cell", watched)

        async def scenario():
            server = EvalServer(port=0)
            await server.start()
            _reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            body = eval_body(TASK)
            writer.write(f"POST /eval HTTP/1.1\r\nContent-Length: "
                         f"{len(body)}\r\n\r\n".encode() + body)
            await writer.drain()
            for _ in range(2000):
                if started.is_set():
                    break
                await asyncio.sleep(0.005)
            assert started.is_set()
            loop = asyncio.get_running_loop()
            ticks = [loop.time()]

            async def heartbeat():
                while True:
                    await asyncio.sleep(0.005)
                    ticks.append(loop.time())

            beat = asyncio.ensure_future(heartbeat())
            await server.stop()
            ticks.append(loop.time())
            cell_done = finished.is_set()
            beat.cancel()
            await asyncio.gather(beat, return_exceptions=True)
            await close_quietly(writer)
            return max(b - a for a, b in zip(ticks, ticks[1:])), cell_done

        biggest_gap, cell_done = asyncio.run(scenario())
        assert cell_done
        assert biggest_gap < delay / 4


class TestFig9ReadThrough:
    def test_warm_daemon_answers_fig9_grid_with_zero_recomputes(
            self, tmp_path):
        """The acceptance scenario, scaled to tier-1: a repeated fig9
        query set against a warm daemon computes nothing the second
        time (store + LRU hits only, verified via /stats)."""
        from repro.exp import fig9

        async def scenario(server):
            loop = asyncio.get_running_loop()
            address = server.http_address

            def run_fig9():
                return fig9.run(num_requests=300, workloads=["gcc"],
                                server=address)
            client = AsyncEvalClient(address)
            cold = await loop.run_in_executor(None, run_fig9)
            after_cold = await client.stats()
            warm = await loop.run_in_executor(None, run_fig9)
            after_warm = await client.stats()
            return cold, warm, after_cold, after_warm

        cold, warm, after_cold, after_warm = run_scenario(
            scenario, store=ResultStore(tmp_path / "store"))
        assert after_warm["computed"] == after_cold["computed"]
        assert cold.summary == warm.summary
        assert cold.results["COMET"]["gcc"] == warm.results["COMET"]["gcc"]

    @pytest.mark.slow
    def test_full_fig9_grid_warm_daemon(self, tmp_path):
        """Full SPEC grid through the daemon twice: zero recomputations
        on the second pass, summaries identical to the local engine."""
        from repro.exp import fig9
        from repro.sim.engine import run_evaluation
        from repro.sim.simulator import summarize

        async def scenario(server):
            loop = asyncio.get_running_loop()
            address = server.http_address

            def run_fig9():
                return fig9.run(num_requests=2000, server=address)
            client = AsyncEvalClient(address)
            cold = await loop.run_in_executor(None, run_fig9)
            after_cold = await client.stats()
            warm = await loop.run_in_executor(None, run_fig9)
            after_warm = await client.stats()
            return cold, warm, after_cold, after_warm

        cold, warm, after_cold, after_warm = run_scenario(
            scenario, store=ResultStore(tmp_path / "store"))
        assert after_warm["computed"] == after_cold["computed"]
        assert cold.summary == warm.summary
        local = summarize(run_evaluation(num_requests=2000))
        assert cold.summary == local
