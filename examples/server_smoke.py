"""Evaluation-daemon smoke test: start, one miss + one hit, clean exit.

The CI job runs this end to end against real processes (no pytest, no
in-process shortcuts): launch ``python -m repro.sim serve`` as a
subprocess, wait for its ready line, issue one cache-miss query and the
same query again (served without recomputation — verified via
``/stats``), ask for the cell and the counters through the
``python -m repro.sim query`` CLI (and check that it refuses a
``unix://`` address), fetch the cell in both reply encodings (JSON for
a plain POST, the binary frame for the ``Accept`` header the bundled
clients send), then request shutdown through the CLI and assert the
daemon exits 0.  The daemon's store lives in a temp directory that is
removed when the smoke ends, passed or failed.

Usage::

    PYTHONPATH=src python examples/server_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import urllib.request

from repro.sim.client import ACCEPT, EvalClient
from repro.sim.engine import EvalTask, evaluate_cell, task_to_dict
from repro.sim.server import FRAME_CONTENT_TYPE, decode_frame
from repro.sim.stats import SimStats

TASK = EvalTask("EPCM-MM", "gcc", 500, 7)


def fetch(address: str, accept: str = None):
    """POST the smoke cell with urllib → (Content-Type, body bytes)."""
    headers = {"Accept": accept} if accept else {}
    request = urllib.request.Request(
        f"{address}/eval", headers=headers,
        data=json.dumps({"task": task_to_dict(TASK)}).encode())
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.headers["Content-Type"], response.read()


def query(*args: str) -> subprocess.CompletedProcess:
    """Run ``python -m repro.sim query ARGS`` to completion."""
    return subprocess.run(
        [sys.executable, "-m", "repro.sim", "query", *args],
        capture_output=True, text=True, timeout=120, env={**os.environ})


def main() -> int:
    store_dir = tempfile.mkdtemp(prefix="eval-smoke-store-")
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro.sim", "serve", "--port", "0",
         "--store", store_dir, "--workers", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ},
    )
    try:
        ready = daemon.stdout.readline().strip()
        assert ready.startswith("ready: "), f"unexpected banner: {ready!r}"
        address = ready.split("ready: ", 1)[1]
        print(f"daemon up at {address}")

        client = EvalClient(address)
        assert client.ping(), "health check failed"

        miss = client.eval_cell(TASK)
        counters = client.stats()
        assert counters["computed"] == 1, counters
        print(f"miss computed: {miss.bandwidth_gbps:.2f} GB/s")

        hit = client.eval_cell(TASK)
        counters = client.stats()
        assert counters["computed"] == 1, \
            f"warm query recomputed: {counters}"
        assert counters["lru_hits"] + counters["store_hits"] >= 1, counters
        assert hit == miss, "hit diverged from the computed stats"
        print("hit served without recomputation")

        # The query CLI drives the same sync client: the cell again
        # (a hit, not a recomputation), the counters, and an address
        # whose scheme the client refuses.
        run = query("--server", address, "--arch", TASK.architecture,
                    "--workload", TASK.workload,
                    "--requests", str(TASK.num_requests),
                    "--seed", str(TASK.seed))
        assert run.returncode == 0, run.stderr
        assert "bandwidth" in run.stdout, run.stdout
        assert client.stats()["computed"] == 1, "query CLI recomputed"
        run = query("--server", address, "--stats")
        assert run.returncode == 0, run.stderr
        run = query("--server", "unix:///nowhere", "--stats")
        assert run.returncode == 1, (run.returncode, run.stderr)
        assert "unsupported server scheme" in run.stderr, run.stderr
        print("query CLI: cell served warm, --stats, unix:// refused")

        direct = evaluate_cell(TASK)
        assert miss == direct, "served stats differ from direct evaluation"
        print("served stats bit-identical to direct evaluate_cell")

        # The same cell in both encodings.  A plain POST (curl, older
        # clients) sends no Accept header and gets JSON...
        content_type, body = fetch(address)
        assert content_type == "application/json", content_type
        stats = json.loads(body)["results"][0]["stats"]
        assert SimStats.from_dict(stats) == direct, "JSON reply diverged"
        # ...and the clients' Accept header gets the binary frame, whose
        # samples EvalClient views in place (read-only, not copied).
        content_type, body = fetch(address, ACCEPT)
        assert content_type == FRAME_CONTENT_TYPE, content_type
        stats = decode_frame(body, json.loads)["results"][0]["stats"]
        assert SimStats.from_dict(stats) == direct, "frame reply diverged"
        assert not hit.latencies_ns.flags.writeable, \
            "EvalClient did not decode a frame"
        print("JSON and frame replies both bit-identical to direct")

        run = query("--server", address, "--shutdown")
        assert run.returncode == 0, run.stderr
        code = daemon.wait(timeout=60)
        assert code == 0, f"daemon exited {code}"
        print("clean shutdown")
        return 0
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=30)
        stderr = daemon.stderr.read()
        if stderr:
            print(stderr, file=sys.stderr)
        shutil.rmtree(store_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
