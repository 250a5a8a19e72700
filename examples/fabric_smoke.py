"""Elastic fabric smoke: real daemons under a seeded chaos schedule.

The CI job runs this end to end against real processes (no pytest, no
in-process shortcuts): launch two paced ``python -m repro.sim.chaos``
daemons (the real ``serve`` daemon with a per-cell delay so faults land
mid-run) plus a spare, drive a partitioned grid through the elastic
coordinator with a watched host file, and fire a *seeded* chaos
schedule — SIGKILL one daemon, restart it, and join the spare mid-run —
then assert that

* the killed daemon is re-admitted by the health prober and completes
  at least one stolen cell *after* its rebirth (checked via
  ``FabricResult`` provenance — ``readmitted`` and
  ``completed_after_readmission`` — not just the exit code),
* the joined spare is admitted and the per-host completed counts cover
  the whole grid,
* the results are bit-identical to a serial ``run_sweep`` of the same
  spec despite all of the churn,
* ``python -m repro.sim merge-stores`` folds the daemons' stores (plus
  the coordinator's local write-through store) together without
  conflicts, and
* a warm sweep against the merged store recomputes nothing.

Every store lives under one temp directory, which is removed when the
smoke ends, passed or failed, after its daemons have exited.

Usage::

    PYTHONPATH=src python examples/fabric_smoke.py
"""

import os
import shutil
import subprocess
import sys
import tempfile

from repro.sim.chaos import ChaosDaemon, ChaosSchedule
from repro.sim.client import EvalClient
from repro.sim.fabric import HostFileMembership, run_fabric
from repro.sim.store import ResultStore
from repro.sim.sweep import SweepSpec, run_sweep

SPEC = SweepSpec(architectures=("EPCM-MM", "2D_DDR3"),
                 workloads=("gcc", "lbm", "mcf", "milc"),
                 num_requests=(4000,), seeds=(7, 11), queue_depths=(None,))

#: Per-cell pacing: slow enough that the kill, the ~1-2 s restart and
#: the join all land with cells still unstarted, fast enough for CI.
CELL_DELAY = 0.4

#: Replayable chaos: this seed draws kill@2 / restart@3 / join@4 with
#: daemon 1 as the victim — early faults, maximum post-rejoin runway.
SEED = 2028


def main() -> int:
    root = tempfile.mkdtemp(prefix="fabric-smoke-")
    local = os.path.join(root, "local")
    merged = os.path.join(root, "merged")
    hostfile = os.path.join(root, "hosts.txt")
    progress = []
    daemons = []
    spare = None
    try:
        daemons = [ChaosDaemon(cell_delay=CELL_DELAY,
                               store=os.path.join(root, f"daemon{index}"))
                   for index in range(2)]
        spare = ChaosDaemon(cell_delay=CELL_DELAY,
                            store=os.path.join(root, "spare"))
        with open(hostfile, "w") as stream:
            stream.write("".join(d.address + "\n" for d in daemons))
        print(f"fleet up: {', '.join(d.address for d in daemons)} "
              f"(spare {spare.address})")

        schedule = ChaosSchedule.seeded(SEED, SPEC.num_cells, len(daemons))
        victim = daemons[next(e.target for e in schedule.events
                              if e.kind == "kill")]
        print("schedule:", "; ".join(
            f"{e.kind}(daemon{e.target}) after {e.after_completed} cells"
            for e in schedule.events))

        def join_spare(_target):
            with open(hostfile, "w") as stream:
                stream.write("".join(
                    d.address + "\n" for d in (*daemons, spare)))

        schedule.run_in_thread(
            progress=lambda: len(progress),
            actions={"kill": lambda t: daemons[t].kill(),
                     "restart": lambda t: daemons[t].restart(),
                     "join": join_spare})

        def report(address, old, new, reason):
            print(f"membership: {address} {old} -> {new} ({reason})",
                  flush=True)

        result = run_fabric(
            SPEC, membership=HostFileMembership(hostfile),
            store=ResultStore(local), window=1, retries=0, backoff=0.05,
            cell_attempts=8, probe_interval=0.1, probe_timeout=1.0,
            timeout=120.0,
            on_result=lambda task, stats: progress.append(task),
            on_membership=report)
        schedule.stop()    # surfaces any injection that failed
        print(f"fabric: {result.describe()}")

        assert len(schedule.fired) == len(schedule.events), \
            f"only {schedule.fired} fired of {schedule.events}"
        assert victim.address in result.readmitted, \
            f"victim never re-admitted: {result.transitions}"
        rejoined = result.completed_after_readmission.get(victim.address, 0)
        assert rejoined >= 1, \
            "re-admitted daemon completed no cells after its rebirth"
        print(f"victim re-admitted, completed {rejoined} cells post-rejoin")
        assert spare.address in result.joined, result.joined
        assert result.per_host.get(spare.address, 0) >= 0
        assert result.store_hits == 0
        assert sum(result.per_host.values()) == result.completed \
            == SPEC.num_cells
        assert len(result.results) == SPEC.num_cells

        serial = run_sweep(SPEC)
        assert result.results == serial.results, \
            "fabric results diverge from serial run_sweep"
        print("fabric results bit-identical to serial run_sweep")

        merge = subprocess.run(
            [sys.executable, "-m", "repro.sim", "merge-stores",
             "--into", merged,
             os.path.join(root, "daemon0"), os.path.join(root, "daemon1"),
             os.path.join(root, "spare"), local],
            capture_output=True, text=True, env={**os.environ})
        print(merge.stdout, end="")
        assert merge.returncode == 0, \
            f"merge-stores exited {merge.returncode}: {merge.stderr}"
        print("stores merged without conflicts")

        warm = run_sweep(SPEC, store=ResultStore(merged), resume=True)
        assert warm.computed == 0, \
            f"warm sweep against merged store recomputed {warm.computed}"
        assert warm.results == serial.results
        print("merged store warm no-compute: results bit-identical")

        for daemon in (*daemons, spare):
            EvalClient(daemon.address).shutdown()
            code = daemon.process.wait(timeout=60)
            assert code == 0, f"{daemon.address} exited {code}"
        print("clean shutdown")
        return 0
    finally:
        for daemon in (*daemons, *([spare] if spare else [])):
            daemon.close()
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
