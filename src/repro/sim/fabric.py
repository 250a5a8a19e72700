"""Distributed sweep fabric: one coordinator, an *elastic* fleet.

``run_sweep`` parallelizes a grid across the cores of one box; this
module is the step to a cluster.  A coordinator partitions a
:class:`~repro.sim.sweep.SweepSpec` across remote evaluation daemons
and drives the fleet to completion:

* **Digest-prefix partitioning.**  Every cell routes to the host whose
  index matches its :func:`~repro.sim.store.task_digest` prefix
  (``int(digest[:8], 16) % len(hosts)``) — deterministic, uniform, and
  a disjoint cover of the grid, so each daemon's result store and LRU
  see a stable working set across runs.
* **Bounded in-flight windows.**  ``window`` concurrent single-cell
  requests per host; a slow host never accumulates an unbounded queue
  of in-flight work that would all be lost if it died.
* **Work stealing.**  A host that drains its own partition steals cells
  from the tail of the largest remaining partition — the fleet finishes
  together instead of waiting on the slowest member.
* **Health-checked membership.**  A periodic prober (the same
  ``/healthz`` surface ``EvalClient.ping`` uses) moves every host
  through ``alive → suspect → dead → rejoining`` states: one failed
  probe makes a host *suspect* (no new dispatches; its queue stays, a
  healthy peer may steal from it), a second consecutive failure — or a
  transport failure on a real dispatch — declares it *dead* (its
  unfinished queue re-enters the shared pool).  A dead host that
  answers health checks again is **re-admitted**: marked ``rejoining``,
  then ``alive``, with fresh workers that are immediately eligible for
  work-stealing.  Nothing is lost for the rest of the run just because
  a daemon restarted.
* **Mid-run join.**  ``run_fabric(_async)`` accepts a
  :class:`MembershipSource` — a static list or a watched host file
  (:class:`HostFileMembership`).  A joining host receives an explicit
  handoff: the coordinator re-partitions only the
  *unstarted* remainder by digest prefix across the live fleet;
  completed and in-flight cells never move, so results stay
  bit-identical to a serial :func:`~repro.sim.sweep.run_sweep`.  A host
  removed from the source is evicted (its queue re-dispatched).
* **Failure re-dispatch.**  A transport failure (after the client's own
  retry/backoff budget) marks the host dead; its unfinished cells
  re-enter the shared queue for the survivors.  Each failed cell
  attempt backs off exponentially (capped at ``max_backoff``) and
  consumes one unit of the cell's ``cell_attempts`` budget; a cell that
  exhausts its budget fails the run with a structured error (everything
  already completed is safely in the store — rerun to resume).  A fleet
  with no live member fails immediately under static membership, and
  after ``dead_fleet_grace`` seconds under an elastic source (a
  restarting daemon gets a window to rejoin).
* **Write-through.**  Completed cells land in the coordinator's local
  :class:`~repro.sim.store.ResultStore`, written on the run's own
  writer thread: a host's next cell is dispatched the moment a reply
  arrives, while its cell is written behind it.  ``on_result`` fires on
  the event loop after its cell's write, in completion order, and the
  run returns (or raises) only after every completed cell is written.
  So an interrupted fabric run resumes exactly like an interrupted
  local sweep, and the final results are bit-identical to a serial
  :func:`~repro.sim.sweep.run_sweep` of the same spec.

Every membership change lands in :class:`FabricResult` provenance:
``joined`` / ``readmitted`` / ``evicted`` address lists, the per-host
``transitions`` log, and ``completed_after_readmission`` (how many
cells a re-admitted host contributed after it came back).  Process-wide
transition counters (:func:`membership_counters`) mirror the
controller's kernel counters for dashboards.

Remote daemons keep their own ``--store`` write-back; the audited merge
tool (``python -m repro.sim merge-stores``,
:meth:`ResultStore.merge_from`) folds those stores back together
afterwards, with digest-collision conflict detection.

``python -m repro.sim fabric --hosts ... --grid`` is the CLI;
``--watch-hosts FILE`` follows a host file, and ``fabric stats --hosts
...`` federates the fleet's ``/stats`` counters.  The fault-injection
harness that proves all of this under real SIGSTOP/SIGKILL/blackhole
churn lives in :mod:`repro.sim.chaos`.
"""

from __future__ import annotations

import asyncio
import os
import sys
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from ..errors import SimulationError
from .client import (DEFAULT_BACKOFF, DEFAULT_MAX_BACKOFF, DEFAULT_RETRIES,
                     DEFAULT_TIMEOUT, AsyncEvalClient, TransportError)
from .engine import EvalTask
from .stats import SimStats
from .store import ResultStore, task_digest
from .sweep import SweepResult, SweepSpec

#: Hex digits of the task digest used for host routing (32 bits —
#: uniform far past any realistic fleet size).
PARTITION_PREFIX_HEX = 8

#: Default in-flight single-cell requests per host.
DEFAULT_WINDOW = 4

#: Default total attempts per cell before the run is declared failed.
DEFAULT_CELL_ATTEMPTS = 3

#: Default seconds between membership prober ticks.
DEFAULT_PROBE_INTERVAL = 1.0

#: Default health-probe timeout (seconds).  Deliberately much shorter
#: than the dispatch timeout: ``/healthz`` does no store I/O and no
#: compute, so a probe that does not answer quickly is evidence.
DEFAULT_PROBE_TIMEOUT = 2.0

#: Default seconds an *elastic* fleet may be entirely dead before the
#: run fails (a restarting daemon's window to rejoin).  Static fleets
#: fail immediately — nobody new can ever show up.
DEFAULT_DEAD_FLEET_GRACE = 15.0

#: Consecutive failed probes that turn ``suspect`` into ``dead``.
SUSPECT_PROBES_TO_DEAD = 2

# -- host states --------------------------------------------------------------

STATE_ALIVE = "alive"          #: dispatchable
STATE_SUSPECT = "suspect"      #: a probe failed; no new dispatches
STATE_DEAD = "dead"            #: unreachable; queue re-dispatched
STATE_REJOINING = "rejoining"  #: dead host answered a probe; re-admitting
STATE_EVICTED = "evicted"      #: removed from the membership source

HOST_STATES = (STATE_ALIVE, STATE_SUSPECT, STATE_DEAD, STATE_REJOINING,
               STATE_EVICTED)

# -- membership transition counters ------------------------------------------

#: Process-wide membership transition counters, for dashboards and the
#: membership tests (the fabric analogue of the controller's kernel
#: counters).  Coordinators may run on worker threads driven from sync
#: wrappers while a dashboard thread reads the totals, and ``+=`` on a
#: dict entry is not atomic under free-threaded execution — every
#: access holds ``_MEMBERSHIP_LOCK``.
# staticcheck: guarded-by[_MEMBERSHIP_LOCK, reads]
_MEMBERSHIP_COUNTERS: Dict[str, int] = {
    "admitted": 0,     # hosts joining mid-run (membership source)
    "suspected": 0,    # alive -> suspect (failed probe)
    "recovered": 0,    # suspect -> alive (probe answered again)
    "died": 0,         # -> dead (probes or a dispatch transport failure)
    "readmitted": 0,   # dead -> rejoining (health check passed)
    "evicted": 0,      # -> evicted (removed from the membership source)
}

#: Guards every access of ``_MEMBERSHIP_COUNTERS``.
_MEMBERSHIP_LOCK = threading.Lock()

# A fork while some thread holds the counter lock would leave the
# child's inherited copy locked forever; give the child a fresh one.
os.register_at_fork(
    after_in_child=lambda: globals().update(
        _MEMBERSHIP_LOCK=threading.Lock()))


def membership_counters() -> Dict[str, int]:
    """Snapshot of the membership transition counters (this process)."""
    with _MEMBERSHIP_LOCK:
        return dict(_MEMBERSHIP_COUNTERS)


def reset_membership_counters() -> None:
    """Zero the membership transition counters (tests, dashboards)."""
    with _MEMBERSHIP_LOCK:
        for key in _MEMBERSHIP_COUNTERS:
            _MEMBERSHIP_COUNTERS[key] = 0


def _count_membership(kind: str) -> None:
    with _MEMBERSHIP_LOCK:
        _MEMBERSHIP_COUNTERS[kind] = _MEMBERSHIP_COUNTERS.get(kind, 0) + 1


# -- partitioning -------------------------------------------------------------


def partition_index(task: EvalTask, num_partitions: int) -> int:
    """The partition one cell routes to (digest-prefix modulo)."""
    return int(task_digest(task)[:PARTITION_PREFIX_HEX], 16) % num_partitions


def partition_tasks(tasks: Sequence[EvalTask],
                    num_partitions: int) -> List[List[EvalTask]]:
    """Split cells into ``num_partitions`` deterministic partitions.

    Every cell lands in exactly one partition (a disjoint cover — the
    property the fabric tests pin), order within a partition follows
    the input order, and the assignment depends only on the task digest
    — the same spec partitions identically on every coordinator.
    """
    if num_partitions < 1:
        raise SimulationError("need at least one partition")
    parts: List[List[EvalTask]] = [[] for _ in range(num_partitions)]
    for task in tasks:
        parts[partition_index(task, num_partitions)].append(task)
    return parts


# -- membership sources -------------------------------------------------------


class MembershipSource:
    """Where the coordinator learns the fleet's addresses.

    ``hosts()`` returns the *current* membership (called at launch and
    on every prober tick for elastic sources).  ``elastic`` declares
    whether membership can change mid-run: elastic sources get mid-run
    join/evict handling and the ``dead_fleet_grace`` rejoin window;
    static ones keep the PR 8 fail-fast semantics.
    """

    elastic = False

    def hosts(self) -> List[str]:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


class StaticMembership(MembershipSource):
    """The PR 8 behaviour: a host list frozen at launch."""

    elastic = False

    def __init__(self, hosts: Sequence[str]) -> None:
        self._hosts = list(dict.fromkeys(hosts))

    def hosts(self) -> List[str]:
        return list(self._hosts)

    def describe(self) -> str:
        return f"static ({len(self._hosts)} hosts)"


class HostFileMembership(MembershipSource):
    """A watched host file: one address per line, ``#`` comments.

    Rewriting the file mid-run adds (join) or removes (evict) fleet
    members on the next prober tick.  A missing or unreadable file
    reads as an empty fleet — rewriting it empty is the operator's
    "abort this fleet" signal, and the run fails with the structured
    whole-fleet-dead error (completed cells stay checkpointed in the
    local store).
    """

    elastic = True

    def __init__(self, path: Any) -> None:
        self.path = Path(path)

    def hosts(self) -> List[str]:
        try:
            text = self.path.read_text()
        except OSError:
            return []
        hosts = []
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if line:
                hosts.append(line)
        return list(dict.fromkeys(hosts))

    def describe(self) -> str:
        return f"host file {self.path}"


# -- results ------------------------------------------------------------------


@dataclass
class FabricResult:
    """A finished fabric run: results plus dispatch provenance."""

    spec: SweepSpec
    results: Dict[EvalTask, SimStats]
    store_hits: int                  #: cells served by the local store
    completed: int                   #: cells evaluated by the fleet
    stolen: int                      #: cells run off their home partition
    redispatched: int                #: cells re-queued after a failure
    dead_hosts: List[str] = field(default_factory=list)
    per_host: Dict[str, int] = field(default_factory=dict)
    #: Hosts admitted mid-run via the membership source.
    joined: List[str] = field(default_factory=list)
    #: Dead hosts re-admitted after answering health checks again.
    readmitted: List[str] = field(default_factory=list)
    #: Hosts removed because the membership source dropped them.
    evicted: List[str] = field(default_factory=list)
    #: Per-host state-transition log, e.g.
    #: ``"alive→suspect (health probe failed)"``.
    transitions: Dict[str, List[str]] = field(default_factory=dict)
    #: Cells each re-admitted host completed *after* it came back.
    completed_after_readmission: Dict[str, int] = field(default_factory=dict)

    def rows(self) -> List[Dict[str, object]]:
        """Flat export rows, same shape as a local sweep's."""
        return SweepResult(self.spec, self.results,
                           self.store_hits, self.completed).rows()

    def describe(self) -> str:
        hosts = ", ".join(f"{host}={count}"
                          for host, count in self.per_host.items())
        line = (f"{len(self.results)} cells ({self.store_hits} local store "
                f"hits, {self.completed} remote: {hosts}); "
                f"{self.stolen} stolen, {self.redispatched} re-dispatched")
        if self.dead_hosts:
            line += f"; dead hosts: {', '.join(self.dead_hosts)}"
        if self.joined:
            line += f"; joined: {', '.join(self.joined)}"
        if self.readmitted:
            line += f"; readmitted: {', '.join(self.readmitted)}"
        if self.evicted:
            line += f"; evicted: {', '.join(self.evicted)}"
        return line


# -- the coordinator ----------------------------------------------------------


class _HostState:
    """One fleet member: its clients, its partition, its liveness."""

    __slots__ = ("address", "client", "probe", "pending", "state",
                 "completed", "probe_failures", "workers",
                 "readmission_baseline")

    def __init__(self, address: str, client: AsyncEvalClient,
                 probe: AsyncEvalClient) -> None:
        self.address = address
        self.client = client
        self.probe = probe
        self.pending: "deque[EvalTask]" = deque()
        self.state = STATE_ALIVE
        self.completed = 0
        self.probe_failures = 0
        self.workers: Set["asyncio.Task"] = set()
        #: ``completed`` at the moment of the last readmission, so the
        #: provenance can report post-rejoin contribution.
        self.readmission_baseline: Optional[int] = None


class _FabricRun:
    """Shared dispatcher state for one fabric execution.

    Everything here mutates on the event loop only, so the deques and
    the membership map need no locking; ``wakeup`` is the notification
    channel (new work queued, a cell completed, a state changed) and
    ``done`` latches completion or failure.  The one thread besides the
    loop is the store's writer, which runs ``store.put`` and touches no
    run state.
    """

    def __init__(self, *, membership: MembershipSource,
                 addresses: Sequence[str], missing: List[EvalTask],
                 store: Optional[ResultStore], latencies: bool,
                 cell_attempts: int, backoff: float, max_backoff: float,
                 timeout: float, retries: int,
                 probe_interval: float, probe_timeout: float,
                 dead_fleet_grace: float,
                 on_result: Optional[Callable[[EvalTask, SimStats], None]],
                 on_membership: Optional[Callable[[str, str, str, str],
                                                  None]]) -> None:
        self.membership = membership
        self.store = store
        self.latencies = latencies
        self.cell_attempts = max(1, cell_attempts)
        self.backoff = backoff
        self.max_backoff = max_backoff
        self.timeout = timeout
        self.retries = retries
        self.probe_interval = max(0.01, probe_interval)
        self.probe_timeout = probe_timeout
        self.dead_fleet_grace = dead_fleet_grace
        self.on_result = on_result
        self.on_membership = on_membership
        self.hosts: Dict[str, _HostState] = {}
        self.overflow: "deque[EvalTask]" = deque()
        self.attempts: Dict[EvalTask, int] = {}
        self.results: Dict[EvalTask, SimStats] = {}
        self.remaining = len(missing)
        self.stolen = 0
        self.redispatched = 0
        self.failure: Optional[Exception] = None
        self.joined: List[str] = []
        self.readmitted: List[str] = []
        self.evicted: List[str] = []
        self.transitions: Dict[str, List[str]] = {}
        self.wakeup = asyncio.Event()
        self.done = asyncio.Event()
        self._window = 1
        self._requeues: Set["asyncio.Task"] = set()
        self._workers: Set["asyncio.Task"] = set()
        self._writer: Optional[ThreadPoolExecutor] = None
        self._reports: Set["asyncio.Task"] = set()
        self._fleet_dead_since: Optional[float] = None
        for address in addresses:
            self._add_host(address)
        initial = list(self.hosts.values())
        for part, host in zip(partition_tasks(missing, len(initial)),
                              initial):
            host.pending.extend(part)

    # -- membership ---------------------------------------------------------

    def _add_host(self, address: str) -> _HostState:
        host = _HostState(
            address,
            AsyncEvalClient(address, timeout=self.timeout,
                            retries=self.retries, backoff=self.backoff,
                            max_backoff=self.max_backoff),
            AsyncEvalClient(address, timeout=self.probe_timeout,
                            retries=0, backoff=self.backoff))
        self.hosts[address] = host
        return host

    def _note_transition(self, host: _HostState, old: str, new: str,
                         reason: str) -> None:
        self.transitions.setdefault(host.address, []).append(
            f"{old}→{new} ({reason})")
        if self.on_membership is not None:
            self.on_membership(host.address, old, new, reason)

    def _set_state(self, host: _HostState, new: str, reason: str) -> None:
        old = host.state
        if old == new:
            return
        host.state = new
        counted = {STATE_SUSPECT: "suspected", STATE_DEAD: "died",
                   STATE_REJOINING: "readmitted",
                   STATE_EVICTED: "evicted"}.get(new)
        if new == STATE_ALIVE and old == STATE_SUSPECT:
            counted = "recovered"
        if counted is not None:
            _count_membership(counted)
        self._note_transition(host, old, new, reason)
        self.wakeup.set()

    def admit(self, address: str, reason: str) -> None:
        """A new host from the membership source: explicit handoff —
        re-partition the unstarted remainder, then put it to work."""
        host = self.hosts.get(address)
        if host is None:
            host = self._add_host(address)
            _count_membership("admitted")
            self.transitions.setdefault(address, []).append(
                f"(new)→{STATE_ALIVE} ({reason})")
            if self.on_membership is not None:
                self.on_membership(address, "(new)", STATE_ALIVE, reason)
        elif host.state == STATE_EVICTED:
            # Evicted then re-listed: same handoff as a fresh join.
            _count_membership("admitted")
            self._note_transition(host, STATE_EVICTED, STATE_ALIVE, reason)
            host.state = STATE_ALIVE
            host.probe_failures = 0
        else:
            return
        if address not in self.joined:
            self.joined.append(address)
        self._handoff()
        self._spawn_workers(host)
        self.wakeup.set()

    def _handoff(self) -> None:
        """Re-partition the *unstarted* remainder across the live
        fleet.  Only pending (never-dispatched) cells move — completed
        and in-flight cells stay where they are, so the result set is
        unaffected and stays bit-identical to a serial sweep."""
        live = [host for host in self.hosts.values()
                if host.state == STATE_ALIVE]
        if not live:
            return
        unstarted: List[EvalTask] = []
        for host in live:
            unstarted.extend(host.pending)
            host.pending.clear()
        for part, host in zip(partition_tasks(unstarted, len(live)), live):
            host.pending.extend(part)

    def evict(self, host: _HostState, reason: str) -> None:
        """The membership source dropped this host: drain its queue
        back to the shared pool and retire it for good."""
        if host.state == STATE_EVICTED:
            return
        while host.pending:
            self.overflow.append(host.pending.popleft())
            self.redispatched += 1
        self._set_state(host, STATE_EVICTED, reason)
        if host.address not in self.evicted:
            self.evicted.append(host.address)
        self._cancel_workers(host)
        self._check_fleet_dead()
        self.wakeup.set()

    def readmit(self, host: _HostState) -> None:
        """A dead host answered its health check: re-admit it.  No
        handoff — its old queue was already re-dispatched — but its
        fresh workers steal from the largest remainder immediately."""
        self._set_state(host, STATE_REJOINING, "health check passed")
        host.probe_failures = 0
        host.readmission_baseline = host.completed
        if host.address not in self.readmitted:
            self.readmitted.append(host.address)
        self._set_state(host, STATE_ALIVE,
                        "re-admitted; eligible for work-stealing")
        self._fleet_dead_since = None
        self._spawn_workers(host)
        self.wakeup.set()

    def mark_dead(self, host: _HostState, reason: str) -> None:
        """A host stopped answering: its unfinished partition re-enters
        the shared queue for the survivors."""
        if host.state in (STATE_DEAD, STATE_EVICTED):
            return
        while host.pending:
            self.overflow.append(host.pending.popleft())
            self.redispatched += 1
        self._set_state(host, STATE_DEAD, reason)
        self._cancel_workers(host)
        self._check_fleet_dead()
        self.wakeup.set()

    def _cancel_workers(self, host: _HostState) -> None:
        """Abort a dead host's in-flight dispatches (each re-queues its
        cell on the way out).  The caller may *be* one of this host's
        workers — never cancel the current task."""
        current = asyncio.current_task()
        for worker in list(host.workers):
            if worker is not current:
                worker.cancel()

    def _check_fleet_dead(self) -> None:
        """No live member left?  Fail fast under static membership;
        give an elastic fleet ``dead_fleet_grace`` seconds to rejoin
        (checked again on every prober tick)."""
        if self.remaining <= 0 or self.failure is not None:
            return
        live = [host for host in self.hosts.values()
                if host.state in (STATE_ALIVE, STATE_SUSPECT,
                                  STATE_REJOINING)]
        if live:
            self._fleet_dead_since = None
            return
        if not self.membership.elastic:
            self._fail_fleet_dead()
            return
        if not self.membership.hosts():
            # The source itself says the fleet is empty (host file
            # rewritten empty): nobody is coming back — fail now.
            self._fail_fleet_dead()
            return
        now = asyncio.get_running_loop().time()
        if self._fleet_dead_since is None:
            self._fleet_dead_since = now
        elif now - self._fleet_dead_since >= self.dead_fleet_grace:
            self._fail_fleet_dead()

    def _fail_fleet_dead(self) -> None:
        dead = [address for address, host in self.hosts.items()
                if host.state in (STATE_DEAD, STATE_EVICTED)]
        self.fail(SimulationError(
            f"fabric stalled with {self.remaining} cells unfinished; "
            f"dead hosts: {dead or 'none'} — completed cells are in "
            f"the local store, rerun to resume"))

    # -- the prober ---------------------------------------------------------

    async def _probe_host(self, host: _HostState) -> None:
        if host.state == STATE_EVICTED:
            return
        ok = await host.probe.ping()
        if host.state == STATE_EVICTED:
            return    # evicted while the probe was in flight
        if ok:
            host.probe_failures = 0
            if host.state == STATE_SUSPECT:
                self._set_state(host, STATE_ALIVE, "probe answered again")
                self.wakeup.set()
            elif host.state == STATE_DEAD:
                self.readmit(host)
        else:
            host.probe_failures += 1
            if host.state == STATE_ALIVE:
                self._set_state(host, STATE_SUSPECT, "health probe failed")
            elif host.state == STATE_SUSPECT \
                    and host.probe_failures >= SUSPECT_PROBES_TO_DEAD:
                self.mark_dead(host, f"{host.probe_failures} consecutive "
                                     f"health probes failed")

    def _apply_membership(self) -> None:
        """Fold the source's current host set into the fleet (elastic
        sources only; applied between dispatch windows — each prober
        tick — never mid-cell)."""
        if not self.membership.elastic:
            return
        current = list(dict.fromkeys(self.membership.hosts()))
        listed = set(current)
        for address in current:
            host = self.hosts.get(address)
            if host is None or host.state == STATE_EVICTED:
                self.admit(address, f"joined via "
                                    f"{self.membership.describe()}")
        for address, host in list(self.hosts.items()):
            if address not in listed and host.state != STATE_EVICTED:
                self.evict(host, "removed from "
                                 f"{self.membership.describe()}")

    async def _prober(self) -> None:
        """The membership heartbeat: apply source changes, probe every
        host, and run the dead-fleet clock."""
        while self.failure is None and self.remaining > 0:
            await asyncio.sleep(self.probe_interval)
            self._apply_membership()
            if self.failure is not None or self.remaining <= 0:
                return
            await asyncio.gather(*(
                self._probe_host(host)
                for host in list(self.hosts.values())
                if host.state != STATE_EVICTED))
            self._check_fleet_dead()

    # -- scheduling ---------------------------------------------------------

    def next_task(self, host: _HostState):
        """Next cell for one worker: re-dispatch queue first, then the
        host's own partition, then steal from the largest remainder.
        Cells completed elsewhere in the meantime (a duplicate from a
        timed-out attempt) are dropped, never re-run."""
        while self.overflow:
            task = self.overflow.popleft()
            if task not in self.results:
                return task, False
        while host.pending:
            task = host.pending.popleft()
            if task not in self.results:
                return task, False
        victim = None
        for other in self.hosts.values():
            if other is host or not other.pending:
                continue
            if other.state not in (STATE_ALIVE, STATE_SUSPECT):
                continue
            if victim is None or len(other.pending) > len(victim.pending):
                victim = other
        if victim is not None:
            # Steal from the tail: the head cells are about to be
            # pulled by the victim's own workers.
            while victim.pending:
                task = victim.pending.pop()
                if task not in self.results:
                    return task, True
        return None, False

    def fail(self, error: Exception) -> None:
        if self.failure is None:
            self.failure = error
        self.wakeup.set()
        self.done.set()

    def cell_failed(self, task: EvalTask, error: SimulationError) -> None:
        """One failed attempt: consume budget, back off, re-queue."""
        attempts = self.attempts.get(task, 0) + 1
        self.attempts[task] = attempts
        if attempts >= self.cell_attempts:
            self.fail(SimulationError(
                f"fabric cell ({task.describe()}) failed after "
                f"{attempts} attempts: {error}"))
            return
        delay = min(self.backoff * (2 ** (attempts - 1)), self.max_backoff)
        requeue = asyncio.ensure_future(
            self._requeue_after_backoff(task, delay))
        self._requeues.add(requeue)
        requeue.add_done_callback(self._requeues.discard)

    async def _requeue_after_backoff(self, task: EvalTask,
                                     delay: float) -> None:
        if delay > 0:
            await asyncio.sleep(delay)
        self.overflow.append(task)
        self.redispatched += 1
        self.wakeup.set()

    # -- the worker loop ----------------------------------------------------

    def _spawn_workers(self, host: _HostState) -> None:
        """``window`` in-flight slots for one (re-)admitted host."""
        for _ in range(self._window):
            worker = asyncio.ensure_future(self.worker(host))
            self._workers.add(worker)
            host.workers.add(worker)
            worker.add_done_callback(self._workers.discard)
            worker.add_done_callback(host.workers.discard)
            worker.add_done_callback(self._task_exited)

    def _task_exited(self, task: "asyncio.Task") -> None:
        """A worker or the prober that died of an unexpected exception
        (a membership source that raises) fails the run with that
        error: nothing else would ever latch ``done`` for the cell it
        lost."""
        if not task.cancelled() and task.exception() is not None:
            self.fail(task.exception())

    async def worker(self, host: _HostState) -> None:
        """One in-flight slot on one host.  Exits when the run
        completes or fails, or the host leaves the dispatchable states
        (a re-admission spawns fresh workers)."""
        while self.failure is None and self.remaining > 0 \
                and host.state in (STATE_ALIVE, STATE_SUSPECT):
            if host.state != STATE_ALIVE:
                # Suspect: hold new dispatches until a probe verdict.
                await self._pause()
                continue
            task, stolen = self.next_task(host)
            if task is None:
                # Nothing dispatchable right now (cells in flight
                # elsewhere, or a backoff pending): wait for a wakeup,
                # with a poll floor as a lost-wakeup safety net.
                await self._pause()
                continue
            try:
                stats = await host.client.eval_cell(
                    task, latencies=self.latencies)
            except TransportError as error:
                # The client's own retry budget is spent: the host is
                # unreachable.  Its queue re-enters the shared pool and
                # this in-flight cell consumes one attempt.
                self.mark_dead(host, f"transport failure: {error}")
                self.cell_failed(task, error)
                continue
            except SimulationError as error:
                # Structured server-side failure (a crashed worker, a
                # restarted pool): the host is alive — retry the cell
                # elsewhere within its budget.
                self.cell_failed(task, error)
                continue
            except asyncio.CancelledError:
                # Cancelled with a cell in flight (the prober declared
                # this host dead, or it was evicted): the attempt is
                # void — re-queue it unless the run is already over or
                # a duplicate completed it.
                if self.failure is None and self.remaining > 0 \
                        and task not in self.results:
                    self.cell_failed(task, TransportError(
                        f"cell in flight when host {host.address} was "
                        f"removed"))
                raise
            if task in self.results:
                # A duplicate completion: the cell was re-queued while
                # this attempt was still in flight and another host got
                # there first.  Same digest, same bits — drop it.
                self.wakeup.set()
                continue
            if stolen:
                self.stolen += 1
            host.completed += 1
            self.results[task] = stats
            self.remaining -= 1
            self._write_behind(task, stats)
            self.wakeup.set()

    def _write_behind(self, task: EvalTask, stats: SimStats) -> None:
        """Queue a completed cell's store write on the writer thread and
        its report on the loop; the worker dispatches its next cell at
        once."""
        written = None
        if self._writer is not None:
            written = asyncio.wrap_future(self._writer.submit(
                self.store.put, task, stats, self.latencies))
        self._reports.add(asyncio.ensure_future(
            self._report(task, stats, written)))

    async def _report(self, task: EvalTask, stats: SimStats,
                      written: "Optional[asyncio.Future]") -> None:
        """``on_result`` for one cell, once its write has landed.  One
        FIFO writer thread, so writes and reports both follow completion
        order.  A failing write or callback ends the run with its
        exception (the first one, if several fail); ``done`` latches
        once the last cell is reported."""
        try:
            if written is not None:
                await written
            if self.on_result is not None:
                self.on_result(task, stats)
        except Exception as error:
            self.fail(error)
        finally:
            self._reports.discard(asyncio.current_task())
            if self.remaining <= 0 and not self._reports:
                self.done.set()

    async def _pause(self) -> None:
        self.wakeup.clear()
        try:
            await asyncio.wait_for(self.wakeup.wait(), 0.05)
        except asyncio.TimeoutError:
            pass

    async def run(self, window: int) -> None:
        self._window = max(1, window)
        if self.remaining <= 0:
            self.done.set()
        if self.store is not None:
            self._writer = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="fabric-writer")
        for host in list(self.hosts.values()):
            self._spawn_workers(host)
        prober = asyncio.ensure_future(self._prober())
        prober.add_done_callback(self._task_exited)
        try:
            await self.done.wait()
        finally:
            prober.cancel()
            for requeue in list(self._requeues):
                requeue.cancel()
            for worker in list(self._workers):
                worker.cancel()
            await asyncio.gather(prober, *self._requeues, *self._workers,
                                 return_exceptions=True)
            # Every cell whose reply arrived is written and reported
            # before the run returns or raises; no writer outlives it.
            try:
                if self._reports:
                    await asyncio.wait(self._reports)
            finally:
                if self._writer is not None:
                    self._writer.shutdown(wait=True)
        if self.failure is not None:
            raise self.failure
        if self.remaining > 0:
            # Unreachable by construction (done only latches on
            # completion or failure) — kept as a belt against a future
            # scheduling bug silently dropping cells.
            raise SimulationError(
                f"fabric stalled with {self.remaining} cells unfinished; "
                f"rerun to resume from the local store")


async def run_fabric_async(
    spec: SweepSpec,
    hosts: Optional[Sequence[str]] = None,
    store: Optional[ResultStore] = None,
    resume: bool = True,
    window: int = DEFAULT_WINDOW,
    retries: int = DEFAULT_RETRIES,
    backoff: float = DEFAULT_BACKOFF,
    cell_attempts: int = DEFAULT_CELL_ATTEMPTS,
    latencies: bool = True,
    timeout: float = DEFAULT_TIMEOUT,
    on_result: Optional[Callable[[EvalTask, SimStats], None]] = None,
    membership: Optional[MembershipSource] = None,
    max_backoff: float = DEFAULT_MAX_BACKOFF,
    probe_interval: float = DEFAULT_PROBE_INTERVAL,
    probe_timeout: float = DEFAULT_PROBE_TIMEOUT,
    dead_fleet_grace: float = DEFAULT_DEAD_FLEET_GRACE,
    on_membership: Optional[Callable[[str, str, str, str], None]] = None,
) -> FabricResult:
    """Execute a sweep across an elastic fleet of evaluation daemons.

    The fleet comes from ``hosts`` (``http://host:port`` client
    addresses, frozen for the run) or a ``membership`` source (pass
    exactly one); an elastic source (:class:`HostFileMembership`) admits
    and evicts hosts mid-run.  Cells already in the local ``store`` are
    served from disk when ``resume`` is true; the rest are partitioned
    by digest prefix and dispatched with ``window`` in-flight requests
    per host, work stealing, health-checked membership
    (``probe_interval`` / ``probe_timeout``), and failure re-dispatch
    (see the module docstring).  ``on_membership(address, old, new,
    reason)`` observes every state transition (the chaos tests key
    fault injection off it); ``latencies=False`` trims per-request
    samples from both the wire and the store write-through (archival
    mode).  ``on_result(task, stats)`` runs on the event loop after
    the cell's store write, in completion order.  An exception raised
    by ``on_result`` (or by the store write-through) ends the run with
    that exception, once every cell already completed is written.

    The final ``results`` are bit-identical to a serial
    :func:`~repro.sim.sweep.run_sweep` of the same spec — under
    membership churn too.
    """
    if membership is None:
        if hosts is None:
            raise SimulationError(
                "fabric needs hosts or a membership source")
        membership = StaticMembership(hosts)
    elif hosts is not None:
        raise SimulationError(
            "pass either hosts or a membership source, not both")
    addresses = list(dict.fromkeys(membership.hosts()))
    if not addresses:
        raise SimulationError("fabric needs at least one host")
    tasks = spec.tasks()
    cached: Dict[EvalTask, SimStats] = {}
    if store is not None and resume:
        cached = {task: hit for task, hit in store.get_many(tasks).items()
                  if hit is not None}
    missing = [task for task in tasks if task not in cached]
    run = _FabricRun(
        membership=membership, addresses=addresses, missing=missing,
        store=store, latencies=latencies, cell_attempts=cell_attempts,
        backoff=backoff, max_backoff=max_backoff, timeout=timeout,
        retries=retries, probe_interval=probe_interval,
        probe_timeout=probe_timeout, dead_fleet_grace=dead_fleet_grace,
        on_result=on_result, on_membership=on_membership)
    run.results.update(cached)
    await run.run(window)
    states = run.hosts
    readmitted = set(run.readmitted)
    return FabricResult(
        spec=spec,
        results=run.results,
        store_hits=len(cached),
        completed=sum(host.completed for host in states.values()),
        stolen=run.stolen,
        redispatched=run.redispatched,
        dead_hosts=[address for address, host in states.items()
                    if host.state == STATE_DEAD],
        per_host={address: host.completed
                  for address, host in states.items()},
        joined=list(run.joined),
        readmitted=list(run.readmitted),
        evicted=list(run.evicted),
        transitions={address: list(log)
                     for address, log in run.transitions.items()},
        completed_after_readmission={
            address: host.completed - (host.readmission_baseline or 0)
            for address, host in states.items() if address in readmitted},
    )


def run_fabric(spec: SweepSpec, hosts: Optional[Sequence[str]] = None,
               **kwargs: Any) -> FabricResult:
    """Synchronous wrapper over :func:`run_fabric_async`."""
    return asyncio.run(run_fabric_async(spec, hosts, **kwargs))


# -- federated stats ---------------------------------------------------------


async def federate_stats_async(hosts: Sequence[str],
                               timeout: float = 30.0,
                               retries: int = DEFAULT_RETRIES,
                               backoff: float = DEFAULT_BACKOFF
                               ) -> Dict[str, Any]:
    """Every host's ``/stats`` plus fleet-wide numeric totals.

    Unreachable hosts are reported (``{"error": ...}`` per host and an
    ``unreachable`` count), never raised — a dashboard poll must not
    die because one member is restarting.
    """
    addresses = list(dict.fromkeys(hosts))
    if not addresses:
        raise SimulationError("need at least one host")

    async def fetch(address: str) -> Any:
        try:
            return await AsyncEvalClient(address, timeout=timeout,
                                         retries=retries,
                                         backoff=backoff).stats()
        except SimulationError as error:
            return {"error": str(error)}

    snapshots = await asyncio.gather(*(fetch(a) for a in addresses))
    per_host = dict(zip(addresses, snapshots))
    totals: Dict[str, Any] = {}
    kernel_totals: Dict[str, int] = {}
    reachable = 0
    for snapshot in snapshots:
        if "error" in snapshot:
            continue
        reachable += 1
        for key, value in snapshot.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            totals[key] = totals.get(key, 0) + value
        for key, value in (snapshot.get("kernel") or {}).items():
            if isinstance(value, int) and not isinstance(value, bool):
                kernel_totals[key] = kernel_totals.get(key, 0) + value
    if kernel_totals:
        totals["kernel"] = kernel_totals
    return {
        "hosts": per_host,
        "totals": totals,
        "reachable": reachable,
        "unreachable": len(addresses) - reachable,
    }


def federate_stats(hosts: Sequence[str], **kwargs: Any) -> Dict[str, Any]:
    """Synchronous wrapper over :func:`federate_stats_async`."""
    return asyncio.run(federate_stats_async(hosts, **kwargs))


# -- CLI ---------------------------------------------------------------------


def _parse_hosts(values: Optional[List[str]]) -> List[str]:
    hosts: List[str] = []
    for value in values or []:
        hosts.extend(part.strip() for part in value.split(",")
                     if part.strip())
    return list(dict.fromkeys(hosts))


def _stats_main(argv: List[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.sim fabric stats",
        description="Federate /stats across a fleet of evaluation "
                    "daemons.",
    )
    parser.add_argument("--hosts", required=True, action="append",
                        metavar="ADDR[,ADDR...]",
                        help="daemon addresses (repeatable or "
                             "comma-separated)")
    parser.add_argument("--timeout", type=float, default=30.0)
    args = parser.parse_args(argv)
    hosts = _parse_hosts(args.hosts)
    if not hosts:
        parser.error("--hosts resolved to an empty set")
    report = federate_stats(hosts, timeout=args.timeout)
    for address, snapshot in report["hosts"].items():
        if "error" in snapshot:
            print(f"{address}: unreachable ({snapshot['error']})")
            continue
        print(f"{address}: computed {snapshot.get('computed', 0)}, "
              f"store_hits {snapshot.get('store_hits', 0)}, "
              f"lru_hits {snapshot.get('lru_hits', 0)}, "
              f"queries {snapshot.get('queries', 0)}, "
              f"errors {snapshot.get('errors', 0)}")
    totals = report["totals"]
    print(f"fleet ({report['reachable']}/{len(report['hosts'])} "
          f"reachable): " + ", ".join(
              f"{key} {value}" for key, value in sorted(totals.items())
              if not isinstance(value, dict)))
    return 0 if report["unreachable"] == 0 else 1


def fabric_main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.sim fabric`` — run a sweep across a fleet (or
    ``fabric stats`` — federate the fleet's counters)."""
    import argparse

    from .factory import known_architectures
    from .sweep import run_sweep, write_csv, write_json
    from .tracegen import SPEC_WORKLOADS, WORKLOAD_NAMES

    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "stats":
        return _stats_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro.sim fabric",
        description="Partition a sweep across remote evaluation daemons "
                    "(digest-prefix routing, bounded in-flight windows, "
                    "work stealing, health-checked elastic membership, "
                    "failure re-dispatch) with local result-store "
                    "write-through.  "
                    "'fabric stats --hosts ...' federates /stats.",
    )
    parser.add_argument("--hosts", action="append", default=None,
                        metavar="ADDR[,ADDR...]",
                        help="daemon addresses (repeatable or "
                             "comma-separated); static membership")
    parser.add_argument("--watch-hosts", default=None, metavar="FILE",
                        help="watched host file (one address per line, "
                             "# comments): rewrite it mid-run to add or "
                             "remove fleet members")
    parser.add_argument("--arch", default="ALL",
                        choices=known_architectures() + ("ALL",))
    parser.add_argument("--workloads", default=None,
                        help="'spec' (default), 'all', or a "
                             "comma-separated list")
    parser.add_argument("--requests", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--queue-depths", default=None,
                        metavar="D[,D...]",
                        help="queue-depth axis (integers; 'default' "
                             "keeps the per-architecture default)")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="local write-through result store "
                             "(resumable)")
    parser.add_argument("--no-resume", action="store_true",
                        help="ignore cells already in --store")
    parser.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                        help="in-flight requests per host")
    parser.add_argument("--retries", type=int, default=DEFAULT_RETRIES,
                        help="transport retries per request before a "
                             "host is declared dead")
    parser.add_argument("--backoff", type=float, default=DEFAULT_BACKOFF,
                        help="base retry/re-dispatch backoff (seconds)")
    parser.add_argument("--max-backoff", type=float,
                        default=DEFAULT_MAX_BACKOFF,
                        help="ceiling on the exponential retry/"
                             "re-dispatch backoff (seconds)")
    parser.add_argument("--cell-attempts", type=int,
                        default=DEFAULT_CELL_ATTEMPTS,
                        help="attempts per cell before the run fails")
    parser.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT,
                        help="per-dispatch client timeout (seconds)")
    parser.add_argument("--probe-interval", type=float,
                        default=DEFAULT_PROBE_INTERVAL,
                        help="seconds between membership health probes")
    parser.add_argument("--probe-timeout", type=float,
                        default=DEFAULT_PROBE_TIMEOUT,
                        help="health probe timeout (seconds)")
    parser.add_argument("--dead-fleet-grace", type=float,
                        default=DEFAULT_DEAD_FLEET_GRACE,
                        help="seconds an elastic fleet may be entirely "
                             "dead before the run fails")
    parser.add_argument("--no-latencies", action="store_true",
                        help="archival mode: trim per-request samples "
                             "from the wire and the store")
    parser.add_argument("--export", choices=("csv", "json"), default=None)
    parser.add_argument("--export-path", default="-", metavar="PATH")
    args = parser.parse_args(argv)

    hosts = _parse_hosts(args.hosts)
    if hosts and args.watch_hosts:
        parser.error("--hosts and --watch-hosts are mutually exclusive "
                     "(seed the host file instead)")
    if not hosts and not args.watch_hosts:
        parser.error("need --hosts or --watch-hosts")
    if args.window < 1:
        parser.error("--window must be >= 1")
    if args.cell_attempts < 1:
        parser.error("--cell-attempts must be >= 1")
    if args.workloads in (None, "spec"):
        workloads = sorted(SPEC_WORKLOADS)
    elif args.workloads == "all":
        workloads = list(WORKLOAD_NAMES)
    else:
        workloads = [name.strip() for name in args.workloads.split(",")
                     if name.strip()]
    if not workloads:
        parser.error("--workloads resolved to an empty set")
    queue_depths: List[Optional[int]] = [None]
    if args.queue_depths is not None:
        queue_depths = []
        for part in args.queue_depths.split(","):
            part = part.strip()
            if not part:
                continue
            if part == "default":
                queue_depths.append(None)
                continue
            try:
                queue_depths.append(int(part))
            except ValueError:
                parser.error(f"--queue-depths entry {part!r} is not an "
                             f"integer (or 'default')")
        if not queue_depths:
            parser.error("--queue-depths resolved to an empty set")
    archs = known_architectures() if args.arch == "ALL" else (args.arch,)
    table = sys.stderr if (args.export and args.export_path == "-") \
        else sys.stdout
    try:
        spec = SweepSpec(architectures=tuple(archs),
                         workloads=tuple(workloads),
                         num_requests=(args.requests,),
                         seeds=(args.seed,),
                         queue_depths=tuple(queue_depths))
        store = ResultStore(args.store) if args.store else None
        membership: Optional[MembershipSource] = None
        if args.watch_hosts:
            membership = HostFileMembership(args.watch_hosts)
    except SimulationError as error:
        parser.error(str(error))
    except OSError as error:
        parser.error(f"result store {args.store!r} unusable: {error}")
    initial = membership.hosts() if membership is not None else hosts
    print(f"fabric       : {len(initial)} hosts, {spec.num_cells} cells "
          f"(window {args.window}/host, {args.cell_attempts} attempts/"
          f"cell)", file=table)

    def report_transition(address: str, old: str, new: str,
                          reason: str) -> None:
        print(f"membership   : {address} {old}→{new} ({reason})",
              file=table, flush=True)

    try:
        result = run_fabric(spec, hosts if membership is None else None,
                            store=store, membership=membership,
                            resume=not args.no_resume, window=args.window,
                            retries=args.retries, backoff=args.backoff,
                            max_backoff=args.max_backoff,
                            cell_attempts=args.cell_attempts,
                            timeout=args.timeout,
                            probe_interval=args.probe_interval,
                            probe_timeout=args.probe_timeout,
                            dead_fleet_grace=args.dead_fleet_grace,
                            latencies=not args.no_latencies,
                            on_membership=report_transition)
    except SimulationError as error:
        message = f"error: {error}"
        if args.store:
            message += (f"\ncompleted cells are checkpointed in "
                        f"{args.store}; rerun to continue")
        print(message, file=sys.stderr)
        return 1
    print(f"dispatch     : {result.describe()}", file=table)
    for address, log in result.transitions.items():
        print(f"  {address}: {'; '.join(log)}", file=table)
    if args.export:
        writer = write_csv if args.export == "csv" else write_json
        if args.export_path == "-":
            writer(result.rows(), sys.stdout)
        else:
            with open(args.export_path, "w", newline="") as stream:
                writer(result.rows(), stream)
    return 0
