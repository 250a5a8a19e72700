"""Fault injection for the sweep fabric: real daemons, real signals.

The elastic-membership claims in :mod:`repro.sim.fabric` — suspect
detection, dead-host re-dispatch, health-checked re-admission, mid-run
join — are only worth something if they hold against *real* failure
modes, not mocks.  This module is the harness the equivalence tests
and the CI ``fabric-smoke`` job use to prove them:

* :class:`ChaosDaemon` runs ``python -m repro.sim.chaos`` (a thin
  wrapper over the real ``repro.sim serve`` daemon) as a subprocess
  and exposes the faults the fabric must survive: ``sigstop()`` /
  ``sigcont()`` (a wedged-but-listening host: probes time out, the
  fabric suspects it, then recovers it), ``kill()`` (SIGKILL — the
  fabric declares it dead and re-dispatches its queue) and
  ``restart()`` (a fresh process on the same port and store — the
  prober re-admits it mid-run).
* :class:`Blackhole` is a TCP proxy that can drop every connection on
  demand — a transport fault with the daemon itself perfectly healthy
  (the network variant of a dead host), then heal.
* :class:`ChaosSchedule` fires those faults at deterministic points in
  a run — "after N cells completed", with the points and the victim
  drawn from a seeded RNG — so a chaos test is reproducible from its
  seed alone.

Pacing: a fabric run over tiny test cells finishes before any fault
can land mid-run.  ``ChaosDaemon(cell_delay=...)`` sets
``REPRO_CHAOS_CELL_DELAY`` for the subprocess; :func:`chaos_serve_main`
wraps ``engine.evaluate_cell`` with that sleep before delegating to the
real ``serve_main``.  The wrapper changes *when* a cell computes, never
*what* it computes, so bit-identity against a serial ``run_sweep``
still holds — which is exactly what the chaos tests assert.
"""

from __future__ import annotations

import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..errors import SimulationError
from .client import EvalClient

#: Environment variable (seconds, float) read by :func:`chaos_serve_main`:
#: every cell evaluation in the daemon sleeps this long first.
CELL_DELAY_ENV = "REPRO_CHAOS_CELL_DELAY"

#: Seconds to wait for a daemon subprocess to print its ready banner.
READY_TIMEOUT = 30.0


def chaos_serve_main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.sim.chaos`` — the real daemon, paced.

    Identical to ``python -m repro.sim serve`` except that when
    ``REPRO_CHAOS_CELL_DELAY`` is a positive float, every
    ``evaluate_cell`` sleeps that long before computing.  The patch
    lands before the server starts, so its compute threads see it.
    """
    delay = 0.0
    raw = os.environ.get(CELL_DELAY_ENV, "")
    if raw:
        try:
            delay = float(raw)
        except ValueError:
            print(f"error: {CELL_DELAY_ENV}={raw!r} is not a float",
                  file=sys.stderr)
            return 2
    if delay > 0:
        from . import engine

        real_evaluate_cell = engine.evaluate_cell

        def paced_evaluate_cell(task: Any) -> Any:
            time.sleep(delay)
            return real_evaluate_cell(task)

        engine.evaluate_cell = paced_evaluate_cell

    from .server import serve_main

    return serve_main(argv)


class ChaosDaemon:
    """One real evaluation daemon subprocess, with faults on tap.

    Starts ``python -m repro.sim.chaos`` on ``host:port`` (``port=0``
    binds an ephemeral port, learned from the ready banner and *reused
    on restart* so the fabric's re-admission probe finds the reborn
    process at the same address).  Context-manager friendly; always
    :meth:`close` in a finally block — a SIGSTOPped daemon left behind
    outlives the test run.
    """

    def __init__(self, store: Optional[str] = None, workers: int = 1,
                 cell_delay: float = 0.0, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.store = store
        self.workers = workers
        self.cell_delay = cell_delay
        self.host = host
        self.port = port
        self.process: Optional[subprocess.Popen] = None
        self._stopped = False     # SIGSTOP currently in effect
        self.start()

    # -- lifecycle ----------------------------------------------------------

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        """Spawn the subprocess and wait for its ready banner."""
        if self.process is not None and self.process.poll() is None:
            return
        argv = [sys.executable, "-m", "repro.sim.chaos",
                "--host", self.host, "--port", str(self.port),
                "--workers", str(self.workers)]
        if self.store is not None:
            argv += ["--store", str(self.store)]
        env = dict(os.environ)
        if self.cell_delay > 0:
            env[CELL_DELAY_ENV] = repr(self.cell_delay)
        else:
            env.pop(CELL_DELAY_ENV, None)
        self.process = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env, text=True)
        self._stopped = False
        deadline = time.monotonic() + READY_TIMEOUT
        assert self.process.stdout is not None
        while True:
            if self.process.poll() is not None:
                stderr = self.process.stderr.read() \
                    if self.process.stderr else ""
                self.kill()    # reaped already: closes the pipes
                raise SimulationError(
                    f"chaos daemon exited during startup "
                    f"(rc {self.process.returncode}): {stderr.strip()}")
            if time.monotonic() > deadline:
                self.kill()
                raise SimulationError(
                    f"chaos daemon did not become ready within "
                    f"{READY_TIMEOUT}s")
            line = self.process.stdout.readline()
            if line.startswith("ready: http://"):
                self.port = int(line.strip().rsplit(":", 1)[1])
                return

    def restart(self) -> None:
        """A fresh process on the same port (and store): the rebirth
        half of the SIGKILL → dead → rejoining → alive arc."""
        self.kill()
        self.start()

    def close(self) -> None:
        """Terminate and reap, whatever state the process is in."""
        self.kill()

    def __enter__(self) -> "ChaosDaemon":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- faults -------------------------------------------------------------

    def sigstop(self) -> None:
        """Freeze the daemon: the kernel still accepts TCP connections
        on its behalf (the listen backlog), but nothing answers — the
        exact shape of a wedged host, which is what drives the fabric's
        ``alive → suspect`` probe-timeout path."""
        assert self.process is not None
        os.kill(self.process.pid, signal.SIGSTOP)
        self._stopped = True

    def sigcont(self) -> None:
        """Thaw a frozen daemon (``suspect → alive`` on the next
        probe)."""
        assert self.process is not None
        os.kill(self.process.pid, signal.SIGCONT)
        self._stopped = False

    def kill(self) -> None:
        """SIGKILL — no shutdown handshake, in-flight requests die with
        the process (``→ dead`` plus re-dispatch on the coordinator).
        Reaps it and closes its pipes, which a restart would otherwise
        leak."""
        if self.process is None:
            return
        if self.process.poll() is None:
            if self._stopped:
                # SIGTERM/SIGKILL do not reap a stopped process until
                # it is continued.
                self.sigcont()
            self.process.kill()
            self.process.wait(timeout=10)
        for stream in (self.process.stdout, self.process.stderr):
            if stream is not None:
                stream.close()

    # -- observation --------------------------------------------------------

    def stats(self, timeout: float = 10.0) -> Dict[str, Any]:
        """The daemon's ``/stats`` snapshot (raises if unreachable)."""
        return EvalClient(self.address, timeout=timeout, retries=0).stats()

    def ping(self, timeout: float = 5.0) -> bool:
        return EvalClient(self.address, timeout=timeout, retries=0).ping()


class Blackhole:
    """A TCP proxy that can swallow every connection on demand.

    Point fabric clients at :attr:`address` instead of the daemon.
    While :meth:`engage`\\ d, established connections are severed and
    new ones are accepted and immediately closed — the coordinator sees
    pure transport failures while the daemon behind the proxy stays
    healthy.  :meth:`heal` restores pass-through, after which the
    fabric's prober re-admits the "host".
    """

    def __init__(self, upstream_port: int,
                 upstream_host: str = "127.0.0.1") -> None:
        self.upstream = (upstream_host, upstream_port)
        self._engaged = False
        self._closing = False
        self._lock = threading.Lock()
        self._conns: List[socket.socket] = []
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(32)
        self.port = self._listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="blackhole-accept", daemon=True)
        self._accept_thread.start()

    @property
    def address(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def engage(self) -> None:
        """Start dropping: sever live connections, reject new ones."""
        with self._lock:
            self._engaged = True
            conns, self._conns = self._conns, []
        for conn in conns:
            _quiet_close(conn)

    def heal(self) -> None:
        """Back to pass-through for *new* connections."""
        with self._lock:
            self._engaged = False

    def close(self) -> None:
        self._closing = True
        _quiet_close(self._listener)
        with self._lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            _quiet_close(conn)
        self._accept_thread.join(timeout=5)

    def __enter__(self) -> "Blackhole":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                client, _peer = self._listener.accept()
            except OSError:
                return    # listener closed
            with self._lock:
                engaged = self._engaged
            if engaged:
                # Accept-then-slam: the client sees a clean transport
                # failure (connection reset/closed), not a hang.
                _quiet_close(client)
                continue
            try:
                upstream = socket.create_connection(self.upstream,
                                                    timeout=10)
            except OSError:
                _quiet_close(client)
                continue
            with self._lock:
                if self._engaged or self._closing:
                    _quiet_close(client)
                    _quiet_close(upstream)
                    continue
                self._conns += [client, upstream]
            for src, dst in ((client, upstream), (upstream, client)):
                threading.Thread(target=self._pump, args=(src, dst),
                                 name="blackhole-pump", daemon=True).start()

    @staticmethod
    def _pump(src: socket.socket, dst: socket.socket) -> None:
        try:
            while True:
                data = src.recv(65536)
                if not data:
                    break
                dst.sendall(data)
        except OSError:
            pass
        finally:
            _quiet_close(src)
            _quiet_close(dst)


def _quiet_close(sock: socket.socket) -> None:
    try:
        sock.close()
    except OSError:
        pass


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled fault: fire ``kind`` on daemon ``target`` once at
    least ``after_completed`` cells have finished."""

    after_completed: int
    kind: str       # an action name: "kill", "restart", "join", ...
    target: int = 0


class ChaosSchedule:
    """Deterministic fault injection keyed to run progress.

    Wall-clock scheduling makes chaos tests flaky (a loaded CI box
    shifts every timing); completion counts do not.  Events fire in
    order once ``progress()`` (typically the count of ``on_result``
    callbacks) reaches each threshold, from a watcher thread so the
    coordinator's event loop never blocks on a ~1 s daemon restart.
    :attr:`fired` records what actually ran, for test assertions.
    """

    def __init__(self, events: Sequence[ChaosEvent]) -> None:
        self.events = sorted(events, key=lambda e: e.after_completed)
        self.fired: List[ChaosEvent] = []
        self.errors: List[BaseException] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    @classmethod
    def seeded(cls, seed: int, num_cells: int,
               num_daemons: int) -> "ChaosSchedule":
        """The canonical schedule the equivalence tests pin: one
        SIGKILL of a seeded victim early in the run, its restart (→
        re-admission) shortly after, and one mid-run join — thresholds
        and victim drawn from ``random.Random(seed)`` only, so the same
        seed replays the same chaos."""
        if num_cells < 4 or num_daemons < 1:
            raise SimulationError(
                "seeded chaos needs >= 4 cells and >= 1 daemon")
        rng = random.Random(seed)
        victim = rng.randrange(num_daemons)
        kill_at = rng.randint(1, max(1, num_cells // 4))
        restart_at = kill_at + rng.randint(1, 2)
        join_at = rng.randint(2, max(2, num_cells // 3))
        return cls([
            ChaosEvent(kill_at, "kill", victim),
            ChaosEvent(restart_at, "restart", victim),
            ChaosEvent(join_at, "join"),
        ])

    def run_in_thread(self, progress: Callable[[], int],
                      actions: Dict[str, Callable[[int], None]],
                      poll: float = 0.02) -> None:
        """Start the watcher.  ``actions[kind](target)`` runs in the
        watcher thread; an action raising is recorded in
        :attr:`errors` (and re-checked by the test), never swallowed
        into a hang."""
        def watch() -> None:
            queue = list(self.events)
            while queue and not self._stop.is_set():
                if progress() >= queue[0].after_completed:
                    event = queue.pop(0)
                    try:
                        actions[event.kind](event.target)
                    except BaseException as error:   # noqa: BLE001
                        self.errors.append(error)
                        return
                    self.fired.append(event)
                else:
                    self._stop.wait(poll)

        self._thread = threading.Thread(target=watch, name="chaos-watch",
                                        daemon=True)
        self._thread.start()

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the watcher and surface any action error."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
        if self.errors:
            raise SimulationError(
                f"chaos action failed: {self.errors[0]!r}") \
                from self.errors[0]


if __name__ == "__main__":    # pragma: no cover - exercised by ChaosDaemon
    sys.exit(chaos_serve_main())
