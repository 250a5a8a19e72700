"""Memory controller: per-bank FCFS scheduling with bus and refresh.

The controller models what the paper's modified NVMain provides at the
granularity the evaluation needs:

* per-bank service with line-interleaved bank mapping (Section III.C),
* open-row tracking for DRAM devices (row hit vs miss timing),
* a shared data bus for electrical devices — photonic devices carry each
  bank on its own MDM mode, so their bursts do not contend,
* periodic all-bank refresh windows for DRAM,
* per-operation energy, gated active power (photonic laser/SOA only burn
  while serving), and background power.

Scheduling is FCFS per bank with banks progressing independently — the
bank-level parallelism that dominates these comparisons.  (NVMain's
FR-FCFS reordering mainly improves DRAM row hits; our traces model
locality directly, so FCFS keeps the comparison symmetric and simple.)

One set of semantics, two ways to run it:

* **One compiled call per cell** — ``run_arrays`` (and the object API's
  ``run_fast``) hand each cell to the compiled exact twin
  (:mod:`._fastloop`) in a single ``ctypes`` call that releases the GIL
  for the whole cell: sortedness check, bank/row mapping, open-row
  hits, array service times, bus turnaround, the recurrence of the
  device's dispatch class (``per_bank`` chains, reverting to the global
  queue when a per-bank admission stamp would bind; the ``shared_bus``
  and ``global_queue`` FIFOs) and the latency reduction.  Python only
  marshals arguments, counts the dispatch and assembles ``SimStats``.
  The shared-bus and global-FIFO recurrences are irreducibly
  sequential — the bus serializes every burst through its predecessor
  while bank conflicts couple requests a few indices apart — so no
  exact prefix fold covers them; the twin runs the same IEEE-754
  operations in the same order as the Python path instead, which makes
  it bit-identical by construction.
* **The Python path** — the oracle the equivalence suites compare the
  twin against, and the fallback wherever the twin does not serve a
  cell (no C toolchain, ``REPRO_FASTLOOP=0``, a disabled dispatch
  class, ``allow_fast_path=False``).  Everything without a
  cross-request timing dependency (bank/row mapping, open-row hits,
  array service times) is precomputed with numpy in one vectorized
  pass (``_precompute``); the sequential recurrence runs as a slim
  scalar loop specialized per device class (``_recurrence_*``), except
  that per-bank cells take the numpy prefix-fold kernel (``_kernel``):
  that recurrence genuinely decomposes into per-bank chains, which
  grouped ``np.cumsum`` / ``np.maximum.accumulate`` passes cover.
  ``fast=False`` pins the scalar loops.  ``run_reference``, the
  straightforward per-request object loop, stays as an independent
  semantic check.

**Transaction queues.**  ``queue_depth`` models NVMain's finite
transaction queue: at most that many requests are in flight; when the
queue is full, later trace arrivals stall (throttled open loop), which
is how the real simulator stretches execution time on slow memories
instead of growing an unbounded queue.  Devices whose controller
centralizes transactions (shared-bus DRAM/EPCM, COSMOS's subtractive
read-erase-read orchestration) see one *global* FIFO.  COMET's
cross-layer design gives every bank its own MDM mode and an independent
scheduler (Section III.C), so its queue decomposes per bank
(``MemoryDeviceModel.per_bank_queues``): each bank admits against its
own ``queue_depth / banks`` slice, admission never couples banks, and
latency is still measured from queue admission.  When a per-bank queue
would bind *service* (an admission stamp landing after the chain start —
only possible for pathological depth overrides), the cell deterministically
reverts to the global-queue model, in every tier alike.

**Chain arithmetic.**  For a per-bank chain the recurrence
``start = max(admitted, release_prev)``, ``release = start + occupancy``
is evaluated in *deadline space*: each bank tracks its occupancy prefix
sum ``C`` and the running peak ``M = max(admitted_k - C_{k-1})``, so
``start_k = M_k + C_{k-1}`` and ``release_k = M_k + C_k``.  The scalar
loops and the vectorized kernel perform these exact floating-point
operations in the same order (``np.cumsum`` / ``np.maximum.accumulate``
are sequential left folds), which is what makes the kernel bit-identical
to the scalar paths rather than merely close; the twin transcribes
the same chain arithmetic.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import SimulationError
from . import _fastloop
from .devices import MemoryDeviceModel
from .request import MemRequest
from .stats import SimStats
from .tracegen import TraceArrays

#: Transaction-queue entries each channel contributes (NVMain-style
#: per-channel queues; the controller sees their sum — or, for
#: per-bank-queue devices, the per-bank slice of that sum).
QUEUE_DEPTH_PER_CHANNEL = 8

#: The fast-path kernel dispatch classes, in dispatch-priority order.
KERNEL_CLASSES: Tuple[str, ...] = ("per_bank", "shared_bus", "global_queue")

#: Process-wide fast-path dispatch counters.  Every auto-dispatched
#: schedule ends in exactly one *terminal* outcome: a kernel class hit
#: (``fast_per_bank`` / ``fast_shared_bus`` / ``fast_global_queue``;
#: ``fast`` is their running total, the pre-PR-6 aggregate) or a scalar
#: fallback attributed to its reason — ``fallback_device`` (no enabled
#: kernel class covers the device) or ``fallback_toolchain`` (the cell's
#: kernel is the compiled exact twin but no C toolchain is available,
#: so the scalar recurrence served it).
#: ``fallback_admission`` is an *event* marker, not a terminal outcome:
#: a per-bank admission stamp bound service, so the cell reverted to the
#: global-queue model — whose own terminal counter then fires.  Read via
#: :func:`kernel_counters`; the ``--profile`` CLI, ``/stats.kernel`` and
#: the kernel bench report the hit rate.
#: ``twin_per_bank`` is an *attribution* sub-counter, not a terminal
#: outcome: of the ``fast_per_bank`` hits, how many the compiled exact
#: twin served (the numpy prefix-fold kernel serves the rest when no C
#: toolchain exists).  It is deliberately not ``fast_``-prefixed so the
#: schema-driven per-class summary keeps counting each cell once.
#: Counters are process-wide and thread-safe (every mutation holds
#: ``_COUNTER_LOCK``); under fork fan-out each worker keeps its own and
#: the engine merges the deltas back via :func:`merge_kernel_counters`.
# staticcheck: guarded-by[_COUNTER_LOCK, reads]
_KERNEL_COUNTERS = {
    "fast": 0,
    "fast_per_bank": 0,
    "fast_shared_bus": 0,
    "fast_global_queue": 0,
    "twin_per_bank": 0,
    "fallback_device": 0,
    "fallback_admission": 0,
    "fallback_toolchain": 0,
}

#: Guards every read-modify-write of ``_KERNEL_COUNTERS``: the thread
#: pool dispatches schedules concurrently, and ``+=`` on a dict entry
#: is not atomic under free-threaded execution.
_COUNTER_LOCK = threading.Lock()

# A fork while a pool thread holds the counter lock would leave the
# child's inherited copy locked forever; give the child a fresh one.
os.register_at_fork(
    after_in_child=lambda: globals().update(
        _COUNTER_LOCK=threading.Lock()))

#: Kernel classes the dispatcher must not engage (process-wide): the
#: kernel bench reconstructs the PR 5 baseline by disabling the
#: shared-bus/global-queue classes, and the forced-fallback equivalence
#: tests pin that a disabled class is bit-identical to the scalar tier.
_DISABLED_FAST_CLASSES: frozenset = frozenset()


def kernel_counters() -> Dict[str, int]:
    """Snapshot of the fast-path dispatch counters (this process)."""
    with _COUNTER_LOCK:
        return dict(_KERNEL_COUNTERS)


def reset_kernel_counters() -> None:
    """Zero the fast-path dispatch counters (tests, benchmarks)."""
    with _COUNTER_LOCK:
        for key in _KERNEL_COUNTERS:
            _KERNEL_COUNTERS[key] = 0


def merge_kernel_counters(delta: Dict[str, int]) -> None:
    """Fold a per-worker counter delta into this process's counters.

    The fork pool's workers dispatch schedules in their own processes;
    each task returns ``kernel_counters()`` deltas alongside its result
    and the parent merges them here, so ``--profile`` and the server's
    ``/stats.kernel`` report the whole grid instead of only the cells
    the parent scheduled itself.  Unknown keys are accepted (a newer
    worker may report counters an older parent doesn't know)."""
    with _COUNTER_LOCK:
        for key, value in delta.items():
            if value:
                _KERNEL_COUNTERS[key] = _KERNEL_COUNTERS.get(key, 0) + value


def _count(key: str) -> None:
    with _COUNTER_LOCK:
        _KERNEL_COUNTERS[key] += 1


def set_disabled_fast_classes(classes) -> frozenset:
    """Disable fast-path kernel classes process-wide; returns the
    previous set so callers can restore it (``try/finally``).

    Disabled classes take the ``fallback_device`` dispatch path —
    results are bit-identical, only the execution tier changes."""
    global _DISABLED_FAST_CLASSES
    requested = frozenset(classes)
    unknown = requested - set(KERNEL_CLASSES)
    if unknown:
        raise SimulationError(
            f"unknown kernel classes {sorted(unknown)}; "
            f"known: {list(KERNEL_CLASSES)}")
    previous = _DISABLED_FAST_CLASSES
    _DISABLED_FAST_CLASSES = requested
    return previous


def disabled_fast_classes() -> frozenset:
    """The kernel classes currently forced onto the scalar tier."""
    return _DISABLED_FAST_CLASSES


def _count_fast(kernel_class: str, compiled: bool = False) -> None:
    with _COUNTER_LOCK:
        _KERNEL_COUNTERS["fast"] += 1
        _KERNEL_COUNTERS["fast_" + kernel_class] += 1
        if compiled and kernel_class == "per_bank":
            _KERNEL_COUNTERS["twin_per_bank"] += 1


@dataclass
class _BankState:
    free_at_ns: float = 0.0
    open_row: Optional[int] = None
    busy_ns: float = 0.0


@dataclass(frozen=True)
class _Schedule:
    """Per-request service times plus schedule-wide aggregates."""

    admitted_ns: np.ndarray
    start_ns: np.ndarray
    finish_ns: np.ndarray
    completion_ns: np.ndarray
    busy_ns: float
    row_hits: int
    row_misses: int


class MemoryController:
    """Executes a request stream against one device model."""

    DEFAULT_QUEUE_DEPTH = 32

    def __init__(self, device: MemoryDeviceModel,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH) -> None:
        if queue_depth < 1:
            raise SimulationError("queue depth must be at least 1")
        self.device = device
        self.queue_depth = queue_depth

    @property
    def bank_queue_depth(self) -> int:
        """Per-bank transaction-queue slice for per-bank-queue devices
        (the global depth split evenly; at least one entry per bank)."""
        return max(1, self.queue_depth // self.device.banks)

    # ------------------------------------------------------------------
    # public entry points

    def run(
        self,
        requests: List[MemRequest],
        workload_name: str = "trace",
    ) -> SimStats:
        """Simulate all requests (must be arrival-ordered); returns stats.

        Fills each request's service fields (``start_ns``, ``finish_ns``,
        ``completion_ns``) and replaces ``arrival_ns`` with the queue
        admission time, exactly like the reference path.
        """
        return self._run_requests(requests, workload_name, fast=False)

    def run_fast(
        self,
        requests: List[MemRequest],
        workload_name: str = "trace",
    ) -> SimStats:
        """``run`` through the fast-path dispatch (automatic fallback).

        Bit-identical to :meth:`run`; the compiled twin serves the cell
        in one call when its device class is enabled and a C toolchain
        exists, otherwise the Python tiers do.
        """
        return self._run_requests(requests, workload_name, fast=True)

    def _run_requests(self, requests: List[MemRequest], workload_name: str,
                      fast: bool) -> SimStats:
        """Shared object-API body: marshal, schedule, write back."""
        if not requests:
            raise SimulationError("empty request stream")
        addresses = np.array([r.address for r in requests], dtype=np.int64)
        is_read = np.array([r.is_read for r in requests], dtype=bool)
        arrivals = np.array([r.arrival_ns for r in requests], dtype=np.float64)
        cell = (self._run_fast(addresses, is_read, arrivals, service=True)
                if fast else self._run_python(addresses, is_read, arrivals))
        starts = cell.start.tolist()
        finishes = cell.finish.tolist()
        completions = (cell.finish + self.device.interface_delay_ns).tolist()
        admitted = cell.admitted.tolist()
        for i, request in enumerate(requests):
            request.start_ns = starts[i]
            request.finish_ns = finishes[i]
            request.completion_ns = completions[i]
            # Latency is measured from queue admission (NVMain convention):
            # time stalled outside a full transaction queue is application
            # back-pressure, not memory latency.
            request.arrival_ns = admitted[i]
        total_bytes = sum(r.size_bytes for r in requests)
        return self._cell_stats(workload_name, total_bytes, cell)

    def run_arrays(self, trace: TraceArrays,
                   workload_name: Optional[str] = None,
                   fast: bool = True) -> SimStats:
        """Simulate a column-store trace without materializing requests.

        The hot path of the evaluation engine: identical stats to
        ``run(trace.to_requests())``, but no per-request objects are
        created or mutated (the input arrays are read-only).  ``fast``
        routes the cell through the fast-path dispatch (with automatic
        fallback); ``fast=False`` pins the Python scalar recurrence,
        which the kernel benchmark uses as its baseline.
        """
        addresses = np.asarray(trace.addresses, dtype=np.int64)
        is_read = np.asarray(trace.is_read, dtype=bool)
        arrivals = np.asarray(trace.arrivals_ns, dtype=np.float64)
        cell = (self._run_fast(addresses, is_read, arrivals)
                if fast else self._run_python(addresses, is_read, arrivals))
        return self._cell_stats(
            workload_name if workload_name is not None else trace.name,
            trace.total_bytes, cell)

    # ------------------------------------------------------------------
    # schedule dispatch

    def _check_sorted(self, arrivals: np.ndarray) -> None:
        if len(arrivals) == 0:
            raise SimulationError("empty request stream")
        if np.any(np.diff(arrivals) < 0.0):
            raise SimulationError("requests must be sorted by arrival")

    def _run_fast(self, addresses: np.ndarray, is_read: np.ndarray,
                  arrivals: np.ndarray,
                  service: bool = False) -> _fastloop.CellResult:
        """Auto dispatch: one compiled call when the twin can serve the
        cell, the Python tiers otherwise; ``service`` also returns
        admission, start and finish times (the object API)."""
        kernel_class = self.device.fast_path_class
        if kernel_class is None or kernel_class in _DISABLED_FAST_CLASSES:
            _count("fallback_device")
            return self._run_python(addresses, is_read, arrivals)
        if _fastloop.available():
            if len(arrivals) == 0:
                raise SimulationError("empty request stream")
            cell = _fastloop.run_cell(addresses, is_read, arrivals,
                                      self._twin_spec(kernel_class), service)
            if cell is not None:
                if cell.reverted:
                    # A per-bank admission stamp would have bound
                    # service: the twin reran the cell on the global
                    # queue model.
                    _count("fallback_admission")
                    _count_fast("global_queue")
                else:
                    _count_fast(kernel_class, compiled=True)
                return cell
            # The per-bank queue bound while the global-queue class is
            # disabled: the Python path makes (and counts) the revert.
        return self._reduce(
            self._schedule_untwinned(addresses, is_read, arrivals),
            is_read)

    def _twin_spec(self, kernel_class: str) -> _fastloop.CellSpec:
        """The device constants the twin reads, folded exactly as
        ``_precompute`` and ``_bus_turn_penalties`` apply them."""
        device = self.device
        row_buffer = device.row_buffer
        if row_buffer is None:
            map_bytes, row_bytes, open_page = device.line_bytes, 1, False
            hit_read = miss_read = float(device.read_occupancy_ns)
            hit_write = miss_write = float(device.write_occupancy_ns)
        else:
            map_bytes = row_buffer.row_size_bytes
            row_bytes = row_buffer.row_size_bytes * device.banks
            open_page = row_buffer.is_open_page
            hit_read = row_buffer.service_ns(True, True)
            hit_write = row_buffer.service_ns(True, False)
            miss_read = row_buffer.service_ns(False, True)
            miss_write = row_buffer.service_ns(False, False)
            if device.write_occupancy_ns is not None:
                hit_write = miss_write = float(device.write_occupancy_ns)
        refresh = device.refresh
        per_bank = kernel_class == "per_bank"
        return _fastloop.CellSpec(
            banks=device.banks, map_bytes=map_bytes, row_bytes=row_bytes,
            queue_depth=self.queue_depth,
            bank_queue_depth=self.bank_queue_depth if per_bank else 1,
            row_buffer=row_buffer is not None, open_page=open_page,
            per_bank=per_bank,
            may_revert="global_queue" not in _DISABLED_FAST_CLASSES,
            shared_bus=device.shared_bus,
            overlap=device.burst_overlaps_array,
            has_refresh=refresh is not None,
            hit_read=hit_read, hit_write=hit_write,
            miss_read=miss_read, miss_write=miss_write,
            burst=device.data_burst_ns,
            interface_delay=device.interface_delay_ns,
            turnaround=device.bus_turnaround_ns,
            interval=refresh.interval_ns if refresh is not None else 1.0,
            duration=refresh.duration_ns if refresh is not None else 0.0,
        )

    def _schedule_untwinned(self, addresses: np.ndarray,
                            is_read: np.ndarray,
                            arrivals: np.ndarray) -> _Schedule:
        """Auto dispatch without the twin: the numpy prefix-fold kernel
        for per-bank cells, the scalar recurrences for the rest."""
        device = self.device
        kernel_class = device.fast_path_class
        self._check_sorted(arrivals)
        bank_idx, array_ns, row_hits, row_misses = \
            self._precompute(addresses, is_read)
        if kernel_class == "per_bank":
            schedule = self._kernel(bank_idx, array_ns, arrivals,
                                    row_hits, row_misses)
            if schedule is not None:
                _count_fast("per_bank")
                return schedule
            # A per-bank admission stamp would land after its chain
            # start: the cell reverts to the global-queue model.
            _count("fallback_admission")
            return self._run_global_queue(bank_idx, array_ns, arrivals,
                                          row_hits, row_misses)
        if kernel_class == "shared_bus":
            _count("fallback_toolchain")
            if device.refresh is not None:
                result = self._recurrence_refresh_bus(
                    bank_idx, array_ns, arrivals, is_read)
            else:
                result = self._recurrence_bus(
                    bank_idx, array_ns, arrivals, is_read)
            return self._finalize(*result, row_hits=row_hits,
                                  row_misses=row_misses)
        return self._run_global_queue(bank_idx, array_ns, arrivals,
                                      row_hits, row_misses)

    def _run_global_queue(self, bank_idx: np.ndarray, array_ns: np.ndarray,
                          arrivals: np.ndarray, row_hits: int,
                          row_misses: int) -> _Schedule:
        """Global-FIFO contention-free schedule on the Python path.

        Shared by the ``global_queue`` dispatch class (COSMOS-style
        devices) and the per-bank admission fallback, which reverts the
        cell to exactly this model."""
        if "global_queue" in _DISABLED_FAST_CLASSES:
            _count("fallback_device")
        else:
            _count("fallback_toolchain")
        return self._finalize(*self._recurrence_unshared(
            bank_idx, array_ns, arrivals),
            row_hits=row_hits, row_misses=row_misses)

    def _run_python(self, addresses: np.ndarray, is_read: np.ndarray,
                    arrivals: np.ndarray) -> _fastloop.CellResult:
        """The scalar recurrence, reduced like a twin cell."""
        return self._reduce(self._schedule(addresses, is_read, arrivals),
                            is_read)

    def _schedule(self, addresses: np.ndarray, is_read: np.ndarray,
                  arrivals: np.ndarray) -> _Schedule:
        """Scalar recurrence over one arrival-ordered trace, specialized
        per device class; bit-identical to the kernel where it engages."""
        self._check_sorted(arrivals)
        device = self.device
        bank_idx, array_ns, row_hits, row_misses = \
            self._precompute(addresses, is_read)
        if device.contention_free and device.per_bank_queues:
            result = self._recurrence_per_bank(bank_idx, array_ns, arrivals)
            if result is None:    # admission would bind: global queue
                result = self._recurrence_unshared(
                    bank_idx, array_ns, arrivals)
        elif device.refresh is not None and device.shared_bus:
            result = self._recurrence_refresh_bus(
                bank_idx, array_ns, arrivals, is_read)
        elif device.refresh is None and device.shared_bus:
            result = self._recurrence_bus(
                bank_idx, array_ns, arrivals, is_read)
        elif device.refresh is None:
            result = self._recurrence_unshared(bank_idx, array_ns, arrivals)
        else:    # refresh without a shared bus: no Fig. 9 device; keep
            result = self._recurrence_generic(    # the general loop
                bank_idx, array_ns, arrivals, is_read)
        return self._finalize(*result, row_hits=row_hits,
                              row_misses=row_misses)

    def _finalize(self, admitted, start, finish, busy: float,
                  row_hits: int, row_misses: int) -> _Schedule:
        finish_arr = np.asarray(finish)
        return _Schedule(
            admitted_ns=np.asarray(admitted),
            start_ns=np.asarray(start),
            finish_ns=finish_arr,
            completion_ns=finish_arr + self.device.interface_delay_ns,
            busy_ns=busy,
            row_hits=row_hits,
            row_misses=row_misses,
        )

    @staticmethod
    def _reduce(schedule: _Schedule,
                is_read: np.ndarray) -> _fastloop.CellResult:
        """The latency reduction the twin does in C, in numpy."""
        return _fastloop.CellResult(
            latencies=schedule.completion_ns - schedule.admitted_ns,
            admitted=schedule.admitted_ns,
            start=schedule.start_ns,
            finish=schedule.finish_ns,
            first_admitted=float(schedule.admitted_ns[0]),
            busy=schedule.busy_ns,
            last_completion=float(schedule.completion_ns.max()),
            reads=int(np.count_nonzero(is_read)),
            row_hits=schedule.row_hits,
            row_misses=schedule.row_misses,
        )

    def _bank_sort_key(self, bank_idx: np.ndarray) -> np.ndarray:
        """Narrowest integer dtype holding every bank id: numpy's stable
        sort is a radix sort on narrow integers, an order of magnitude
        faster than int64 mergesort at grid sizes."""
        if self.device.banks < 2 ** 8:
            return bank_idx.astype(np.uint8)
        if self.device.banks < 2 ** 16:
            return bank_idx.astype(np.uint16)
        return bank_idx

    # ------------------------------------------------------------------
    # the fast-path scheduler kernel

    def _kernel(self, bank_idx: np.ndarray, array_ns: np.ndarray,
                arrivals: np.ndarray, row_hits: int,
                row_misses: int) -> Optional[_Schedule]:
        """Contention-free schedule as per-bank grouped prefix passes.

        Requests are stably grouped by bank (radix sort on a narrow
        key); within each group the deadline-space recurrence is two
        sequential-fold primitives (``np.cumsum`` over occupancies,
        ``np.maximum.accumulate`` over deadlines), so every float op
        matches the scalar twin exactly.  Admission stamps are a shifted
        ``np.maximum`` within each group.  Returns ``None`` when any
        stamp would land after its chain start (the admissibility
        check), in which case the caller falls back.
        """
        device = self.device
        n = len(arrivals)
        burst = device.data_burst_ns
        overlap = device.burst_overlaps_array
        occ = array_ns if overlap else array_ns + burst
        qd_b = self.bank_queue_depth

        sort_key = self._bank_sort_key(bank_idx)
        order = np.argsort(sort_key, kind="stable")
        sorted_banks = sort_key[order]
        sorted_arrivals = arrivals[order]
        sorted_occ = occ[order]

        bounds = np.flatnonzero(sorted_banks[1:] != sorted_banks[:-1]) + 1
        group_starts = np.concatenate(([0], bounds)).tolist()
        group_ends = np.concatenate((bounds, [n])).tolist()
        groups = list(zip(group_starts, group_ends))

        cum = np.empty(n)          # C_k: per-bank occupancy prefix sum
        cum_prev = np.empty(n)     # C_{k-1}
        peak = np.empty(n)         # M_k: running max of deadlines
        for s, e in groups:
            np.cumsum(sorted_occ[s:e], out=cum[s:e])
            cum_prev[s] = 0.0
            if e - s > 1:
                cum_prev[s + 1:e] = cum[s:e - 1]
        deadline = sorted_arrivals - cum_prev
        for s, e in groups:
            np.maximum.accumulate(deadline[s:e], out=peak[s:e])
        start_sorted = peak + cum_prev
        release_sorted = peak + cum
        finish_sorted = release_sorted + burst if overlap else release_sorted

        # Per-bank admission stamps (each bank admits against its own
        # queue slice: request k of a bank is stamped no earlier than
        # the finish of request k - qd_b of the *same* bank) and busy
        # time as the same left fold the scalar twin accumulates.
        admitted_sorted = sorted_arrivals.copy()
        delta = release_sorted - start_sorted
        busy_banks = [0.0] * device.banks
        for s, e in groups:
            if e - s > qd_b:
                stamped = admitted_sorted[s + qd_b:e]
                np.maximum(sorted_arrivals[s + qd_b:e],
                           finish_sorted[s:e - qd_b], out=stamped)
                # Admissibility: a stamp after its chain start means the
                # per-bank queue would bind service — not this kernel's
                # semantics, so the cell reverts to the global-queue loop.
                if np.any(stamped > start_sorted[s + qd_b:e]):
                    return None
            busy_banks[int(sorted_banks[s])] = float(np.cumsum(delta[s:e])[-1])

        admitted = np.empty(n)
        start = np.empty(n)
        finish = np.empty(n)
        admitted[order] = admitted_sorted
        start[order] = start_sorted
        finish[order] = finish_sorted
        return _Schedule(
            admitted_ns=admitted,
            start_ns=start,
            finish_ns=finish,
            completion_ns=finish + device.interface_delay_ns,
            busy_ns=sum(busy_banks),
            row_hits=row_hits,
            row_misses=row_misses,
        )

    # ------------------------------------------------------------------
    # scalar recurrences (one per device class)

    def _recurrence_per_bank(self, bank_idx: np.ndarray,
                             array_ns: np.ndarray, arrivals: np.ndarray):
        """Scalar twin of the kernel: per-bank deadline-space chains.

        Returns ``None`` when a per-bank admission stamp would land
        after its chain start (same admissibility rule as the kernel);
        the caller then reruns the global-queue loop.
        """
        device = self.device
        burst = device.data_burst_ns
        overlap = device.burst_overlaps_array
        occ_l = array_ns.tolist() if overlap \
            else (array_ns + burst).tolist()
        arrivals_l = arrivals.tolist()
        bank_l = bank_idx.tolist()
        qd_b = self.bank_queue_depth
        cum = [0.0] * device.banks
        peak = [float("-inf")] * device.banks
        busy = [0.0] * device.banks
        finish_history: List[List[float]] = [[] for _ in range(device.banks)]
        admitted_l: List[float] = []
        start_l: List[float] = []
        finish_l: List[float] = []
        admit = admitted_l.append
        starts = start_l.append
        finishes = finish_l.append
        for arrival, bank, occupancy in zip(arrivals_l, bank_l, occ_l):
            cum_prev = cum[bank]
            deadline = arrival - cum_prev
            bank_peak = peak[bank]
            if deadline > bank_peak:
                bank_peak = deadline
                peak[bank] = deadline
            start = bank_peak + cum_prev
            cum_next = cum_prev + occupancy
            release = bank_peak + cum_next
            finish = release + burst if overlap else release
            history = finish_history[bank]
            served = len(history)
            admitted = arrival
            if served >= qd_b:
                stamp = history[served - qd_b]
                if stamp > admitted:
                    admitted = stamp
                if admitted > start:
                    return None    # queue would bind: global-queue model
            history.append(finish)
            cum[bank] = cum_next
            busy[bank] += release - start
            admit(admitted)
            starts(start)
            finishes(finish)
        return admitted_l, start_l, finish_l, sum(busy)

    def _bus_turn_penalties(self, is_read: np.ndarray) -> List[float]:
        """Per-request bus dead time: ``turnaround`` where the transfer
        direction flips from the previous request, else ``0.0``.

        Precomputing the penalty removes the direction-tracking branch
        from the bus loops; adding an exact ``0.0`` to the bus-free time
        is a float no-op, so results are unchanged bit for bit.
        """
        turn = np.zeros(len(is_read))
        if len(is_read) > 1:
            np.multiply(is_read[1:] != is_read[:-1],
                        self.device.bus_turnaround_ns, out=turn[1:])
        return turn.tolist()

    def _recurrence_bus(self, bank_idx: np.ndarray, array_ns: np.ndarray,
                        arrivals: np.ndarray, is_read: np.ndarray):
        """Global-queue recurrence with a shared bus, no refresh
        (electrical PCM)."""
        device = self.device
        arrivals_l = arrivals.tolist()
        bank_l = bank_idx.tolist()
        array_l = array_ns.tolist()
        turn_l = self._bus_turn_penalties(is_read)
        queue_depth = self.queue_depth
        bank_free = [0.0] * device.banks
        bank_busy = [0.0] * device.banks
        burst_ns = device.data_burst_ns
        overlap = device.burst_overlaps_array
        bus_free = 0.0
        admitted_l: List[float] = []
        start_l: List[float] = []
        finish_l: List[float] = []
        admit = admitted_l.append
        starts = start_l.append
        finishes = finish_l.append
        index = 0
        for admitted, bank, array_time, turn in zip(
                arrivals_l, bank_l, array_l, turn_l):
            if index >= queue_depth:
                # Transaction queue full until an older request finishes.
                blocked_until = finish_l[index - queue_depth]
                if blocked_until > admitted:
                    admitted = blocked_until
            start = bank_free[bank]
            if admitted > start:
                start = admitted
            burst_start = start + array_time
            bus_ready = bus_free + turn
            if bus_ready > burst_start:
                burst_start = bus_ready
            finish = burst_start + burst_ns
            bus_free = finish
            bank_release = finish
            if overlap:
                array_done = start + array_time
                bank_release = array_done if array_done > burst_start \
                    else burst_start
            bank_busy[bank] += bank_release - start
            bank_free[bank] = bank_release
            admit(admitted)
            starts(start)
            finishes(finish)
            index += 1
        return admitted_l, start_l, finish_l, sum(bank_busy)

    def _recurrence_unshared(self, bank_idx: np.ndarray,
                             array_ns: np.ndarray, arrivals: np.ndarray):
        """Global-queue recurrence with neither bus nor refresh (COSMOS's
        unshared MDM links, per-bank-admission fallback cells).

        With no bus the burst starts the moment the array access
        completes, so the overlap release is the burst start itself.
        """
        device = self.device
        arrivals_l = arrivals.tolist()
        bank_l = bank_idx.tolist()
        array_l = array_ns.tolist()
        queue_depth = self.queue_depth
        bank_free = [0.0] * device.banks
        bank_busy = [0.0] * device.banks
        burst_ns = device.data_burst_ns
        overlap = device.burst_overlaps_array
        admitted_l: List[float] = []
        start_l: List[float] = []
        finish_l: List[float] = []
        admit = admitted_l.append
        starts = start_l.append
        finishes = finish_l.append
        index = 0
        for admitted, bank, array_time in zip(arrivals_l, bank_l, array_l):
            if index >= queue_depth:
                blocked_until = finish_l[index - queue_depth]
                if blocked_until > admitted:
                    admitted = blocked_until
            start = bank_free[bank]
            if admitted > start:
                start = admitted
            burst_start = start + array_time
            finish = burst_start + burst_ns
            bank_release = burst_start if overlap else finish
            bank_busy[bank] += bank_release - start
            bank_free[bank] = bank_release
            admit(admitted)
            starts(start)
            finishes(finish)
            index += 1
        return admitted_l, start_l, finish_l, sum(bank_busy)

    def _recurrence_refresh_bus(self, bank_idx: np.ndarray,
                                array_ns: np.ndarray, arrivals: np.ndarray,
                                is_read: np.ndarray):
        """Global-queue recurrence with refresh windows and a shared bus
        (every DRAM configuration)."""
        device = self.device
        arrivals_l = arrivals.tolist()
        bank_l = bank_idx.tolist()
        array_l = array_ns.tolist()
        turn_l = self._bus_turn_penalties(is_read)
        queue_depth = self.queue_depth
        bank_free = [0.0] * device.banks
        bank_busy = [0.0] * device.banks
        burst_ns = device.data_burst_ns
        overlap = device.burst_overlaps_array
        refresh = device.refresh
        interval = refresh.interval_ns
        duration = refresh.duration_ns
        bus_free = 0.0
        admitted_l: List[float] = []
        start_l: List[float] = []
        finish_l: List[float] = []
        admit = admitted_l.append
        starts = start_l.append
        finishes = finish_l.append
        index = 0
        for admitted, bank, array_time, turn in zip(
                arrivals_l, bank_l, array_l, turn_l):
            if index >= queue_depth:
                blocked_until = finish_l[index - queue_depth]
                if blocked_until > admitted:
                    admitted = blocked_until
            start = bank_free[bank]
            if admitted > start:
                start = admitted
            position = start % interval
            if position < duration:
                start = start - position + duration
            burst_start = start + array_time
            bus_ready = bus_free + turn
            if bus_ready > burst_start:
                burst_start = bus_ready
            position = burst_start % interval
            if position < duration:
                burst_start = burst_start - position + duration
            finish = burst_start + burst_ns
            bus_free = finish
            bank_release = finish
            if overlap:
                array_done = start + array_time
                bank_release = array_done if array_done > burst_start \
                    else burst_start
            bank_busy[bank] += bank_release - start
            bank_free[bank] = bank_release
            admit(admitted)
            starts(start)
            finishes(finish)
            index += 1
        return admitted_l, start_l, finish_l, sum(bank_busy)

    def _recurrence_generic(self, bank_idx: np.ndarray,
                            array_ns: np.ndarray, arrivals: np.ndarray,
                            is_read: np.ndarray):
        """The general recurrence handling every flag combination —
        the safety net for device classes no specialized loop covers."""
        device = self.device
        n = len(arrivals)
        arrivals_l = arrivals.tolist()
        bank_l = bank_idx.tolist()
        array_l = array_ns.tolist()
        read_l = is_read.tolist()
        queue_depth = self.queue_depth
        bank_free = [0.0] * device.banks
        bank_busy = [0.0] * device.banks
        shared_bus = device.shared_bus
        turnaround = device.bus_turnaround_ns
        burst_ns = device.data_burst_ns
        overlap = device.burst_overlaps_array
        refresh = device.refresh
        has_refresh = refresh is not None
        refresh_interval = refresh.interval_ns if has_refresh else 0.0
        refresh_duration = refresh.duration_ns if has_refresh else 0.0
        bus_free = 0.0
        bus_last_was_read: Optional[bool] = None
        admitted_l = [0.0] * n
        start_l = [0.0] * n
        finish_l = [0.0] * n

        for i in range(n):
            admitted = arrivals_l[i]
            if i >= queue_depth:
                blocked_until = finish_l[i - queue_depth]
                if blocked_until > admitted:
                    admitted = blocked_until
            bank = bank_l[i]
            start = bank_free[bank]
            if admitted > start:
                start = admitted
            if has_refresh:
                position = start % refresh_interval
                if position < refresh_duration:
                    start = start - position + refresh_duration
            array_time = array_l[i]
            burst_start = start + array_time
            if shared_bus:
                bus_ready = bus_free
                if bus_last_was_read is not None \
                        and bus_last_was_read != read_l[i]:
                    bus_ready += turnaround
                if bus_ready > burst_start:
                    burst_start = bus_ready
                if has_refresh:
                    position = burst_start % refresh_interval
                    if position < refresh_duration:
                        burst_start = burst_start - position + refresh_duration
            finish = burst_start + burst_ns
            if shared_bus:
                bus_free = finish
                bus_last_was_read = read_l[i]
            bank_release = finish
            if overlap:
                array_done = start + array_time
                bank_release = array_done if array_done > burst_start \
                    else burst_start
            bank_busy[bank] += bank_release - start
            bank_free[bank] = bank_release
            admitted_l[i] = admitted
            start_l[i] = start
            finish_l[i] = finish
        return admitted_l, start_l, finish_l, sum(bank_busy)

    # ------------------------------------------------------------------

    def _precompute(
        self, addresses: np.ndarray, is_read: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, int, int]:
        """Vectorized bank mapping, open-row hits and array service times."""
        device = self.device
        n = len(addresses)
        row_buffer = device.row_buffer
        if row_buffer is None:
            bank_idx = (addresses // device.line_bytes) % device.banks
            array_ns = np.where(is_read,
                                float(device.read_occupancy_ns),
                                float(device.write_occupancy_ns))
            return bank_idx, array_ns, 0, 0

        bank_idx = (addresses // row_buffer.row_size_bytes) % device.banks
        rows = addresses // (row_buffer.row_size_bytes * device.banks)
        if row_buffer.is_open_page:
            # A request hits iff the previous access to its bank opened the
            # same row — a pure data dependency, so it vectorizes: group by
            # bank (stable sort on a narrow key: radix beats mergesort on
            # int64 by an order of magnitude) and compare neighbours.
            order = np.argsort(self._bank_sort_key(bank_idx), kind="stable")
            bank_sorted = bank_idx[order]
            row_sorted = rows[order]
            hit_sorted = np.zeros(n, dtype=bool)
            hit_sorted[1:] = (bank_sorted[1:] == bank_sorted[:-1]) \
                & (row_sorted[1:] == row_sorted[:-1])
            row_hit = np.empty(n, dtype=bool)
            row_hit[order] = hit_sorted
        else:
            row_hit = np.zeros(n, dtype=bool)   # auto-precharged
        array_ns = np.where(
            row_hit,
            np.where(is_read,
                     row_buffer.service_ns(True, True),
                     row_buffer.service_ns(True, False)),
            np.where(is_read,
                     row_buffer.service_ns(False, True),
                     row_buffer.service_ns(False, False)),
        )
        if device.write_occupancy_ns is not None:
            # Fixed write occupancy overrides the row-buffer path (COSMOS:
            # reads hit/miss the subarray buffer, writes always pay the
            # full erase-plus-program pulse train).
            array_ns = np.where(is_read, array_ns,
                                float(device.write_occupancy_ns))
        row_hits = int(np.count_nonzero(row_hit))
        return bank_idx, array_ns, row_hits, n - row_hits

    def _stats(self, workload_name: str, is_read: np.ndarray,
               total_bytes: int, schedule: _Schedule) -> SimStats:
        """Assemble SimStats from a computed schedule."""
        return self._cell_stats(workload_name, total_bytes,
                                self._reduce(schedule, is_read))

    def _cell_stats(self, workload_name: str, total_bytes: int,
                    cell: _fastloop.CellResult) -> SimStats:
        """Assemble SimStats from a reduced cell (twin or Python)."""
        device = self.device
        n = len(cell.latencies)
        sim_time = max(cell.last_completion - cell.first_admitted, 1e-9)
        busy = cell.busy
        # Active power (photonic laser/SOA) is gated per accessed bank, so
        # the device-wide active power scales with the busy-bank fraction —
        # unless the device opts out of gating (always-on laser rail).
        if device.energy.gate_active_power:
            active = min(sim_time, busy / device.banks)
        else:
            active = sim_time

        refresh_count = 0
        refresh_energy = 0.0
        if device.refresh is not None:
            refresh_count = int(sim_time // device.refresh.interval_ns)
            refresh_energy = refresh_count * device.refresh.energy_j

        reads = cell.reads
        writes = n - reads
        op_energy = reads * device.energy.read_energy_j \
            + writes * device.energy.write_energy_j
        return SimStats(
            device_name=device.name,
            workload_name=workload_name,
            num_requests=n,
            num_reads=reads,
            num_writes=writes,
            total_bytes=total_bytes,
            sim_time_ns=sim_time,
            busy_time_ns=busy,
            active_time_ns=active,
            latencies_ns=cell.latencies,
            op_energy_j=op_energy,
            refresh_energy_j=refresh_energy,
            refresh_count=refresh_count,
            background_power_w=device.energy.background_power_w,
            active_power_w=device.energy.active_power_w,
            row_hits=cell.row_hits,
            row_misses=cell.row_misses,
        )

    # ------------------------------------------------------------------
    # reference scalar path (semantics oracle)

    def run_reference(
        self,
        requests: List[MemRequest],
        workload_name: str = "trace",
    ) -> SimStats:
        """The straightforward per-request object loop (the oracle).

        Equivalence tests pin both vectorized paths against this, and
        the parallel-evaluation benchmark uses it as the legacy
        baseline.  Per-bank-queue devices run the deadline-space chain
        recurrence in object form (falling back to the global-queue loop
        when an admission stamp would bind); everything else runs the
        classic global-queue loop.
        """
        if not requests:
            raise SimulationError("empty request stream")
        device = self.device
        if device.contention_free and device.per_bank_queues:
            result = self._reference_per_bank(requests)
            if result is not None:
                return self._reference_stats(requests, workload_name,
                                             *result)
        return self._reference_global(requests, workload_name)

    def _reference_per_bank(self, requests: List[MemRequest]):
        """Object-loop twin of the per-bank chain semantics; ``None``
        when admission would bind (revert to the global queue)."""
        device = self.device
        burst = device.data_burst_ns
        overlap = device.burst_overlaps_array
        qd_b = self.bank_queue_depth
        cum = [0.0] * device.banks
        peak = [float("-inf")] * device.banks
        busy = [0.0] * device.banks
        open_rows: List[Optional[int]] = [None] * device.banks
        history: List[List[float]] = [[] for _ in range(device.banks)]
        op_energy = 0.0
        row_hits = 0
        row_misses = 0
        last_arrival = -1.0
        scheduled = []
        for request in requests:
            if request.arrival_ns < last_arrival:
                raise SimulationError("requests must be sorted by arrival")
            last_arrival = request.arrival_ns
            bank = device.bank_of(request)
            row_hit = False
            if device.row_buffer is not None:
                row = device.row_of(request)
                if device.row_buffer.is_open_page:
                    row_hit = open_rows[bank] == row
                    open_rows[bank] = row
                if row_hit:
                    row_hits += 1
                else:
                    row_misses += 1
            occupancy = device.array_time_ns(request, row_hit)
            if not overlap:
                occupancy = occupancy + burst
            cum_prev = cum[bank]
            deadline = request.arrival_ns - cum_prev
            if deadline > peak[bank]:
                peak[bank] = deadline
            start = peak[bank] + cum_prev
            cum_next = cum_prev + occupancy
            release = peak[bank] + cum_next
            finish = release + burst if overlap else release
            served = history[bank]
            admitted = request.arrival_ns
            if len(served) >= qd_b:
                stamp = served[len(served) - qd_b]
                if stamp > admitted:
                    admitted = stamp
                if admitted > start:
                    return None
            served.append(finish)
            cum[bank] = cum_next
            busy[bank] += release - start
            op_energy += device.op_energy_j(request)
            scheduled.append((admitted, start, finish))
        return scheduled, busy, op_energy, row_hits, row_misses

    def _reference_stats(self, requests: List[MemRequest],
                         workload_name: str, scheduled, busy, op_energy,
                         row_hits: int, row_misses: int) -> SimStats:
        device = self.device
        for request, (admitted, start, finish) in zip(requests, scheduled):
            request.start_ns = start
            request.finish_ns = finish
            request.completion_ns = finish + device.interface_delay_ns
            # Latency is measured from queue admission (NVMain convention).
            request.arrival_ns = admitted
        first_arrival = requests[0].arrival_ns
        last_completion = max(r.completion_ns for r in requests)
        sim_time = max(last_completion - first_arrival, 1e-9)
        busy_total = sum(busy)
        if device.energy.gate_active_power:
            active = min(sim_time, busy_total / device.banks)
        else:
            active = sim_time
        refresh_count = 0
        refresh_energy = 0.0
        if device.refresh is not None:
            refresh_count = int(sim_time // device.refresh.interval_ns)
            refresh_energy = refresh_count * device.refresh.energy_j
        reads = sum(1 for r in requests if r.is_read)
        return SimStats(
            device_name=device.name,
            workload_name=workload_name,
            num_requests=len(requests),
            num_reads=reads,
            num_writes=len(requests) - reads,
            total_bytes=sum(r.size_bytes for r in requests),
            sim_time_ns=sim_time,
            busy_time_ns=busy_total,
            active_time_ns=active,
            latencies_ns=[r.latency_ns for r in requests],
            op_energy_j=op_energy,
            refresh_energy_j=refresh_energy,
            refresh_count=refresh_count,
            background_power_w=device.energy.background_power_w,
            active_power_w=device.energy.active_power_w,
            row_hits=row_hits,
            row_misses=row_misses,
        )

    def _reference_global(self, requests: List[MemRequest],
                          workload_name: str) -> SimStats:
        """The original global-queue per-request loop, kept verbatim."""
        device = self.device
        banks = [_BankState() for _ in range(device.banks)]
        bus_free_ns = 0.0
        bus_last_was_read: Optional[bool] = None
        op_energy = 0.0
        row_hits = 0
        row_misses = 0
        last_arrival = -1.0
        finish_times: List[float] = []

        for index, request in enumerate(requests):
            if request.arrival_ns < last_arrival:
                raise SimulationError("requests must be sorted by arrival")
            last_arrival = request.arrival_ns

            bank_index = device.bank_of(request)
            bank = banks[bank_index]

            admitted = request.arrival_ns
            if index >= self.queue_depth:
                # Transaction queue full until an older request finishes.
                admitted = max(admitted, finish_times[index - self.queue_depth])

            start = max(admitted, bank.free_at_ns)
            start = self._skip_refresh(start)

            row_hit = False
            if device.row_buffer is not None:
                row = device.row_of(request)
                if device.row_buffer.is_open_page:
                    row_hit = bank.open_row == row
                    bank.open_row = row
                else:
                    bank.open_row = None   # auto-precharged
                if row_hit:
                    row_hits += 1
                else:
                    row_misses += 1

            array_ns = device.array_time_ns(request, row_hit)
            burst_start = start + array_ns
            if device.shared_bus:
                bus_ready = bus_free_ns
                if (bus_last_was_read is not None
                        and bus_last_was_read != request.is_read):
                    bus_ready += device.bus_turnaround_ns
                burst_start = max(burst_start, bus_ready)
                burst_start = self._skip_refresh(burst_start)
            finish = burst_start + device.data_burst_ns
            if device.shared_bus:
                bus_free_ns = finish
                bus_last_was_read = request.is_read

            bank_release = finish
            if device.burst_overlaps_array:
                bank_release = max(start + array_ns, burst_start)
            bank.busy_ns += bank_release - start
            bank.free_at_ns = bank_release
            finish_times.append(finish)

            request.start_ns = start
            request.finish_ns = finish
            request.completion_ns = finish + device.interface_delay_ns
            # Latency is measured from queue admission (NVMain convention).
            request.arrival_ns = admitted
            op_energy += device.op_energy_j(request)

        first_arrival = requests[0].arrival_ns
        last_completion = max(r.completion_ns for r in requests)
        sim_time = max(last_completion - first_arrival, 1e-9)
        busy = sum(b.busy_ns for b in banks)
        if device.energy.gate_active_power:
            active = min(sim_time, busy / device.banks)
        else:
            active = sim_time

        refresh_count = 0
        refresh_energy = 0.0
        if device.refresh is not None:
            refresh_count = int(sim_time // device.refresh.interval_ns)
            refresh_energy = refresh_count * device.refresh.energy_j

        reads = sum(1 for r in requests if r.is_read)
        return SimStats(
            device_name=device.name,
            workload_name=workload_name,
            num_requests=len(requests),
            num_reads=reads,
            num_writes=len(requests) - reads,
            total_bytes=sum(r.size_bytes for r in requests),
            sim_time_ns=sim_time,
            busy_time_ns=busy,
            active_time_ns=active,
            latencies_ns=[r.latency_ns for r in requests],
            op_energy_j=op_energy,
            refresh_energy_j=refresh_energy,
            refresh_count=refresh_count,
            background_power_w=device.energy.background_power_w,
            active_power_w=device.energy.active_power_w,
            row_hits=row_hits,
            row_misses=row_misses,
        )

    # ------------------------------------------------------------------

    def _skip_refresh(self, time_ns: float) -> float:
        """Push a start time out of any refresh window it lands in."""
        refresh = self.device.refresh
        if refresh is None:
            return time_ns
        position = time_ns % refresh.interval_ns
        if position < refresh.duration_ns:
            return time_ns - position + refresh.duration_ns
        return time_ns
