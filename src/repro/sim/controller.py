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

One set of semantics, two implementations of it (:mod:`._fastloop`):

* **The compiled twin** — ``run_arrays`` (and the object API's
  ``run_fast``) hand each cell to the compiled exact twin in a single
  ``ctypes`` call that releases the GIL for the whole cell: input
  checks, bank/row mapping, open-row hits, array service times, bus
  turnaround, the recurrence (per-bank chains, reverting to the global
  queue when a per-bank admission stamp would bind; the global FIFO
  with or without shared bus and refresh) and the latency reduction.
  Python only marshals arguments, counts the dispatch and assembles
  ``SimStats``.
* **The Python mirror** — ``_fastloop.run_cell_python`` transcribes the
  twin step for step, with the same IEEE-754 operations in the same
  order; steps without a cross-request timing dependency run as numpy
  passes.  It is the oracle (``run`` and ``run_arrays(fast=False)``)
  and the fallback wherever the twin does not serve a cell (no C
  toolchain, ``REPRO_FASTLOOP=0``, a device with no dispatch class).
  ``run_reference``, the straightforward per-request object loop,
  stays as an independent semantic check.

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
``start_k = M_k + C_{k-1}`` and ``release_k = M_k + C_k``.  The twin,
the mirror and ``run_reference`` all perform these exact floating-point
operations in the same order, which is what makes them bit-identical
rather than merely close.
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
#: schedule ends in exactly one *terminal* outcome: a compiled hit of
#: the twin (``fast_per_bank`` / ``fast_shared_bus`` /
#: ``fast_global_queue``; ``fast`` is their running total) or a run of
#: the Python mirror attributed to its reason — ``fallback_device`` (the
#: device has no dispatch class) or ``fallback_toolchain`` (no C
#: toolchain, or ``REPRO_FASTLOOP=0``).
#: ``fallback_admission`` is an *event* marker, not a terminal outcome:
#: a per-bank admission stamp bound service, so the cell reverted to the
#: global-queue model — a ``fast_global_queue`` hit on the twin, beside
#: the cell's fallback counter on the mirror.  Read via
#: :func:`kernel_counters`; the ``--profile`` CLI, ``/stats.kernel`` and
#: the kernel bench report the hit rate.
#: Counters are process-wide and thread-safe (every mutation holds
#: ``_COUNTER_LOCK``); under fork fan-out each worker keeps its own and
#: the engine merges the deltas back via :func:`merge_kernel_counters`.
# staticcheck: guarded-by[_COUNTER_LOCK, reads]
_KERNEL_COUNTERS = {
    "fast": 0,
    "fast_per_bank": 0,
    "fast_shared_bus": 0,
    "fast_global_queue": 0,
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


def _count(*keys: str) -> None:
    with _COUNTER_LOCK:
        for key in keys:
            _KERNEL_COUNTERS[key] += 1


@dataclass
class _BankState:
    free_at_ns: float = 0.0
    open_row: Optional[int] = None
    busy_ns: float = 0.0


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
        in one call when the device has a dispatch class and a C
        toolchain exists, otherwise the Python mirror does.
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
        cell = self._run_cell(addresses, is_read, arrivals, fast,
                              service=True)
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
        fallback); ``fast=False`` pins the Python mirror, which the
        kernel benchmark uses as its baseline.
        """
        addresses = np.asarray(trace.addresses, dtype=np.int64)
        is_read = np.asarray(trace.is_read, dtype=bool)
        arrivals = np.asarray(trace.arrivals_ns, dtype=np.float64)
        cell = self._run_cell(addresses, is_read, arrivals, fast)
        return self._cell_stats(
            workload_name if workload_name is not None else trace.name,
            trace.total_bytes, cell)

    # ------------------------------------------------------------------
    # schedule dispatch

    def _run_cell(self, addresses: np.ndarray, is_read: np.ndarray,
                  arrivals: np.ndarray, fast: bool,
                  service: bool = False) -> _fastloop.CellResult:
        """Schedule one cell: ``fast`` takes the compiled twin when it
        can serve the cell and counts the dispatch, else the mirror
        serves it; ``service`` also asks the twin for admission, start
        and finish times (the object API)."""
        spec = self._twin_spec()
        if not fast:
            return _fastloop.run_cell_python(addresses, is_read, arrivals,
                                             spec)
        kernel_class = self.device.fast_path_class
        if kernel_class is not None and _fastloop.available():
            cell = _fastloop.run_cell(addresses, is_read, arrivals, spec,
                                      service)
            served = "global_queue" if cell.reverted else kernel_class
            outcome = ("fast", "fast_" + served)
        else:
            cell = _fastloop.run_cell_python(addresses, is_read, arrivals,
                                             spec)
            outcome = ("fallback_toolchain" if kernel_class is not None
                       else "fallback_device",)
        if cell.reverted:
            outcome += ("fallback_admission",)
        _count(*outcome)
        return cell

    def _twin_spec(self) -> _fastloop.CellSpec:
        """The device constants both schedulers read, with the service
        times folded per (row hit, read) pair as ``run_reference``
        applies them."""
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
                # Fixed write occupancy overrides the row-buffer path
                # (COSMOS: reads hit/miss the subarray buffer, writes
                # always pay the full erase-plus-program pulse train).
                hit_write = miss_write = float(device.write_occupancy_ns)
        refresh = device.refresh
        per_bank = device.contention_free and device.per_bank_queues
        return _fastloop.CellSpec(
            banks=device.banks, map_bytes=map_bytes, row_bytes=row_bytes,
            queue_depth=self.queue_depth,
            bank_queue_depth=self.bank_queue_depth if per_bank else 1,
            row_buffer=row_buffer is not None, open_page=open_page,
            per_bank=per_bank,
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

    def _cell_stats(self, workload_name: str, total_bytes: int,
                    cell: _fastloop.CellResult) -> SimStats:
        """Assemble SimStats from a reduced cell (twin or mirror)."""
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
        busy_total = _fastloop._left_fold(busy)
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
        busy = _fastloop._left_fold(b.busy_ns for b in banks)
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
