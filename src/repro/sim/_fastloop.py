"""The scheduler, twice: a compiled exact twin and its Python mirror.

:func:`run_cell` hands a whole cell to the C entry ``repro_run_cell``
in one ``ctypes`` call, which releases the GIL for all of it: the
sortedness and negative-address checks, bank and row mapping, open-row
hits, array service times, the bus-turnaround term, the recurrence of
the cell's structure (per-bank-queue chains, reverting to the global
queue when a per-bank admission stamp would bind; the global FIFO with
or without a shared bus and refresh) and the latency reduction.
:func:`run_cell_python` is the same algorithm transcribed into Python:
the oracle the equivalence suites compare the twin against and the
fallback wherever the twin is unavailable.  Both take one
:class:`CellSpec` and return one :class:`CellResult`.

The bus- and queue-coupled recurrences are *irreducibly sequential*
(the bus serializes every burst through its predecessor while bank
conflicts couple requests a few indices apart), so no exact prefix fold
covers them: re-associating float additions would move results by an
ulp off the goldens.  The twin is therefore an **exact twin**, not a
decomposition: the mirror's recurrence loops perform the same IEEE-754
double operations in the same order, and only steps without a timing
dependency (input checks, mapping, open-row hits, service times, the
turnaround term, the latency reduction) run as numpy passes there.
CPython float arithmetic *is* C double arithmetic on the host (``+``,
``*``, comparisons, ``math.fmod``), and C's integer ``/`` and ``%``
equal numpy's floor operations on the non-negative addresses both
paths insist on, so the two are bit-identical by construction.
Contraction (``-ffp-contract=off``) and fast-math stay off.  The C
source keeps no static state (scratch tables are malloc'd per call), so
threads may run cells concurrently.

The library is cached on disk keyed by the SHA-256 of the source, so a
process pays the compile once ever; a corrupt or truncated cached
artifact triggers one rebuild.  Where no C toolchain exists the module
reports itself unavailable and the controller runs the mirror instead
— same results, Python speed — counted under ``fallback_toolchain``;
``REPRO_FASTLOOP=0`` forces that fallback.

``REPRO_FASTLOOP_SANITIZE=asan,ubsan`` (or ``tsan``) recompiles the
twin with the matching ``-fsanitize=`` flags into a *separate* cache
entry: the sanitizer list salts both the source hash and the filename.
ASan twins need the runtime preloaded into CPython
(``LD_PRELOAD=libasan.so`` plus ``ASAN_OPTIONS=detect_leaks=0``);
without it the ASan runtime exits the calling process from *inside*
dlopen, so sanitized artifacts are test-loaded in a throwaway
subprocess first and the probe degrades to the Python fallback when
they refuse to load.  ``examples/sanitize_smoke.py`` sets the preload
up and CI's ``kernel-sanitize`` job drives the equivalence suites
under it.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from ..errors import SimulationError

#: Environment switch: ``0`` disables the compiled loop (the controller
#: then counts a toolchain fallback and runs the Python mirror).
FASTLOOP_ENV_VAR = "REPRO_FASTLOOP"

#: Override for the shared-library cache directory (useful when the
#: package tree is read-only).
CACHE_ENV_VAR = "REPRO_FASTLOOP_CACHE"

#: Comma-separated sanitizer list (``asan``, ``ubsan``, ``tsan``) for
#: instrumented twin builds.  Unknown tokens raise: a typo must fail
#: loudly, not silently hand back an uninstrumented twin.
SANITIZE_ENV_VAR = "REPRO_FASTLOOP_SANITIZE"

#: Sanitizer token -> extra compiler flags.  UBSan artifacts dlopen into
#: plain CPython; ASan/TSan ones need their runtime preloaded first.
_SANITIZER_FLAGS = {
    "asan": ("-fsanitize=address", "-fno-omit-frame-pointer"),
    "tsan": ("-fsanitize=thread",),
    "ubsan": ("-fsanitize=undefined", "-fno-sanitize-recover=undefined"),
}

# repro_run_cell and run_cell_python below are one algorithm written
# twice, with identical double operations in identical order, so an edit
# to either must track the other: array_time is _map_requests (the
# service constants arrive pre-folded, COSMOS's write override
# included), per_bank_loop is _per_bank_loop (only the stamp
# `served - bank_queue_depth` of a bank is ever read, so one slot per
# queue position suffices), global_loop is _global_loop with its
# turnaround term from _turnarounds (numpy's multiply(bool, t)), and
# finish_request is the reduction at the end of run_cell_python.
# Return codes: 0 served, 1 unsorted arrivals, 2 a negative address,
# 3 out of memory.
_C_SOURCE = r"""
#include <math.h>
#include <stdlib.h>

typedef struct {
    long long banks;
    long long map_bytes;         /* bank-interleave granularity */
    long long row_bytes;         /* row size times banks */
    long long queue_depth;       /* global transaction queue */
    long long bank_queue_depth;  /* per-bank slice (per_bank only) */
    int row_buffer;              /* count row misses */
    int open_page;               /* track open rows per bank */
    int per_bank;                /* per-bank-queue chains */
    int shared_bus;
    int overlap;
    int has_refresh;
    double hit_read, hit_write, miss_read, miss_write;
    double burst, interface_delay, turnaround;
    double interval, duration;
} repro_cell_spec;

typedef struct {
    double first_admitted;
    double busy;
    double last_completion;
    long long reads;
    long long row_hits;
    long long row_misses;
    int reverted;
} repro_cell_totals;

/* A divisor of non-negative operands: a power of two takes a shift
   and a mask, which equal C's / and % there and skip a 64-bit divide. */
typedef struct {
    long long d;
    int shift;   /* log2(d), or -1 when d is not a power of two */
} divisor;

static divisor make_divisor(long long d)
{
    divisor v = {d, -1};
    if (d > 0 && (d & (d - 1)) == 0)
        for (v.shift = 0; (1LL << v.shift) != d; v.shift++) {}
    return v;
}

static long long quot(divisor v, long long x)
{
    return v.shift >= 0 ? x >> v.shift : x / v.d;
}

static long long rem(divisor v, long long x)
{
    return v.shift >= 0 ? x & (v.d - 1) : x % v.d;
}

typedef struct {
    const long long *address;
    const unsigned char *is_read;
    const double *arrival;
    double *latency;
    double *admitted, *start, *finish;   /* 0 unless the object API */
    divisor map, banks, rows, bank_depth;
    long long reads, row_hits;
    double first_admitted, last_completion;
} cell_io;

/* Bank of request i, its open-row hit and its array service time. */
static inline double array_time(const repro_cell_spec *s, cell_io *io,
                                long long i, long long *bank, int *read,
                                long long *open_row)
{
    long long address = io->address[i];
    long long b = rem(io->banks, quot(io->map, address));
    int hit = 0;
    if (s->open_page) {
        long long row = quot(io->rows, address);
        hit = open_row[b] == row;
        open_row[b] = row;
        io->row_hits += hit;
    }
    *bank = b;
    *read = io->is_read[i] != 0;
    io->reads += *read;
    if (*read)
        return hit ? s->hit_read : s->miss_read;
    return hit ? s->hit_write : s->miss_write;
}

/* Completion, latency from admission and the running last completion
   (NaN-propagating like numpy's max). */
static inline void finish_request(const repro_cell_spec *s, cell_io *io,
                                  long long i, double adm, double start,
                                  double fin)
{
    double completion = fin + s->interface_delay;
    io->latency[i] = completion - adm;
    if (i == 0) io->first_admitted = adm;
    if (completion > io->last_completion || completion != completion)
        io->last_completion = completion;
    if (io->admitted) {
        io->admitted[i] = adm;
        io->start[i] = start;
        io->finish[i] = fin;
    }
}

static void reset_io(cell_io *io)
{
    io->reads = 0;
    io->row_hits = 0;
    io->last_completion = -INFINITY;
}

static double sum_busy(const double *busy, long long banks)
{
    double total = 0.0;
    for (long long b = 0; b < banks; b++) total += busy[b];
    return total;
}

/* Per-bank-queue chains; 1 when an admission stamp would bind. */
static int per_bank_loop(const repro_cell_spec *s, cell_io *io,
                         long long n, double *scratch,
                         long long *iscratch, double *busy_total)
{
    long long banks = s->banks, depth = s->bank_queue_depth;
    int stamps = depth < n;   /* else no bank ever fills its slice */
    double *cum = scratch, *peak = cum + banks, *busy = peak + banks;
    double *history = busy + banks;
    long long *served = iscratch, *open_row = served + banks;
    double burst = s->burst;
    int overlap = s->overlap;
    reset_io(io);
    for (long long b = 0; b < banks; b++) {
        cum[b] = 0.0;
        peak[b] = -INFINITY;
        busy[b] = 0.0;
        served[b] = 0;
        open_row[b] = -1;
    }
    for (long long i = 0; i < n; i++) {
        long long b;
        int read;
        double array_ns = array_time(s, io, i, &b, &read, open_row);
        double arrival = io->arrival[i];
        double occupancy = overlap ? array_ns : array_ns + burst;
        double cum_prev = cum[b];
        double deadline = arrival - cum_prev;
        double pk = peak[b];
        if (deadline > pk) {
            pk = deadline;
            peak[b] = deadline;
        }
        double start = pk + cum_prev;
        double cum_next = cum_prev + occupancy;
        double release = pk + cum_next;
        double fin = overlap ? release + burst : release;
        double adm = arrival;
        if (stamps) {
            long long k = served[b];
            double *slot = history + b * depth + rem(io->bank_depth, k);
            if (k >= depth) {
                if (*slot > adm) adm = *slot;
                if (adm > start) return 1;  /* queue binds: revert */
            }
            *slot = fin;
            served[b] = k + 1;
        }
        cum[b] = cum_next;
        busy[b] += release - start;
        finish_request(s, io, i, adm, start, fin);
    }
    *busy_total = sum_busy(busy, banks);
    return 0;
}

/* The global-FIFO recurrence: shared bus and refresh as flagged. */
static void global_loop(const repro_cell_spec *s, cell_io *io,
                        long long n, double *scratch, long long *iscratch,
                        double *busy_total)
{
    long long banks = s->banks, depth = s->queue_depth;
    int blocks = depth < n;   /* else the queue never fills */
    double *bank_free = scratch, *busy = bank_free + banks;
    double *ring = busy + banks;  /* finish of the last `depth` */
    long long *open_row = iscratch;
    long long slot = 0;
    double bus_free = 0.0, burst = s->burst;
    double interval = s->interval, duration = s->duration;
    int shared_bus = s->shared_bus, has_refresh = s->has_refresh;
    int prev_read = 0;
    reset_io(io);
    for (long long b = 0; b < banks; b++) {
        bank_free[b] = 0.0;
        busy[b] = 0.0;
        open_row[b] = -1;
    }
    for (long long i = 0; i < n; i++) {
        double adm = io->arrival[i];
        if (blocks && i >= depth) {
            double blocked = ring[slot];
            if (blocked > adm) adm = blocked;
        }
        long long b;
        int read;
        double array_ns = array_time(s, io, i, &b, &read, open_row);
        double start = bank_free[b];
        if (adm > start) start = adm;
        if (has_refresh) {
            double pos = fmod(start, interval);
            if (pos < duration) start = (start - pos) + duration;
        }
        double burst_start = start + array_ns;
        if (shared_bus) {
            double turn = i > 0
                ? (double)(read != prev_read) * s->turnaround : 0.0;
            double bus_ready = bus_free + turn;
            if (bus_ready > burst_start) burst_start = bus_ready;
            if (has_refresh) {
                double pos = fmod(burst_start, interval);
                if (pos < duration)
                    burst_start = (burst_start - pos) + duration;
            }
        }
        double fin = burst_start + burst;
        if (shared_bus) bus_free = fin;
        double release = fin;
        if (s->overlap) {
            double array_done = start + array_ns;
            release = array_done > burst_start ? array_done : burst_start;
        }
        busy[b] += release - start;
        bank_free[b] = release;
        if (blocks) {
            ring[slot] = fin;
            if (++slot == depth) slot = 0;
        }
        prev_read = read;
        finish_request(s, io, i, adm, start, fin);
    }
    *busy_total = sum_busy(busy, banks);
}

int repro_run_cell(
    long long n, const long long *address, const unsigned char *is_read,
    const double *arrival, const repro_cell_spec *s,
    double *latency, double *admitted, double *start, double *finish,
    repro_cell_totals *totals)
{
    for (long long i = 0; i < n; i++) {
        if (i > 0 && arrival[i] - arrival[i - 1] < 0.0) return 1;
        if (address[i] < 0) return 2;
    }
    long long banks = s->banks;
    long long history = s->per_bank && s->bank_queue_depth < n
        ? banks * s->bank_queue_depth : 0;
    long long ring = s->queue_depth < n ? s->queue_depth : 0;
    long long tail = history > ring ? history : ring;
    double *scratch = malloc(sizeof(double) * (3 * banks + tail));
    long long *iscratch = malloc(sizeof(long long) * 2 * banks);
    if (!scratch || !iscratch) {
        free(scratch);
        free(iscratch);
        return 3;
    }
    cell_io io = {address, is_read, arrival, latency, admitted, start,
                  finish, make_divisor(s->map_bytes),
                  make_divisor(banks), make_divisor(s->row_bytes),
                  make_divisor(s->bank_queue_depth), 0, 0, 0.0, 0.0};
    /* A binding admission stamp reverts the cell to the global queue. */
    totals->reverted = s->per_bank
        && per_bank_loop(s, &io, n, scratch, iscratch, &totals->busy);
    if (!s->per_bank || totals->reverted)
        global_loop(s, &io, n, scratch, iscratch, &totals->busy);
    free(scratch);
    free(iscratch);
    totals->first_admitted = io.first_admitted;
    totals->last_completion = io.last_completion;
    totals->reads = io.reads;
    totals->row_hits = io.row_hits;
    totals->row_misses = s->row_buffer ? n - io.row_hits : 0;
    return 0;
}
"""


class CellSpec(ctypes.Structure):
    """``repro_cell_spec``: one cell's device constants and queue depths.

    The four service times are the array time before the data burst
    for a (row hit, read) pair — :meth:`RowBufferTiming.service_ns`
    values, or the fixed occupancies for devices without a row buffer,
    with a fixed write occupancy replacing both write entries."""

    _fields_ = [
        ("banks", ctypes.c_longlong),
        ("map_bytes", ctypes.c_longlong),
        ("row_bytes", ctypes.c_longlong),
        ("queue_depth", ctypes.c_longlong),
        ("bank_queue_depth", ctypes.c_longlong),
        ("row_buffer", ctypes.c_int),
        ("open_page", ctypes.c_int),
        ("per_bank", ctypes.c_int),
        ("shared_bus", ctypes.c_int),
        ("overlap", ctypes.c_int),
        ("has_refresh", ctypes.c_int),
        ("hit_read", ctypes.c_double),
        ("hit_write", ctypes.c_double),
        ("miss_read", ctypes.c_double),
        ("miss_write", ctypes.c_double),
        ("burst", ctypes.c_double),
        ("interface_delay", ctypes.c_double),
        ("turnaround", ctypes.c_double),
        ("interval", ctypes.c_double),
        ("duration", ctypes.c_double),
    ]


class _CellTotals(ctypes.Structure):
    _fields_ = [
        ("first_admitted", ctypes.c_double),
        ("busy", ctypes.c_double),
        ("last_completion", ctypes.c_double),
        ("reads", ctypes.c_longlong),
        ("row_hits", ctypes.c_longlong),
        ("row_misses", ctypes.c_longlong),
        ("reverted", ctypes.c_int),
    ]


class CellResult(NamedTuple):
    """One scheduled cell, reduced to what ``SimStats`` needs.

    The twin fills the per-request ``admitted`` / ``start`` /
    ``finish`` times only for the object API (the mirror always has
    them).  ``reverted`` marks a per-bank cell whose admission stamp
    bound service, so the global-queue model served it."""

    latencies: np.ndarray
    admitted: Optional[np.ndarray]
    start: Optional[np.ndarray]
    finish: Optional[np.ndarray]
    first_admitted: float
    busy: float
    last_completion: float
    reads: int
    row_hits: int
    row_misses: int
    reverted: bool = False


def _checked_columns(addresses, is_read, arrivals, spec: CellSpec):
    """The checks both paths make before scheduling a cell; returns the
    columns as contiguous int64, bool and float64 arrays."""
    n = len(arrivals)
    if not len(addresses) == len(is_read) == n:
        raise SimulationError(
            f"trace columns must have equal length: {len(addresses)} "
            f"addresses, {len(is_read)} read flags, {n} arrivals")
    if n == 0:
        raise SimulationError("empty request stream")
    if min(spec.banks, spec.map_bytes, spec.row_bytes, spec.queue_depth,
           spec.bank_queue_depth) < 1:
        raise ValueError("cell geometry and queue depths must be positive")
    return (np.ascontiguousarray(addresses, dtype=np.int64),
            np.ascontiguousarray(is_read, dtype=np.bool_),
            np.ascontiguousarray(arrivals, dtype=np.float64))


def _input_error(rc: int, addresses: np.ndarray) -> SimulationError:
    """The error for a failed input scan (return code 1 or 2)."""
    if rc == 1:
        return SimulationError("requests must be sorted by arrival")
    return SimulationError(
        f"negative address {int(addresses[addresses < 0][0]):#x}")


def _scan_inputs(addresses: np.ndarray, arrivals: np.ndarray) -> int:
    """repro_run_cell's input scan: the first request that arrives
    before its predecessor (code 1) or has a negative address (code 2)
    wins; 0 when every request passes."""
    bad = addresses < 0
    bad[1:] |= np.diff(arrivals) < 0.0
    first = int(np.argmax(bad))
    if not bad[first]:
        return 0
    return 1 if first and arrivals[first] - arrivals[first - 1] < 0.0 else 2


def _map_requests(addresses: np.ndarray, is_read: np.ndarray,
                  spec: CellSpec):
    """array_time for every request as numpy passes: the bank, the
    open-row hit (the bank's previous request opened the same row) and
    the array service time.  Returns banks, service times, hit count."""
    bank = addresses // spec.map_bytes % spec.banks
    hit = np.zeros(len(addresses), dtype=bool)
    if spec.open_page:
        rows = addresses // spec.row_bytes
        # Group by bank with a stable sort on the narrowest key: numpy
        # radix-sorts uint8/uint16 an order of magnitude faster than it
        # merge-sorts int64.
        narrow = (np.uint8 if spec.banks <= 1 << 8
                  else np.uint16 if spec.banks <= 1 << 16 else np.int64)
        order = np.argsort(bank.astype(narrow), kind="stable")
        bank_sorted, rows_sorted = bank[order], rows[order]
        hit[order[1:]] = (bank_sorted[1:] == bank_sorted[:-1]) \
            & (rows_sorted[1:] == rows_sorted[:-1])
    array_ns = np.where(is_read,
                        np.where(hit, spec.hit_read, spec.miss_read),
                        np.where(hit, spec.hit_write, spec.miss_write))
    return bank, array_ns, int(np.count_nonzero(hit))


def _turnarounds(is_read: np.ndarray, turnaround: float) -> np.ndarray:
    """Bus dead time before each burst: ``1.0 * t`` where the transfer
    direction flips from the previous request, ``0.0 * t`` elsewhere
    and nothing before the first — numpy's multiply(bool, t)."""
    turn = np.zeros(len(is_read))
    np.multiply(is_read[1:] != is_read[:-1], turnaround, out=turn[1:])
    return turn


def _left_fold(values) -> float:
    """sum_busy: a plain left fold from 0.0 (``sum`` compensates its
    rounding on Python 3.12 and later)."""
    total = 0.0
    for value in values:
        total += value
    return total


def _per_bank_loop(spec: CellSpec, arrivals, banks, occupancies):
    """per_bank_loop: deadline-space chains, one per bank, each bank
    admitting against its own queue slice.  ``None`` when an admission
    stamp would land after its chain start (the cell reverts)."""
    burst, overlap = spec.burst, spec.overlap
    depth = spec.bank_queue_depth
    cum = [0.0] * spec.banks
    peak = [float("-inf")] * spec.banks
    busy = [0.0] * spec.banks
    history = [[] for _ in range(spec.banks)]
    admitted, starts, finishes = [], [], []
    for arrival, b, occupancy in zip(arrivals, banks, occupancies):
        cum_prev = cum[b]
        deadline = arrival - cum_prev
        pk = peak[b]
        if deadline > pk:
            pk = deadline
            peak[b] = deadline
        start = pk + cum_prev
        cum_next = cum_prev + occupancy
        release = pk + cum_next
        fin = release + burst if overlap else release
        adm = arrival
        served = history[b]
        k = len(served)
        if k >= depth:
            if served[k - depth] > adm:
                adm = served[k - depth]
            if adm > start:
                return None    # queue binds: revert
        served.append(fin)
        cum[b] = cum_next
        busy[b] += release - start
        admitted.append(adm)
        starts.append(start)
        finishes.append(fin)
    return admitted, starts, finishes, _left_fold(busy)


def _global_loop(spec: CellSpec, arrivals, banks, array_times, turns):
    """global_loop: one FIFO of ``queue_depth`` entries, shared bus and
    refresh as flagged."""
    burst, overlap = spec.burst, spec.overlap
    shared_bus, has_refresh = spec.shared_bus, spec.has_refresh
    interval, duration = spec.interval, spec.duration
    depth = spec.queue_depth
    fmod = math.fmod
    bank_free = [0.0] * spec.banks
    busy = [0.0] * spec.banks
    bus_free = 0.0
    admitted, starts, finishes = [], [], []
    for i, (adm, b, array_ns, turn) in enumerate(
            zip(arrivals, banks, array_times, turns)):
        if i >= depth and finishes[i - depth] > adm:
            adm = finishes[i - depth]
        start = bank_free[b]
        if adm > start:
            start = adm
        if has_refresh:
            pos = fmod(start, interval)
            if pos < duration:
                start = (start - pos) + duration
        burst_start = start + array_ns
        if shared_bus:
            bus_ready = bus_free + turn
            if bus_ready > burst_start:
                burst_start = bus_ready
            if has_refresh:
                pos = fmod(burst_start, interval)
                if pos < duration:
                    burst_start = (burst_start - pos) + duration
        fin = burst_start + burst
        if shared_bus:
            bus_free = fin
        release = fin
        if overlap:
            array_done = start + array_ns
            release = array_done if array_done > burst_start else burst_start
        busy[b] += release - start
        bank_free[b] = release
        admitted.append(adm)
        starts.append(start)
        finishes.append(fin)
    return admitted, starts, finishes, _left_fold(busy)


def run_cell_python(addresses, is_read, arrivals,
                    spec: CellSpec) -> CellResult:
    """Schedule one cell in Python, :func:`run_cell` step for step.

    Returns the per-request admission, start and finish times as well.
    Raises ``SimulationError`` on ragged columns, an empty stream,
    unsorted arrivals or a negative address, as :func:`run_cell` does.
    """
    addresses, is_read, arrivals = _checked_columns(
        addresses, is_read, arrivals, spec)
    rc = _scan_inputs(addresses, arrivals)
    if rc:
        raise _input_error(rc, addresses)
    bank, array_ns, row_hits = _map_requests(addresses, is_read, spec)
    arrivals_l, banks_l = arrivals.tolist(), bank.tolist()
    schedule = None
    if spec.per_bank:
        occupancy = array_ns if spec.overlap else array_ns + spec.burst
        schedule = _per_bank_loop(spec, arrivals_l, banks_l,
                                  occupancy.tolist())
    reverted = bool(spec.per_bank) and schedule is None
    if schedule is None:
        schedule = _global_loop(
            spec, arrivals_l, banks_l, array_ns.tolist(),
            _turnarounds(is_read, spec.turnaround).tolist())
    admitted, start, finish = (np.array(column) for column in schedule[:3])
    completion = finish + spec.interface_delay
    n = len(arrivals)
    return CellResult(completion - admitted, admitted, start, finish,
                      float(admitted[0]), schedule[3],
                      float(completion.max()), int(np.count_nonzero(is_read)),
                      row_hits, n - row_hits if spec.row_buffer else 0,
                      reverted)


#: ``None`` = not probed yet; ``False`` = unavailable this process.
#: Writes hold ``_PROBE_LOCK`` (double-checked: reads stay lock-free).
# staticcheck: guarded-by[_PROBE_LOCK]
_LIB: Optional[object] = None
_PROBED = False  # staticcheck: guarded-by[_PROBE_LOCK]


def _cache_dir() -> Path:
    # Toolchain/cache configuration reads select *where* the twin
    # builds and whether it engages — never what it computes — so they
    # are allow-listed from the determinism lint.
    # staticcheck: allow[determinism]
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "_fastloop_cache"


def sanitize_tokens() -> tuple:
    """Requested sanitizers, deduplicated and sorted; ``()`` means the
    production build.  Raises ``ValueError`` on an unknown token."""
    # staticcheck: allow[determinism]  (build-config read, as above)
    raw = os.environ.get(SANITIZE_ENV_VAR, "")
    tokens = sorted({tok.strip().lower()
                     for tok in raw.split(",") if tok.strip()})
    unknown = [tok for tok in tokens if tok not in _SANITIZER_FLAGS]
    if unknown:
        raise ValueError(
            f"{SANITIZE_ENV_VAR} names unknown sanitizer(s) {unknown}; "
            f"known: {sorted(_SANITIZER_FLAGS)}")
    return tuple(tokens)


def _compile(source: str, target: Path, extra_flags=()) -> bool:
    """Compile the twin into ``target`` (atomic rename); False on any
    toolchain failure."""
    # staticcheck: allow[determinism]  (build-config read, as above)
    compiler = os.environ.get("CC", "cc")
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=str(target.parent)) as build:
            src = Path(build) / "fastloop.c"
            obj = Path(build) / "fastloop.so"
            src.write_text(source)
            result = subprocess.run(
                [compiler, "-O2", "-fPIC", "-shared",
                 # No contraction, no fast-math: every double op must
                 # round exactly where the Python loop rounds.
                 "-ffp-contract=off", "-fno-fast-math",
                 *extra_flags,
                 "-o", str(obj), str(src), "-lm"],
                capture_output=True, timeout=120)
            if result.returncode != 0 or not obj.exists():
                return False
            os.replace(obj, target)    # atomic: racing processes agree
        return True
    except (OSError, subprocess.SubprocessError):
        return False


def _dlopen(target: Path):
    """CDLL + prototype the twin; ``None`` when the artifact is absent
    or unloadable (truncated file, wrong arch, missing symbol)."""
    if not target.exists():
        return None
    try:
        lib = ctypes.CDLL(str(target))
        fn = lib.repro_run_cell
    except (OSError, AttributeError):
        return None
    fn.restype = ctypes.c_int
    fn.argtypes = [
        ctypes.c_longlong, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_void_p, ctypes.POINTER(CellSpec),
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_void_p, ctypes.POINTER(_CellTotals),
    ]
    return fn


def _subprocess_loadable(target: Path) -> bool:
    """True when ``target`` dlopens in a throwaway interpreter.

    Sanitizer runtimes can refuse to initialize when the host process
    was not started under them — ASan without ``LD_PRELOAD=libasan.so``
    hard-exits the *calling* process from inside ``dlopen`` — so
    sanitized artifacts are test-loaded in a subprocess (which inherits
    this process's preload environment) before this process risks the
    dlopen itself.  Production artifacts never pay this cost."""
    code = "import ctypes, sys; ctypes.CDLL(sys.argv[1])"
    try:
        proc = subprocess.run(
            [sys.executable, "-c", code, str(target)],
            capture_output=True, timeout=120)
    except (OSError, subprocess.SubprocessError):
        return False
    return proc.returncode == 0


def _load():
    """dlopen the cached twin, compiling it first if needed."""
    tokens = sanitize_tokens()
    key = _C_SOURCE
    suffix = ""
    if tokens:
        # Salt the hash *and* the filename: an instrumented artifact
        # must never collide with the production .so in the cache.
        key += "\0sanitize=" + ",".join(tokens)
        suffix = "-" + "-".join(tokens)
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    target = _cache_dir() / f"fastloop-{digest}{suffix}.so"
    fresh = not target.exists()
    if fresh or (tokens and not _subprocess_loadable(target)):
        # Cache miss — or a corrupt/partial artifact (a build killed
        # mid-copy, a full disk): rebuild once instead of degrading to
        # fallback_toolchain with a perfectly good compiler around.
        try:
            target.unlink()
        except OSError:
            pass
        extra = tuple(f for tok in tokens for f in _SANITIZER_FLAGS[tok])
        if not _compile(_C_SOURCE, target, extra):
            return None
    if tokens and not _subprocess_loadable(target):
        # A freshly built artifact that still refuses to load means the
        # sanitizer runtime cannot live in this process (e.g. ASan with
        # no preload): degrade to the Python fallback instead of letting
        # the in-process dlopen take the interpreter down.
        return None
    fn = _dlopen(target)
    if fn is None and not tokens:
        # Production path keeps the original corrupt-artifact recovery:
        # dlopen is the probe, one rebuild on failure.
        try:
            target.unlink()
        except OSError:
            pass
        if not _compile(_C_SOURCE, target):
            return None
        fn = _dlopen(target)
    return fn


#: Serializes the first-use probe: under the thread pool many workers
#: can race into :func:`available` before anyone has compiled/dlopened
#: the twin; the double-checked lock makes exactly one thread probe.
_PROBE_LOCK = threading.Lock()

# Forked children must not inherit a lock a pool thread held mid-probe.
os.register_at_fork(
    after_in_child=lambda: globals().update(
        _PROBE_LOCK=threading.Lock()))


def available() -> bool:
    """True when the compiled twin can serve cells in this process.

    Raises ``ValueError`` on an unknown ``REPRO_FASTLOOP_SANITIZE``
    token, also under the kill switch: a typo fails loudly on every
    CI leg."""
    global _LIB, _PROBED
    sanitize_tokens()
    # Kill-switch read: forces the bit-identical Python fallback,
    # results cannot move.
    # staticcheck: allow[determinism]
    if os.environ.get(FASTLOOP_ENV_VAR, "1") == "0":
        return False
    if not _PROBED:
        with _PROBE_LOCK:
            if not _PROBED:
                _LIB = _load()
                _PROBED = True
    return _LIB is not None


def reset_probe() -> None:
    """Forget the availability probe (tests that flip the environment).

    Holds the probe lock: resetting mid-probe on another thread must
    not let a half-initialized ``_LIB`` slip out as "probed".
    """
    global _LIB, _PROBED
    with _PROBE_LOCK:
        _LIB = None
        _PROBED = False


def run_cell(addresses: np.ndarray, is_read: np.ndarray,
             arrivals: np.ndarray, spec: CellSpec,
             service: bool = False) -> CellResult:
    """Schedule one cell in one GIL-free call into the twin.

    The caller checks :func:`available` first.  ``service=True`` also
    returns per-request admission, start and finish times (the object
    API).  Raises ``SimulationError`` on ragged columns, an empty
    stream, unsorted arrivals or a negative address, as
    :func:`run_cell_python` does.
    """
    addresses, is_read, arrivals = _checked_columns(
        addresses, is_read, arrivals, spec)
    n = len(arrivals)
    latencies = np.empty(n)
    admitted, start, finish = (
        (np.empty(n), np.empty(n), np.empty(n)) if service
        else (None, None, None))
    totals = _CellTotals()
    rc = _LIB(n, addresses.ctypes.data, is_read.ctypes.data,
              arrivals.ctypes.data, ctypes.byref(spec), latencies.ctypes.data,
              *(array.ctypes.data if service else None
                for array in (admitted, start, finish)),
              ctypes.byref(totals))
    if rc in (1, 2):
        raise _input_error(rc, addresses)
    if rc != 0:
        raise MemoryError("compiled twin could not allocate its tables")
    return CellResult(latencies, admitted, start, finish,
                      totals.first_admitted, totals.busy,
                      totals.last_completion, totals.reads, totals.row_hits,
                      totals.row_misses, bool(totals.reverted))
