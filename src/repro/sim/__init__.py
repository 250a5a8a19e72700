"""Trace-driven main-memory simulator (the NVMain 2.0 substitute).

The paper evaluates every architecture with a heavily modified NVMain 2.0
[30].  This package provides the equivalent: a trace-driven, bank-accurate
FCFS/FR-FCFS-lite memory simulator with row-buffer DRAM timing, refresh,
data-bus contention, per-operation + static energy accounting, and the
bandwidth / latency / EPB statistics Fig. 9 plots.

Key entry points:

* :func:`repro.sim.factory.build_device` — device model for any Fig. 9
  architecture name ("COMET", "COSMOS", "EPCM-MM", "2D_DDR3", ...).
* :func:`repro.sim.factory.build_workload` — any named workload preset
  (the SPEC eight, multi-programmed ``mix_*`` pairs, ``bursty``,
  ``checkpoint``).
* :class:`repro.sim.simulator.MainMemorySimulator` — runs a request list.
* :func:`repro.sim.engine.run_evaluation` — the (architecture x
  workload) grid, fanned out over a thread pool with results identical
  to a serial run.
* :mod:`repro.sim.tracegen` — deterministic vectorized workload
  generators and the per-(workload, n, seed) trace cache.
* :mod:`repro.sim.trace` — NVMain-format trace reader/writer.
* :class:`repro.sim.store.ResultStore` — persistent content-addressed
  result store (device/workload fingerprints invalidate stale cells).
* :func:`repro.sim.sweep.run_sweep` — resumable sharded parameter
  sweeps (arch x workload x n x seed x queue depth) with incremental
  checkpointing and CSV/JSON export.
* :class:`repro.sim.server.EvalServer` /
  :class:`repro.sim.client.EvalClient` — the async evaluation daemon
  (HTTP + line protocol, store read-through, request coalescing) and
  its sync/async clients (``python -m repro.sim serve / query``).
* :func:`repro.sim.fabric.run_fabric` — distributed sweeps across an
  *elastic* fleet of daemons (digest-prefix partitioning, work
  stealing, failure re-dispatch, health-checked membership with
  mid-run join and re-admission) with audited store merging
  (``python -m repro.sim fabric / merge-stores``);
  :mod:`repro.sim.chaos` is the fault-injection harness that proves
  the churn story against real subprocess daemons.

The package does not re-export the serving modules (``server``,
``client``, ``fabric``, ``chaos``): import them by their full module
path.  That keeps ``asyncio``, ``ssl`` and ``http.client`` out of every
process that only imports the engine.
"""

from .request import MemRequest, OpType
from .trace import TraceReader, TraceWriter, parse_trace_line, format_trace_line
from .tracegen import (
    MIXED_WORKLOADS,
    MixedWorkload,
    PHASED_WORKLOADS,
    Phase,
    PhasedWorkload,
    SPEC_WORKLOADS,
    SyntheticWorkload,
    TraceArrays,
    WORKLOAD_NAMES,
    WORKLOADS,
    cached_trace_arrays,
    generate_trace,
    generate_trace_arrays,
)
from .devices import (
    MemoryDeviceModel,
    RowBufferTiming,
    RefreshSpec,
    EnergyModel,
)
from .stats import SimStats
from .controller import MemoryController, QUEUE_DEPTH_PER_CHANNEL
from .factory import build_device, build_workload, ARCHITECTURE_NAMES
from .engine import (EvalTask, evaluate_cell, evaluate_tasks, grid_tasks,
                     run_evaluation, task_from_dict, task_to_dict)
from .store import MergeReport, ResultStore, task_digest
from .sweep import SweepResult, SweepSpec, run_sweep, write_csv, write_json
from .simulator import MainMemorySimulator, summarize

__all__ = [
    "MemRequest",
    "OpType",
    "TraceReader",
    "TraceWriter",
    "parse_trace_line",
    "format_trace_line",
    "SyntheticWorkload",
    "MixedWorkload",
    "PhasedWorkload",
    "Phase",
    "TraceArrays",
    "SPEC_WORKLOADS",
    "MIXED_WORKLOADS",
    "PHASED_WORKLOADS",
    "WORKLOADS",
    "WORKLOAD_NAMES",
    "generate_trace",
    "generate_trace_arrays",
    "cached_trace_arrays",
    "MemoryDeviceModel",
    "RowBufferTiming",
    "RefreshSpec",
    "EnergyModel",
    "SimStats",
    "MemoryController",
    "QUEUE_DEPTH_PER_CHANNEL",
    "MainMemorySimulator",
    "summarize",
    "EvalTask",
    "evaluate_cell",
    "evaluate_tasks",
    "grid_tasks",
    "run_evaluation",
    "task_from_dict",
    "task_to_dict",
    "ResultStore",
    "MergeReport",
    "task_digest",
    "SweepSpec",
    "SweepResult",
    "run_sweep",
    "write_csv",
    "write_json",
    "build_device",
    "build_workload",
    "ARCHITECTURE_NAMES",
]
