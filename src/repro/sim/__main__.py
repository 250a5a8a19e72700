"""Command-line simulator runner.

Run a synthetic workload::

    python -m repro.sim --arch COMET --workload mcf --requests 20000

a multi-programmed or phased workload::

    python -m repro.sim --arch COMET --workload mix_mcf_lbm
    python -m repro.sim --arch 3D_DDR4 --workload checkpoint

an NVMain trace file::

    python -m repro.sim --arch 2D_DDR3 --trace path/to/trace.nvt

or the full evaluation grid through the parallel engine::

    python -m repro.sim --arch ALL --grid --workers 4
    python -m repro.sim --arch ALL --grid --workers 4 --pool threads
    python -m repro.sim --arch ALL --grid --workloads mcf,bursty,checkpoint

with a persistent result store (incremental + resumable) and export::

    python -m repro.sim --arch ALL --grid --store results/ --resume
    python -m repro.sim --arch ALL --grid --store results/ --resume \
        --export csv --export-path fig9.csv

with per-phase timing (trace fetch / device build / simulate / store I/O, fast-path
scheduler-kernel hit rate, trace-plane segments)::

    python -m repro.sim --arch ALL --grid --profile

run / query the async evaluation daemon::

    python -m repro.sim serve --port 8787 --store results/ --workers 4
    python -m repro.sim query --arch COMET --workload mcf --requests 8000
    python -m repro.sim query --stats

or drive a fleet of daemons and fold their stores back together::

    python -m repro.sim fabric --hosts http://a:8787,http://b:8787 \
        --arch ALL --store results/
    python -m repro.sim fabric stats --hosts http://a:8787,http://b:8787
    python -m repro.sim merge-stores --into results/ store-a/ store-b/

including as a long-running coordinator over an *elastic* fleet —
membership comes from a watched host file and/or a join endpoint, and
hosts that die, recover or join mid-run are handled by the
health-checked membership state machine::

    python -m repro.sim fabric --watch-hosts fleet.txt \
        --serve-membership :9090 --arch ALL --store results/
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

from ..errors import SimulationError
from .engine import POOL_MODES, _resolve_workers
from .factory import ARCHITECTURE_NAMES, known_architectures
from .simulator import MainMemorySimulator, summarize
from .stats import SimStats
from .trace import TraceReader
from .tracegen import ALL_WORKLOAD_NAMES, SPEC_WORKLOADS, WORKLOAD_NAMES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.sim",
        description="Trace-driven main-memory simulation (NVMain substitute)",
    )
    parser.add_argument("--arch", required=True,
                        choices=known_architectures() + ("ALL",),
                        help="architecture to simulate — a Fig. 9 label "
                             "or ablation variant (ALL with --grid runs "
                             "the Fig. 9 seven)")
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--workload", choices=ALL_WORKLOAD_NAMES,
                        help="synthetic workload (SPEC preset, mix_*, "
                             "bursty, checkpoint, dota-* accelerator "
                             "traffic)")
    source.add_argument("--trace", help="NVMain trace file")
    source.add_argument("--grid", action="store_true",
                        help="run the full evaluation grid through the "
                             "parallel engine")
    parser.add_argument("--workloads", default=None,
                        help="grid workload set: 'spec' (default), 'all', "
                             "or a comma-separated list of workload names")
    parser.add_argument("--workers", type=int, default=None,
                        help="pool workers for --grid (default: "
                             "serial, or $REPRO_EVAL_WORKERS; 0 = one "
                             "per CPU)")
    parser.add_argument("--pool", choices=("auto",) + POOL_MODES,
                        default=None,
                        help="execution pool for --grid: 'threads' "
                             "(in-process, GIL released by the compiled "
                             "kernel twin), 'fork' (process pool + "
                             "shared-memory trace plane), 'serial', or "
                             "'auto' (threads when the twin compiles; "
                             "default, or $REPRO_POOL)")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="persistent result store for --grid: every "
                             "cell is checkpointed as it completes")
    parser.add_argument("--resume", action="store_true",
                        help="with --grid --store: serve cells already "
                             "in the store instead of recomputing them")
    parser.add_argument("--export", choices=("csv", "json"), default=None,
                        help="with --grid: export per-cell rows")
    parser.add_argument("--export-path", default="-", metavar="PATH",
                        help="export destination ('-' = stdout)")
    parser.add_argument("--profile", action="store_true",
                        help="with --grid: print per-phase wall times "
                             "(trace fetch, device build, simulate, "
                             "store I/O), "
                             "per-pool run timings, the scheduler-kernel "
                             "hit rate and trace-plane usage after the "
                             "run")
    parser.add_argument("--requests", type=int, default=20_000,
                        help="request count for synthetic workloads")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cpu-ghz", type=float, default=2.0,
                        help="CPU frequency for trace cycle conversion")
    return parser


def _grid_workloads(spec: str) -> list:
    if spec == "spec":
        return sorted(SPEC_WORKLOADS)
    if spec == "all":
        return list(WORKLOAD_NAMES)
    return [name.strip() for name in spec.split(",") if name.strip()]


def _print_stats(stats: SimStats) -> None:
    latency = stats.latency_row()   # NaN columns when nothing completed
    print(f"architecture : {stats.device_name}")
    print(f"workload     : {stats.workload_name}")
    print(f"requests     : {stats.num_requests} "
          f"({stats.num_reads} R / {stats.num_writes} W)")
    print(f"bandwidth    : {stats.bandwidth_gbps:.2f} GB/s")
    print(f"avg latency  : {latency['avg_latency_ns']:.1f} ns "
          f"(p95 {latency['p95_latency_ns']:.1f} ns)")
    print(f"EPB          : {stats.energy_per_bit_pj:.1f} pJ/bit")
    print(f"BW/EPB       : {stats.bw_per_epb:.4f}")
    if stats.row_hits or stats.row_misses:
        print(f"row hit rate : {stats.row_hit_rate:.1%}")


def _print_profile(table, workers) -> None:
    """The ``--profile`` report: per-phase seconds + kernel hit rate."""
    from . import controller, engine
    from .stats import kernel_dispatch_summary
    from .tracegen import trace_plane_stats

    phases = engine.profile_snapshot()
    pools = engine.pool_profile_snapshot()
    kernel = kernel_dispatch_summary(controller.kernel_counters())
    plane = trace_plane_stats()
    classes = "/".join(
        f"{name} {kernel['per_class'].get(name, 0)}"
        for name in controller.KERNEL_CLASSES)
    fallbacks = kernel["fallbacks"]
    print("profile:", file=table)
    print(f"  trace fetch  : {phases['trace_s']:8.3f} s", file=table)
    print(f"  device build : {phases['device_s']:8.3f} s", file=table)
    print(f"  simulate     : {phases['simulate_s']:8.3f} s", file=table)
    print(f"  store I/O    : {phases['store_s']:8.3f} s", file=table)
    for mode, usage in sorted(pools.items()):
        print(f"  pool {mode:8s}: {usage['wall_s']:8.3f} s "
              f"({usage['runs']} runs, {usage['cells']} cells)", file=table)
    print(f"  kernel       : {kernel['fast']}/{kernel['scheduled']} cells "
          f"on the fast path ({classes}; fallbacks: "
          f"{fallbacks['device']} device, {fallbacks['toolchain']} "
          f"toolchain, {fallbacks['admission_reverts']} admission "
          f"reverts)", file=table)
    print(f"  trace plane  : {plane['owned_segments']} segments published "
          f"({plane['owned_bytes'] / 1024:.0f} KiB), "
          f"{plane['attached_segments']} attached", file=table)
    if workers != 1:
        print("  note: fork workers time their own compute phases; "
              "per-cell device/simulate deltas are merged back above",
              file=table)


def _run_grid(args: argparse.Namespace,
              parser: argparse.ArgumentParser) -> int:
    from . import controller, engine
    from .store import ResultStore, _current_umask
    from .sweep import SweepSpec, run_sweep, write_csv, write_json

    architectures = ARCHITECTURE_NAMES if args.arch == "ALL" \
        else (args.arch,)
    workload_names = _grid_workloads(args.workloads or "spec")
    if not workload_names:
        parser.error("--workloads resolved to an empty set")
    export_stream = None
    if args.export and args.export_path != "-":
        # Probe writability before the sweep runs (an unwritable path
        # must not discard hours of computed cells), but stage into a
        # sibling temp file so a failed or interrupted sweep never
        # truncates an existing export.
        if os.path.isdir(args.export_path):
            parser.error(
                f"--export-path {args.export_path!r} is a directory")
        try:
            export_stream = tempfile.NamedTemporaryFile(
                "w", dir=os.path.dirname(args.export_path) or ".",
                prefix=f".{os.path.basename(args.export_path)}.",
                newline="", delete=False)
        except OSError as error:
            parser.error(
                f"cannot write --export-path {args.export_path!r}: {error}")
    # Exporting to stdout reserves it for machine-readable rows; the
    # human-readable table moves to stderr so piped output stays clean.
    table = sys.stderr if (args.export and export_stream is None) \
        else sys.stdout
    try:
        try:
            # Surface argument-shaped problems (bad worker count, bad
            # $REPRO_EVAL_WORKERS) as usage errors before any cell runs.
            # The resolved count also drives --profile's fan-out note
            # (with workers > 1 the compute phases run in the pool).
            resolved_workers = _resolve_workers(args.workers)
            store = ResultStore(args.store) if args.store else None
            spec = SweepSpec(
                architectures=tuple(architectures),
                workloads=tuple(workload_names),
                num_requests=(args.requests,),
                seeds=(args.seed,),
            )
        except SimulationError as error:
            parser.error(str(error))
        except OSError as error:
            # Unusable --store path (file in the way, permissions, full
            # disk).
            parser.error(f"result store {args.store!r} unusable: {error}")
        if args.profile:
            engine.reset_profile()
            controller.reset_kernel_counters()
        try:
            sweep = run_sweep(spec, store=store, workers=args.workers,
                              resume=args.resume, pool=args.pool)
        except (SimulationError, OSError) as error:
            # A runtime failure (cell error, disk full mid-checkpoint),
            # not a bad argument: report it plainly and point at the
            # checkpointed cells.
            message = f"error: {error}"
            if args.store:
                message += (f"\ncompleted cells are checkpointed in "
                            f"{args.store}; rerun with --resume to continue")
            print(message, file=sys.stderr)
            return 1
        results = {arch: {} for arch in architectures}
        for task, stats in sweep.results.items():
            results[task.architecture][task.workload] = stats
        summary = summarize(results)
        header = (f"{'arch':10s} {'BW (GB/s)':>10s} {'latency (ns)':>13s} "
                  f"{'EPB (pJ/b)':>11s} {'BW/EPB':>9s}")
        print(f"grid         : {len(architectures)} architectures x "
              f"{len(workload_names)} workloads "
              f"({', '.join(workload_names)})", file=table)
        if store is not None:
            print(f"store        : {args.store} ({sweep.store_hits} cached, "
                  f"{sweep.computed} computed)", file=table)
        print(header, file=table)
        print("-" * len(header), file=table)
        for arch in architectures:
            row = summary[arch]
            print(f"{arch:10s} {row['bandwidth_gbps']:10.2f} "
                  f"{row['avg_latency_ns']:13.1f} {row['epb_pj']:11.1f} "
                  f"{row['bw_per_epb']:9.4f}", file=table)
        if args.profile:
            _print_profile(table, resolved_workers)
        if args.export:
            writer = write_csv if args.export == "csv" else write_json
            if export_stream is None:
                writer(sweep.rows(), sys.stdout)
            else:
                with export_stream:
                    writer(sweep.rows(), export_stream)
                try:
                    # Temp files are created 0600; give the finalized
                    # export normal umask-derived permissions.
                    os.chmod(export_stream.name, 0o666 & ~_current_umask())
                    os.replace(export_stream.name, args.export_path)
                except OSError as error:
                    # Don't discard the computed rows: the staged temp
                    # file survives (skip the cleanup unlink below).
                    print(f"error: cannot finalize --export-path "
                          f"{args.export_path!r}: {error}\n"
                          f"export rows saved in {export_stream.name}",
                          file=sys.stderr)
                    export_stream = None
                    return 1
                export_stream = None
        return 0
    finally:
        if export_stream is not None:    # failed before a complete export
            export_stream.close()
            try:
                os.unlink(export_stream.name)
            except OSError:
                pass


def gc_main(argv=None) -> int:
    """``python -m repro.sim gc --store DIR`` — prune a result store.

    Removes stale entries (old ``RESULTS_VERSION`` / fingerprint
    mismatches), orphaned latency sidecars and abandoned staging temp
    files; ``--compact`` additionally drops shard directories the pass
    left empty.  Live cells are untouched.
    """
    from .store import ResultStore

    parser = argparse.ArgumentParser(
        prog="repro.sim gc",
        description="Garbage-collect a result store: prune entries no "
                    "current model addresses, orphaned sidecars and torn "
                    "temp files.",
    )
    parser.add_argument("--store", required=True, metavar="DIR",
                        help="result-store directory to prune")
    parser.add_argument("--compact", action="store_true",
                        help="also remove shard directories left empty")
    parser.add_argument("--dry-run", action="store_true",
                        help="report what would be removed, delete nothing")
    parser.add_argument("--verbose", action="store_true",
                        help="list every removed path")
    args = parser.parse_args(argv)
    try:
        store = ResultStore(args.store)
    except (OSError, SimulationError) as error:
        print(f"error: result store {args.store!r} unusable: {error}",
              file=sys.stderr)
        return 2
    try:
        report = (store.compact(dry_run=args.dry_run) if args.compact
                  else store.gc(dry_run=args.dry_run))
    except OSError as error:
        print(f"error: gc failed: {error}", file=sys.stderr)
        return 1
    print(f"{args.store}: {report.describe()}")
    if args.verbose:
        for label, paths in (("stale", report.removed_stale),
                             ("sidecar", report.removed_sidecars),
                             ("temp", report.removed_temp_files),
                             ("dir", report.removed_dirs)):
            for path in paths:
                print(f"  {label:8s} {path}")
    return 0


def merge_main(argv=None) -> int:
    """``python -m repro.sim merge-stores --into DIR SRC [SRC...]`` —
    fold remote daemons' result stores back into one, audited.

    Conflicts (the same digest holding different task/stats payloads —
    divergent simulator builds) are never copied and make the command
    exit non-zero.
    """
    from .store import ResultStore

    parser = argparse.ArgumentParser(
        prog="repro.sim merge-stores",
        description="Merge result stores (the write-back half of a "
                    "fabric run): copy entries absent from the "
                    "destination, upgrade archival entries with latency "
                    "sidecars, replace torn entries, and refuse "
                    "digest-collision conflicts.",
    )
    parser.add_argument("--into", required=True, metavar="DIR",
                        help="destination store (created if missing)")
    parser.add_argument("sources", nargs="+", metavar="SRC",
                        help="source store directories")
    parser.add_argument("--dry-run", action="store_true",
                        help="report what would be copied, write nothing")
    parser.add_argument("--verbose", action="store_true",
                        help="list every copied path and conflict digest")
    args = parser.parse_args(argv)
    try:
        dest = ResultStore(args.into)
    except (OSError, SimulationError) as error:
        print(f"error: destination store {args.into!r} unusable: {error}",
              file=sys.stderr)
        return 2
    conflicts = 0
    for source in args.sources:
        try:
            report = dest.merge_from(source, dry_run=args.dry_run)
        except (OSError, SimulationError) as error:
            print(f"error: source store {source!r} unusable: {error}",
                  file=sys.stderr)
            return 2
        print(f"{source} -> {args.into}: {report.describe()}")
        if args.verbose:
            for label, paths in (("new", report.merged),
                                 ("upgrade", report.upgraded),
                                 ("replace", report.replaced_torn),
                                 ("skip", report.skipped_unreadable)):
                for path in paths:
                    print(f"  {label:8s} {path}")
            for digest in report.conflicts:
                print(f"  CONFLICT {digest}")
        conflicts += len(report.conflicts)
    if conflicts:
        print(f"error: {conflicts} conflicting digests left uncopied — "
              f"the stores were written by divergent simulator builds",
              file=sys.stderr)
        return 1
    return 0


#: Subcommands dispatched before the legacy flag-style parser; the
#: flag interface (``--arch ... --workload ...``) stays unchanged.
SUBCOMMANDS = ("serve", "query", "gc", "fabric", "merge-stores")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in SUBCOMMANDS:
        if argv[0] == "serve":
            from .server import serve_main
            return serve_main(argv[1:])
        if argv[0] == "gc":
            return gc_main(argv[1:])
        if argv[0] == "fabric":
            from .fabric import fabric_main
            return fabric_main(argv[1:])
        if argv[0] == "merge-stores":
            return merge_main(argv[1:])
        from .client import query_main
        return query_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.resume and not args.store:
        parser.error("--resume requires --store")
    if args.export_path != "-" and args.export is None:
        parser.error("--export-path requires --export")
    if args.grid:
        try:
            return _run_grid(args, parser)
        except KeyboardInterrupt:
            # Completed cells are already checkpointed; surface the
            # resume path instead of a raw traceback.
            message = "\ninterrupted"
            if args.store:
                message += (f" — completed cells are checkpointed in "
                            f"{args.store}; rerun with --resume to continue")
            print(message, file=sys.stderr)
            return 130
    if args.arch == "ALL":
        parser.error("--arch ALL requires --grid")
    if args.workers is not None or args.workloads is not None \
            or args.pool is not None:
        parser.error("--workers/--workloads/--pool only apply with --grid")
    if args.profile:
        parser.error("--profile only applies with --grid")
    if args.store is not None or args.export is not None:
        parser.error("--store/--resume/--export only apply with --grid")
    simulator = MainMemorySimulator(args.arch)
    if args.workload:
        stats = simulator.run_workload(args.workload, args.requests, args.seed)
    else:
        requests = TraceReader(args.trace, cpu_freq_ghz=args.cpu_ghz).read_all()
        stats = simulator.run(requests, workload_name=args.trace)
    _print_stats(stats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
