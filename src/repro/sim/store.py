"""Persistent, content-addressed result store for evaluation grids.

Every grid cell (:class:`repro.sim.engine.EvalTask`) hashes to a stable
content digest covering the task parameters **and** fingerprints of the
device model and workload preset it would run, so results invalidate
automatically when a model changes — re-running after editing, say, the
COMET timing stack recomputes only the COMET cells.  The store itself is
a plain directory of entries, one frame file per digest
(:func:`repro.sim.stats.pack_frame`: a JSON header line, then the
per-request latency samples packed), sharded by prefix and written
atomically, so an interrupted sweep never leaves a torn entry:
whatever completed before the interruption is served from disk on the
next run, byte-identical to a cold computation.

This is the durability layer the sweep runner (:mod:`repro.sim.sweep`),
``run_evaluation(store=...)`` and the incremental Fig. 9 regeneration
build on.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import re
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..errors import ReproError, SimulationError
from .engine import EvalTask, clear_device_caches, device_for
from .stats import SimStats, pack_frame, summarize_latencies, unpack_frame
from .tracegen import get_workload

#: Folded into every task digest and recorded in ``store.json``: bump
#: when the digest payload changes incompatibly; stores written under
#: another schema are rejected on open.  The entry layout is named by
#: :data:`ENTRY_SUFFIX` instead, so a new layout keeps every digest and
#: a build never reads another layout's files as entries.
STORE_SCHEMA_VERSION = 1

#: File suffix of one entry, a frame: ``cells/<ab>/<digest>.cell``.
ENTRY_SUFFIX = ".cell"

#: Simulator-*behavior* version, folded into every task digest.  The
#: device/workload fingerprints invalidate stored results when a model
#: *configuration* changes, but cannot see code: bump this whenever
#: controller/engine scheduling or stats semantics change, so results
#: computed by older simulator code stop being addressed.
#: (``STORE_SCHEMA_VERSION`` guards the on-disk layout instead.)
#: v2: per-bank transaction queues + deadline-space chain arithmetic for
#: contention-free devices (the fast-path scheduler kernel semantics).
RESULTS_VERSION = 2


def _canonical(payload: Any) -> bytes:
    """Canonical JSON encoding (sorted keys, no whitespace) for hashing."""
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _sha256(payload: Any) -> str:
    return hashlib.sha256(_canonical(payload)).hexdigest()


def _create_staging(target: Path) -> Tuple[int, Path]:
    """Create a ``.<target-name>.<suffix>`` staging file beside
    ``target``; returns its descriptor and path.

    The file is created ``O_EXCL`` with mode 0o666, so the kernel
    applies the process umask: reading the umask would mean setting it,
    process-wide, under every other thread.  The pid and thread id in
    the suffix keep concurrent writers apart."""
    for attempt in itertools.count():
        temp = target.with_name(f".{target.name}.{os.getpid()}-"
                                f"{threading.get_ident()}-{attempt}")
        try:
            return os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                           0o666), temp
        except FileExistsError:
            continue    # left behind by a dead writer with these ids


def open_staging(target: Path, mode: str = "wb", **kwargs):
    """:func:`_create_staging`, as an open file object: returns the
    file and its path."""
    fd, temp = _create_staging(target)
    return os.fdopen(fd, mode, **kwargs), temp


def _write_atomic(path: Path, buffers: Sequence[Any]) -> None:
    """Write ``buffers`` to ``path`` through one staging file, one
    ``os.writev`` and one ``os.replace``.  The parent directory is
    made only when the staging file cannot be created without it."""
    try:
        fd, temp = _create_staging(path)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, temp = _create_staging(path)
    try:
        try:
            if os.writev(fd, buffers) != sum(memoryview(buffer).nbytes
                                             for buffer in buffers):
                raise OSError(f"short write to {temp} (disk full?)")
        finally:
            os.close(fd)
        os.replace(temp, path)
    except BaseException:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise


#: Staging names of what a store writes, matched on the target: the
#: metadata file in the store root, an entry (of either layout) in a
#: shard.  Any suffix matches: older builds used random ones.
_ROOT_STAGING = re.compile(r"\.store\.json\..+")
_SHARD_STAGING = re.compile(r"\.[0-9a-f]{64}\.(?:cell|json|lat)\..+")

#: Files of the older two-file layout (a JSON entry and a ``.lat``
#: sidecar per cell): never read, removed by ``gc`` as stale.
_OLD_LAYOUT = re.compile(r"[0-9a-f]{64}\.(?:json|lat)")


_FINGERPRINT_CACHE: Dict[Tuple[str, str], str] = {}


def device_fingerprint(architecture: str) -> str:
    """Content digest of the device model an architecture name builds.

    Hashes every field of the built :class:`MemoryDeviceModel` (timings,
    energy, geometry), so any change to the device configuration — a
    retuned pulse energy, a different bank count — changes the digest
    and invalidates stored results for that architecture.
    """
    key = ("device", architecture)
    digest = _FINGERPRINT_CACHE.get(key)
    if digest is None:
        # device_for is the engine's per-process device cache, shared by
        # every controller regardless of queue depth, so fingerprinting
        # never rebuilds a device the evaluation already built (COMET's
        # mode-solver stack costs ~0.7 s).
        digest = _sha256(dataclasses.asdict(device_for(architecture)))
        _FINGERPRINT_CACHE[key] = digest
    return digest


def workload_fingerprint(workload: str) -> str:
    """Content digest of a workload preset's full parameter set."""
    key = ("workload", workload)
    digest = _FINGERPRINT_CACHE.get(key)
    if digest is None:
        digest = _sha256(dataclasses.asdict(get_workload(workload)))
        _FINGERPRINT_CACHE[key] = digest
    return digest


_DIGEST_CACHE: Dict[EvalTask, str] = {}


def clear_fingerprint_cache() -> None:
    """Drop memoized fingerprints and digests (tests / in-process model
    edits — a rebuilt device model only re-fingerprints after this).

    Also clears the engine's device/controller caches: fingerprints are
    derived from the cached device, so an edited model definition must
    rebuild before it can re-fingerprint.
    """
    _FINGERPRINT_CACHE.clear()
    _DIGEST_CACHE.clear()
    clear_device_caches()


def task_digest(task: EvalTask) -> str:
    """Stable content digest of one grid cell.

    Pure function of the task parameters, the device and workload
    fingerprints, and :data:`RESULTS_VERSION` — no process state, dict
    ordering or hash randomization involved, so digests agree across
    processes and hosts.  Memoized per
    task (the fingerprints are fixed within a process), which keeps warm
    store lookups on the fast path.
    """
    digest = _DIGEST_CACHE.get(task)
    if digest is None:
        digest = _sha256({
            "schema": STORE_SCHEMA_VERSION,
            "results_version": RESULTS_VERSION,
            "architecture": task.architecture,
            "workload": task.workload,
            "num_requests": task.num_requests,
            "seed": task.seed,
            "queue_depth": task.queue_depth,
            "device": device_fingerprint(task.architecture),
            "workload_model": workload_fingerprint(task.workload),
        })
        _DIGEST_CACHE[task] = digest
    return digest


def memoized_task_digest(task: EvalTask) -> Optional[str]:
    """:func:`task_digest` when both fingerprints are already memoized
    (a single SHA-256 of a few hundred bytes), else ``None``.

    For callers on an event loop: the first digest of an architecture
    builds its device model (~0.7 s for COMET), and only that one needs
    a thread."""
    digest = _DIGEST_CACHE.get(task)
    memoized = (("device", task.architecture) in _FINGERPRINT_CACHE
                and ("workload", task.workload) in _FINGERPRINT_CACHE)
    if digest is None and memoized:
        digest = task_digest(task)
    return digest


@dataclass
class GcReport:
    """What one :meth:`ResultStore.gc` / :meth:`~ResultStore.compact`
    pass kept and removed (paths listed for auditing / ``--dry-run``)."""

    dry_run: bool = False
    live: int = 0
    removed_stale: List[Path] = field(default_factory=list)
    removed_temp_files: List[Path] = field(default_factory=list)
    removed_dirs: List[Path] = field(default_factory=list)

    @property
    def removed_total(self) -> int:
        return (len(self.removed_stale) + len(self.removed_temp_files)
                + len(self.removed_dirs))

    def describe(self) -> str:
        verb = "would remove" if self.dry_run else "removed"
        return (f"{self.live} live entries kept; {verb} "
                f"{len(self.removed_stale)} stale entries, "
                f"{len(self.removed_temp_files)} temp files, "
                f"{len(self.removed_dirs)} empty shard dirs")


@dataclass
class MergeReport:
    """What one :meth:`ResultStore.merge_from` pass did (paths listed
    for auditing / ``--dry-run``), in the :class:`GcReport` mold.

    ``conflicts`` is the audit that makes merging safe: two stores
    holding the *same digest* with *different* results mean one of them
    was produced by divergent simulator code (a digest collision by
    construction cannot happen otherwise) — those entries are never
    copied, and the CLI exits non-zero.
    """

    dry_run: bool = False
    source: str = ""
    merged: List[Path] = field(default_factory=list)
    upgraded: List[Path] = field(default_factory=list)
    already_present: int = 0
    replaced_torn: List[Path] = field(default_factory=list)
    skipped_unreadable: List[Path] = field(default_factory=list)
    conflicts: List[str] = field(default_factory=list)

    @property
    def copied_total(self) -> int:
        return (len(self.merged) + len(self.upgraded)
                + len(self.replaced_torn))

    def describe(self) -> str:
        verb = "would copy" if self.dry_run else "copied"
        line = (f"{verb} {len(self.merged)} new entries from "
                f"{self.source or 'source'} ({len(self.upgraded)} "
                f"archival entries upgraded with samples, "
                f"{len(self.replaced_torn)} torn destination entries "
                f"replaced); {self.already_present} already present, "
                f"{len(self.skipped_unreadable)} unreadable source "
                f"entries skipped")
        if self.conflicts:
            line += (f"; {len(self.conflicts)} CONFLICTS "
                     f"(same digest, different result) left uncopied")
        return line


#: What reading an entry raises when it cannot be served: a missing
#: file, a torn frame, stats that do not load, an unknown model.
_UNREADABLE = (OSError, ReproError, KeyError, TypeError, ValueError)


def _entry_slots(entry: Any) -> List[Any]:
    """The frame slots of a store entry: its one stats dict."""
    return [entry.get("stats") if isinstance(entry, dict) else None]


def _decode(blob: bytes) -> Tuple[Dict[str, Any], SimStats]:
    """One entry file's bytes → its header (the samples a view into
    ``blob``) and its stats; raises one of :data:`_UNREADABLE`."""
    entry = unpack_frame(blob, json.loads, _entry_slots)
    return entry, SimStats.from_dict(entry["stats"])


def _same_result(ours: Dict[str, Any], theirs: Dict[str, Any]) -> bool:
    """Whether two decoded entries of one digest store the same result.

    Every field but the samples must match, and two entries with
    samples must hold the same sample bytes.  An archival entry (no
    samples, a latency summary) and an entry with samples are the same
    result exactly when the summary is that of the samples.
    """
    a, b = ours["stats"]["latencies_ns"], theirs["stats"]["latencies_ns"]
    skip = {"latencies_ns"}
    if bool(a.size) == bool(b.size):
        same = a.tobytes() == b.tobytes()
    else:
        skip.add("latency_summary")
        archival, samples = (ours, b) if b.size else (theirs, a)
        same = archival["stats"].get("latency_summary") \
            == summarize_latencies(samples)
    rest = [{**entry, "stats": {key: value
                                for key, value in entry["stats"].items()
                                if key not in skip}}
            for entry in (ours, theirs)]
    return same and rest[0] == rest[1]


class ResultStore:
    """On-disk result store: one ``directory/cells/<ab>/<digest>.cell``
    frame per cell (see :meth:`put`), and ``store.json``.

    * **Content-addressed** — the filename is :func:`task_digest`, so a
      lookup is one ``open``, whose bytes the samples are viewed in;
      stale results (changed device/workload models) simply stop being
      addressed.
    * **Atomic** — each entry is written to a staging file with one
      ``os.writev`` and ``os.replace``d into place; readers never
      observe a torn entry, and an interrupted sweep resumes from
      exactly the cells that completed.
    * **Self-describing** — each entry carries the task parameters and
      fingerprints alongside the serialized stats, so a store can be
      exported or audited without recomputing digests.

    **Concurrency contract.**  A store directory may be shared by any
    number of readers and writers (sweep workers, the evaluation
    server's I/O threads, rsync'd peers) without external locking:

    * writes stage into a sibling temp file and ``os.replace`` into
      place, so a reader observes either no entry or a complete one —
      never a torn file;
    * concurrent ``put`` of the same digest is benign: the digest pins
      the task *and* model fingerprints, evaluation is deterministic,
      so both writers rename identical bytes and either rename winning
      leaves a valid entry;
    * entries vanishing mid-read (a concurrent invalidation or GC) are
      reported as misses, not raised.

    Files of the older two-file layout (``<digest>.json`` plus a
    ``.lat`` sidecar) are never read; :meth:`gc` removes them.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.cells_dir = self.root / "cells"
        self.cells_dir.mkdir(parents=True, exist_ok=True)
        self._check_meta()

    @classmethod
    def existing(cls, root: Union[str, Path]) -> "ResultStore":
        """Open a store that must already exist (``gc``, a merge
        source): a path without ``store.json`` raises
        :class:`SimulationError`, and nothing is created."""
        if not (Path(root) / "store.json").is_file():
            raise SimulationError(f"no result store at {str(root)!r} "
                                  f"(it has no store.json)")
        return cls(root)

    def _check_meta(self) -> None:
        meta_path = self.root / "store.json"
        if meta_path.exists():
            try:
                meta = json.loads(meta_path.read_text())
            except json.JSONDecodeError:
                raise SimulationError(
                    f"corrupt store metadata: {meta_path}") from None
            if meta.get("schema") != STORE_SCHEMA_VERSION:
                raise SimulationError(
                    f"store {self.root} has schema {meta.get('schema')!r}; "
                    f"this build writes schema {STORE_SCHEMA_VERSION}")
        else:
            _write_atomic(meta_path, [json.dumps(
                {"schema": STORE_SCHEMA_VERSION,
                 "format": "repro.sim result store"}).encode("utf-8")])

    # -- addressing ---------------------------------------------------------

    def path_for(self, task: EvalTask) -> Path:
        return self._digest_path(task_digest(task))

    def _digest_path(self, digest: str) -> Path:
        return self.cells_dir / digest[:2] / f"{digest}{ENTRY_SUFFIX}"

    def _entry_paths(self) -> List[Path]:
        return sorted(self.cells_dir.glob(f"*/*{ENTRY_SUFFIX}"))

    # -- read/write ---------------------------------------------------------

    def get(self, task: EvalTask) -> Optional[SimStats]:
        """Stored stats for a task, or ``None`` (miss / unreadable)."""
        try:
            return _decode(self.path_for(task).read_bytes())[1]
        except _UNREADABLE:
            # Unreadable entries — torn by a crashed writer, deleted by
            # a concurrent GC, or plain missing — are treated as misses
            # and recomputed (the subsequent put overwrites atomically).
            return None

    def get_many(self, tasks: Sequence[EvalTask]) \
            -> Dict[EvalTask, Optional[SimStats]]:
        """Batch lookup: ``{task: stats-or-None}`` for every task.

        One digest computation + one read per *distinct* task (duplicate
        tasks in the input are resolved once); the read-through path of
        the evaluation engine and server.
        """
        resolved: Dict[EvalTask, Optional[SimStats]] = {}
        for task in tasks:
            if task not in resolved:
                resolved[task] = self.get(task)
        return resolved

    def put(self, task: EvalTask, stats: SimStats,
            latencies: bool = True) -> str:
        """Persist one cell atomically; returns its digest.

        The entry is a frame: a JSON header line (task, fingerprints,
        stats) padded to 8 bytes, then the per-request samples packed.
        With ``latencies=False`` it is archival, the header line alone,
        whose stats carry a fixed-bin latency summary (exact
        count/mean/min/max plus a log-spaced histogram) instead, so it
        still answers mean/percentile/max queries on reload.  An entry
        with samples stores no summary.  Stats without samples (an
        archival entry read back, a trimmed wire reply) are stored
        archival whatever ``latencies`` says, so their summary survives.
        """
        digest = task_digest(task)
        with_samples = latencies and stats.latencies_ns.size > 0
        entry = {
            "schema": STORE_SCHEMA_VERSION,
            "digest": digest,
            "task": dataclasses.asdict(task),
            "device_fingerprint": device_fingerprint(task.architecture),
            "workload_fingerprint": workload_fingerprint(task.workload),
            "stats": stats.to_dict(latencies=with_samples, as_list=False),
        }
        _write_atomic(self._digest_path(digest),
                      pack_frame(entry, json.dumps))
        return digest

    def __contains__(self, task: EvalTask) -> bool:
        return self.path_for(task).exists()

    def __len__(self) -> int:
        return len(self._entry_paths())

    def entries(self) -> Iterator[Tuple[EvalTask, SimStats]]:
        """Iterate every readable stored cell (digest order)."""
        for path in self._entry_paths():
            try:
                entry, stats = _decode(path.read_bytes())
                task = EvalTask(**entry["task"])
            except _UNREADABLE:
                # Same rule as get(): entries torn or concurrently
                # removed are skipped, not raised.
                continue
            yield task, stats

    # -- garbage collection -------------------------------------------------

    def gc(self, dry_run: bool = False) -> "GcReport":
        """Prune everything the store can no longer serve.

        Stale results are invisible to ``get`` (the digest stops being
        addressed) but were never *deleted*, so a long-lived store grows
        without bound across model edits.  ``gc`` removes as stale the
        entries whose digest no longer matches the current
        :func:`task_digest` of their recorded task (a changed device or
        workload fingerprint, a bumped :data:`RESULTS_VERSION`, a model
        that no longer exists), the entries ``get`` cannot read (a torn
        frame, stats that do not load) and the files of the older
        two-file layout; and as temp files, the staging files of
        writers that died before their atomic rename.

        Live entries are untouched and byte-identical afterwards.
        ``dry_run`` reports what would be removed without deleting.
        Like every store operation, concurrent readers are safe (a
        vanished entry is a miss); run it without concurrent *writers*,
        whose in-flight temp files would look abandoned.
        """
        report = GcReport(dry_run=dry_run)
        # Only the staging files of what this store writes — never
        # unrelated hidden files a user or NFS put beside the store
        # (.gitignore, .notes.json.bak, .nfsXXXX silly-renames of open
        # handles).
        doomed = [(path, report.removed_temp_files)
                  for path in self.root.glob(".*")
                  if _ROOT_STAGING.fullmatch(path.name)]
        for path in sorted(self.cells_dir.glob("*/*")):
            if _SHARD_STAGING.fullmatch(path.name):
                doomed.append((path, report.removed_temp_files))
            elif path.suffix == ENTRY_SUFFIX and self._is_live(path):
                report.live += 1
            elif path.suffix == ENTRY_SUFFIX \
                    or _OLD_LAYOUT.fullmatch(path.name):
                doomed.append((path, report.removed_stale))
        for path, removed in sorted(doomed):
            if path.is_file():
                removed.append(path)
                if not dry_run:
                    path.unlink(missing_ok=True)
        return report

    @staticmethod
    def _is_live(path: Path) -> bool:
        """Whether ``get`` can serve this entry again: it reads, and
        its recorded task still digests to its name."""
        try:
            entry, _ = _decode(path.read_bytes())
            return task_digest(EvalTask(**entry["task"])) == path.stem
        except _UNREADABLE:
            # Unreadable, mis-shaped, or addressing a model this build
            # no longer knows: nothing can ever serve it again.
            return False

    def compact(self, dry_run: bool = False) -> "GcReport":
        """:meth:`gc`, then drop shard directories gc left empty."""
        report = self.gc(dry_run=dry_run)
        doomed = set(report.removed_stale + report.removed_temp_files)
        for shard in sorted(self.cells_dir.iterdir()):
            if not shard.is_dir():
                continue
            try:
                empty = not any(p for p in shard.iterdir()
                                if p not in doomed)
            except OSError:
                continue
            if empty:
                report.removed_dirs.append(shard)
                if not dry_run:
                    try:
                        shard.rmdir()
                    except OSError:
                        # Concurrently repopulated — leave it.
                        report.removed_dirs.pop()
        return report

    # -- merging ------------------------------------------------------------

    def merge_from(self, source: Union["ResultStore", str, Path],
                   dry_run: bool = False) -> "MergeReport":
        """Fold another store's entries into this one, audited.

        The write-back half of a distributed sweep
        (:mod:`repro.sim.fabric`): each daemon accumulates results in
        its own ``--store``; this folds them back together.  File-level
        by digest filename — no device models are built, so stores can
        be merged on a machine that cannot even run the simulations.
        A source given as a path must already be a store
        (:meth:`existing`).

        Per source entry (one file copied, with the atomicity of
        ``put``):

        * digest absent here → copied (``merged``);
        * present with the same result (:func:`_same_result`) → skipped
          (``already_present``); if the source carries the samples our
          archival entry lacks, the richer entry wins (``upgraded``);
        * present but torn/unreadable here → replaced
          (``replaced_torn``);
        * present with a *different* result → **conflict**: never
          copied, listed in ``conflicts`` for the caller to refuse
          (same digest + different result means divergent simulator
          builds wrote the two stores);
        * unreadable or torn in the *source* → skipped and counted.

        ``dry_run`` reports without writing.  Safe against concurrent
        readers of this store (atomic replace); like ``gc``, do not run
        it against a store another process is actively writing.
        """
        if not isinstance(source, ResultStore):
            source = ResultStore.existing(source)
        report = MergeReport(dry_run=dry_run, source=str(source.root))
        for src_path in source._entry_paths():
            try:
                blob = src_path.read_bytes()
                src, _ = _decode(blob)
            except _UNREADABLE:
                report.skipped_unreadable.append(src_path)
                continue
            dst_path = self._digest_path(src_path.stem)
            try:
                dst, _ = _decode(dst_path.read_bytes())
            except FileNotFoundError:
                report.merged.append(dst_path)
            except _UNREADABLE:
                report.replaced_torn.append(dst_path)
            else:
                if not _same_result(src, dst):
                    report.conflicts.append(src_path.stem)
                    continue
                if (not src["stats"]["latencies_ns"].size
                        or dst["stats"]["latencies_ns"].size):
                    report.already_present += 1
                    continue
                # Same result, but the source carries the per-request
                # samples our archival entry dropped: take the richer
                # one.
                report.upgraded.append(dst_path)
            if not dry_run:
                _write_atomic(dst_path, [blob])
        return report
