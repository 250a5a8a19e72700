"""Persistent, content-addressed result store for evaluation grids.

Every grid cell (:class:`repro.sim.engine.EvalTask`) hashes to a stable
content digest covering the task parameters **and** fingerprints of the
device model and workload preset it would run, so results invalidate
automatically when a model changes — re-running after editing, say, the
COMET timing stack recomputes only the COMET cells.  The store itself is
a plain directory of JSON entries (one per digest, sharded by prefix)
with the bulky per-request latency samples in packed-float64 sidecars,
written atomically so an interrupted sweep never leaves a torn entry:
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
from .engine import EvalTask, TASK_FIELDS, clear_device_caches, device_for
from .stats import SimStats, pack_latencies, unpack_latencies
from .tracegen import get_workload

#: Bump when the digest payload or entry layout changes incompatibly;
#: stores written under another schema are rejected on open.
STORE_SCHEMA_VERSION = 1

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


def open_staging(target: Path, mode: str = "wb", **kwargs):
    """Create a ``.<target-name>.<suffix>`` staging file beside ``target``.

    The file is created ``O_EXCL`` with mode 0o666, so the kernel
    applies the process umask: reading the umask would mean setting it,
    process-wide, under every other thread.  The pid and thread id in
    the suffix keep concurrent writers apart.  Returns the open file and
    its path."""
    for attempt in itertools.count():
        temp = target.with_name(f".{target.name}.{os.getpid()}-"
                                f"{threading.get_ident()}-{attempt}")
        try:
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            continue    # left behind by a dead writer with these ids
        return os.fdopen(fd, mode, **kwargs), temp


#: :func:`open_staging`'s ``.<target>.<suffix>`` names, matched on the
#: target: the metadata file in the store root, an entry or sidecar in
#: a shard.  Any suffix matches (older builds staged through
#: ``NamedTemporaryFile``, with random ones).
_ROOT_STAGING = re.compile(r"\.store\.json\..+")
_SHARD_STAGING = re.compile(r"\.[0-9a-f]{64}\.(?:json|lat)\..+")


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
    removed_sidecars: List[Path] = field(default_factory=list)
    removed_temp_files: List[Path] = field(default_factory=list)
    removed_dirs: List[Path] = field(default_factory=list)

    @property
    def removed_total(self) -> int:
        return (len(self.removed_stale) + len(self.removed_sidecars)
                + len(self.removed_temp_files) + len(self.removed_dirs))

    def describe(self) -> str:
        verb = "would remove" if self.dry_run else "removed"
        return (f"{self.live} live entries kept; {verb} "
                f"{len(self.removed_stale)} stale entries, "
                f"{len(self.removed_sidecars)} orphaned sidecars, "
                f"{len(self.removed_temp_files)} temp files, "
                f"{len(self.removed_dirs)} empty shard dirs")


@dataclass
class MergeReport:
    """What one :meth:`ResultStore.merge_from` pass did (paths listed
    for auditing / ``--dry-run``), in the :class:`GcReport` mold.

    ``conflicts`` is the audit that makes merging safe: two stores
    holding the *same digest* with *different* task/stats payloads mean
    one of them was produced by divergent simulator code (a digest
    collision by construction cannot happen otherwise) — those entries
    are never copied, and the CLI exits non-zero.
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
                f"archival entries upgraded with latency sidecars, "
                f"{len(self.replaced_torn)} torn destination entries "
                f"replaced); {self.already_present} already present, "
                f"{len(self.skipped_unreadable)} unreadable source "
                f"entries skipped")
        if self.conflicts:
            line += (f"; {len(self.conflicts)} CONFLICTS "
                     f"(same digest, different payload) left uncopied")
        return line


class ResultStore:
    """On-disk result store: ``directory/cells/<ab>/<digest>.json``
    entries plus ``<digest>.lat`` packed-latency sidecars.

    * **Content-addressed** — the filename is :func:`task_digest`, so a
      lookup is one ``open``; stale results (changed device/workload
      models) simply stop being addressed.
    * **Atomic** — entries are written to a temp file and ``os.replace``d
      into place, sidecar before entry; readers never observe a torn
      entry, and an interrupted sweep resumes from exactly the cells
      that completed.
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
      leaves a valid entry (sidecars are written before the entry that
      references them);
    * entries vanishing mid-read (a concurrent invalidation or GC) are
      reported as misses, not raised.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.cells_dir = self.root / "cells"
        self.cells_dir.mkdir(parents=True, exist_ok=True)
        self._check_meta()

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
            self._atomic_write(
                meta_path, {"schema": STORE_SCHEMA_VERSION,
                            "format": "repro.sim result store"})

    # -- addressing ---------------------------------------------------------

    def path_for(self, task: EvalTask) -> Path:
        return self._digest_path(task_digest(task))

    def _digest_path(self, digest: str) -> Path:
        return self.cells_dir / digest[:2] / f"{digest}.json"

    # -- read/write ---------------------------------------------------------

    def get(self, task: EvalTask) -> Optional[SimStats]:
        """Stored stats for a task, or ``None`` (miss / unreadable)."""
        path = self.path_for(task)
        try:
            return self._entry_stats(json.loads(path.read_text()), path)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError,
                SimulationError, OSError):
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

        Every entry carries a fixed-bin latency summary (exact
        count/mean/min/max plus a log-spaced histogram) in its JSON, so
        ``latencies=False`` archival entries — which skip the bulky
        per-request sidecar — still answer mean/percentile/max queries
        on reload instead of degrading to NaN columns.  Stats without
        samples (an archival entry read back, a trimmed wire reply) are
        stored archival whatever ``latencies`` says: there is nothing to
        put in a sidecar, and their summary must survive the re-put.
        """
        digest = task_digest(task)
        path = self._digest_path(digest)
        entry = {
            "schema": STORE_SCHEMA_VERSION,
            "digest": digest,
            "task": dataclasses.asdict(task),
            "device_fingerprint": device_fingerprint(task.architecture),
            "workload_fingerprint": workload_fingerprint(task.workload),
            "stats": stats.to_dict(latencies=False),
        }
        with_samples = latencies and stats.latencies_ns.size > 0
        if with_samples:
            # Sidecar before entry: an entry that names a latency count
            # always finds complete bytes beside it.
            entry["latencies_count"] = len(stats.latencies_ns)
            self._atomic_write_bytes(self._sidecar_path(path),
                                     pack_latencies(stats.latencies_ns))
        self._atomic_write(path, entry)
        if not with_samples:
            # Re-putting a cell in archival mode must actually reclaim
            # the bulky sidecar; the new entry no longer references it.
            self._sidecar_path(path).unlink(missing_ok=True)
        return digest

    def __contains__(self, task: EvalTask) -> bool:
        return self.path_for(task).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.cells_dir.glob("*/*.json"))

    def entries(self) -> Iterator[Tuple[EvalTask, SimStats]]:
        """Iterate every readable stored cell (digest order)."""
        for path in sorted(self.cells_dir.glob("*/*.json")):
            try:
                entry = json.loads(path.read_text())
                task = EvalTask(**entry["task"])
                yield task, self._entry_stats(entry, path)
            except (json.JSONDecodeError, KeyError, TypeError, ValueError,
                    SimulationError, OSError):
                # Same rule as get(): entries torn or concurrently
                # removed are skipped, not raised.
                continue

    # -- garbage collection -------------------------------------------------

    def gc(self, dry_run: bool = False) -> "GcReport":
        """Prune everything the store can no longer serve.

        Stale results are invisible to ``get`` (the digest stops being
        addressed) but were never *deleted*, so a long-lived store grows
        without bound across model edits.  ``gc`` removes:

        * entries whose digest no longer matches the current
          :func:`task_digest` of their recorded task — a changed device
          or workload fingerprint, a bumped :data:`RESULTS_VERSION`, or
          a task naming a model that no longer exists;
        * unreadable entries (torn JSON, missing or size-mismatched
          latency sidecars — anything ``get`` would report as a miss);
        * latency sidecars no live entry references (crashed archival
          re-puts, removed entries);
        * staging temp files left behind by writers that died before
          their atomic rename.

        Live entries are untouched and byte-identical afterwards.
        ``dry_run`` reports what would be removed without deleting.
        Like every store operation, concurrent readers are safe (a
        vanished entry is a miss); run it without concurrent *writers*,
        whose in-flight temp files would look abandoned.
        """
        report = GcReport(dry_run=dry_run)
        # One parse per entry: liveness and whether it references its
        # sidecar are decided together, so the orphan pass below never
        # re-reads entry JSON.
        wants_sidecar: Dict[Path, bool] = {}
        removed_sidecars: set = set()
        for path in sorted(self.cells_dir.glob("*/*.json")):
            references = self._entry_is_live(path)
            if references is not None:
                wants_sidecar[path] = references
                report.live += 1
            else:
                report.removed_stale.append(path)
                if not dry_run:
                    path.unlink(missing_ok=True)
                sidecar = self._sidecar_path(path)
                if sidecar.exists():
                    removed_sidecars.add(sidecar)
                    if not dry_run:
                        sidecar.unlink(missing_ok=True)
        for sidecar in sorted(self.cells_dir.glob("*/*.lat")):
            if sidecar in removed_sidecars:
                continue
            if not wants_sidecar.get(sidecar.with_suffix(".json"), False):
                removed_sidecars.add(sidecar)
                if not dry_run:
                    sidecar.unlink(missing_ok=True)
        report.removed_sidecars = sorted(removed_sidecars)
        # Only the staging files of what this store writes — never
        # unrelated hidden files a user or NFS put beside the store
        # (.gitignore, .notes.json.bak, .nfsXXXX silly-renames of open
        # handles).
        candidates = [p for p in self.root.glob(".*")
                      if _ROOT_STAGING.fullmatch(p.name)] \
            + [p for p in self.cells_dir.glob("*/.*")
               if _SHARD_STAGING.fullmatch(p.name)]
        for temp in sorted(candidates):
            if temp.is_file():
                report.removed_temp_files.append(temp)
                if not dry_run:
                    temp.unlink(missing_ok=True)
        return report

    def compact(self, dry_run: bool = False) -> "GcReport":
        """:meth:`gc`, then drop shard directories gc left empty."""
        report = self.gc(dry_run=dry_run)
        for shard in sorted(self.cells_dir.iterdir()):
            if not shard.is_dir():
                continue
            doomed = {p for p in (report.removed_stale
                                  + report.removed_sidecars
                                  + report.removed_temp_files)
                      if p.parent == shard}
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

        Per source entry (sidecar copied before entry, same atomicity
        as ``put``):

        * digest absent here → copied (``merged``);
        * present and byte-equivalent → skipped (``already_present``);
          if the source additionally carries latency samples our
          archival entry lacks, the richer entry wins (``upgraded``);
        * present but torn/unreadable here → replaced
          (``replaced_torn``);
        * present with a *different* task/stats payload → **conflict**:
          never copied, listed in ``conflicts`` for the caller to
          refuse (same digest + different payload means divergent
          simulator builds wrote the two stores);
        * unreadable or torn in the *source* → skipped and counted.

        ``dry_run`` reports without writing.  Safe against concurrent
        readers of this store (atomic replace); like ``gc``, do not run
        it against a store another process is actively writing.
        """
        if not isinstance(source, ResultStore):
            source = ResultStore(source)
        report = MergeReport(dry_run=dry_run, source=str(source.root))
        for src_path in sorted(source.cells_dir.glob("*/*.json")):
            digest = src_path.stem
            src = self._readable_entry(src_path)
            if src is None:
                report.skipped_unreadable.append(src_path)
                continue
            src_entry, src_blob = src
            dst_path = self._digest_path(digest)
            dst = self._readable_entry(dst_path) \
                if dst_path.exists() else None
            if dst is not None:
                dst_entry = dst[0]
                if (self._comparable(src_entry)
                        != self._comparable(dst_entry)):
                    report.conflicts.append(digest)
                    continue
                if (not src_entry.get("latencies_count")
                        or dst_entry.get("latencies_count")):
                    report.already_present += 1
                    continue
                # Same payload, but the source carries the per-request
                # sidecar our archival entry dropped: take the richer
                # one.
                report.upgraded.append(dst_path)
            elif dst_path.exists():
                report.replaced_torn.append(dst_path)
            else:
                report.merged.append(dst_path)
            if dry_run:
                continue
            count = src_entry.get("latencies_count")
            if count is not None:
                self._atomic_write_bytes(
                    self._sidecar_path(dst_path),
                    source._sidecar_path(src_path).read_bytes())
            self._atomic_write_bytes(dst_path, src_blob)
            if count is None:
                self._sidecar_path(dst_path).unlink(missing_ok=True)
        return report

    def _readable_entry(self, path: Path) \
            -> Optional[Tuple[Dict[str, Any], bytes]]:
        """Parsed entry + raw bytes, or ``None`` if torn/unreadable
        (mis-shaped JSON, or a latency sidecar missing/size-mismatched).
        """
        try:
            blob = path.read_bytes()
            entry = json.loads(blob)
            if (not isinstance(entry, dict)
                    or not isinstance(entry.get("task"), dict)
                    or "stats" not in entry):
                return None
            count = entry.get("latencies_count")
            if count is not None:
                sidecar = self._sidecar_path(path)
                if sidecar.stat().st_size != 8 * count:
                    return None
            return entry, blob
        except (OSError, json.JSONDecodeError, TypeError, ValueError):
            return None

    @staticmethod
    def _comparable(entry: Dict[str, Any]) -> Dict[str, Any]:
        """The digest-collision comparison payload: everything except
        the sidecar bookkeeping (an archival and a latency-bearing
        entry for the same cell are *equivalent*, not conflicting)."""
        return {key: value for key, value in entry.items()
                if key != "latencies_count"}

    def _entry_is_live(self, path: Path) -> Optional[bool]:
        """Liveness of one entry, decided in a single parse.

        ``None`` — dead: ``get`` could never serve it again (unreadable,
        mis-shaped, stale digest, torn sidecar).  Otherwise live, and
        the bool says whether the entry references a latency sidecar
        (``False`` = archival entry, its ``.lat`` is an orphan).
        """
        try:
            entry = json.loads(path.read_text())
            task_payload = entry["task"]
            if (not isinstance(task_payload, dict)
                    or set(task_payload) - set(TASK_FIELDS)):
                return None
            task = EvalTask(**task_payload)
            if task_digest(task) != path.stem:
                return None
            count = entry.get("latencies_count")
            if count is not None:
                sidecar = self._sidecar_path(path)
                if sidecar.stat().st_size != 8 * count:
                    return None
            return count is not None
        except (ReproError, OSError, json.JSONDecodeError, KeyError,
                TypeError, ValueError):
            # Unreadable, mis-shaped, or addressing a model this build
            # no longer knows: nothing can ever serve it again.
            return None

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _sidecar_path(entry_path: Path) -> Path:
        return entry_path.with_suffix(".lat")

    def _entry_stats(self, entry: Dict[str, Any], path: Path) -> SimStats:
        payload = entry["stats"]
        count = entry.get("latencies_count")
        if count is not None:
            blob = self._sidecar_path(path).read_bytes()
            if len(blob) != 8 * count:
                raise ValueError("torn latency sidecar")
            if count:
                # With the raw samples restored the fixed-bin summary is
                # redundant — drop it so a loaded entry compares equal to
                # a freshly computed one (the warm/cold bit-identity
                # pins).  A count of 0 restores nothing: keep the summary.
                payload = dict(payload,
                               latencies_ns=unpack_latencies(blob),
                               latency_summary=None)
        return SimStats.from_dict(payload)

    @classmethod
    def _atomic_write(cls, path: Path, payload: Dict[str, Any]) -> None:
        cls._atomic_write_bytes(path, json.dumps(payload).encode("utf-8"))

    @staticmethod
    def _atomic_write_bytes(path: Path, blob: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        # Umask-derived permissions keep the store rsync/NFS-shareable.
        handle, temp = open_staging(path)
        try:
            with handle:
                handle.write(blob)
            os.replace(temp, path)
        except BaseException:
            try:
                os.unlink(temp)
            except OSError:
                pass
            raise
