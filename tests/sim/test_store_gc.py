"""Store garbage collection: stale entries, old-layout files, temp
files, CLI.

The regression behind these tests: stale entries (old ``RESULTS_VERSION``
or fingerprint mismatches) were silently treated as misses but never
deleted, so stores grew without bound across model edits.
"""

import json

import pytest

from repro.errors import SimulationError
from repro.sim.engine import EvalTask, evaluate_cell
from repro.sim import store as store_mod
from repro.sim.store import ResultStore
from repro.sim.sweep import SweepSpec, run_sweep

TASK_A = EvalTask("EPCM-MM", "gcc", 300, 7)
TASK_B = EvalTask("2D_DDR3", "gcc", 300, 7)


@pytest.fixture(autouse=True)
def fresh_caches():
    """Fingerprints/digests are memoized per process; clear around each
    test so monkeypatched fingerprints take effect and never leak."""
    store_mod.clear_fingerprint_cache()
    yield
    store_mod.clear_fingerprint_cache()


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "results")


def _populate(store):
    for task in (TASK_A, TASK_B):
        store.put(task, evaluate_cell(task))


class TestGc:
    def test_fresh_store_is_all_live(self, store):
        _populate(store)
        report = store.gc()
        assert report.live == 2
        assert report.removed_total == 0
        assert store.get(TASK_A) is not None
        assert store.get(TASK_B) is not None

    def test_model_edit_then_gc_shrinks_to_live_cells(self, store,
                                                      monkeypatch):
        """The headline regression: after a device-model edit the old
        cells are unreachable; gc must remove exactly them."""
        _populate(store)
        stale_path = store.path_for(TASK_A)

        # "Edit" the EPCM device model: its fingerprint changes, the
        # 2D_DDR3 model is untouched.
        real_fingerprint = store_mod.device_fingerprint

        def edited(architecture):
            if architecture == "EPCM-MM":
                return "e" * 64
            return real_fingerprint(architecture)

        monkeypatch.setattr(store_mod, "device_fingerprint", edited)
        store_mod.clear_fingerprint_cache()

        assert store.get(TASK_A) is None        # miss, but still on disk
        assert stale_path.exists()
        store.put(TASK_A, evaluate_cell(TASK_A))  # recompute under new model
        assert len(store) == 3                  # unbounded-growth symptom

        report = store.gc()
        assert [p.name for p in report.removed_stale] == [stale_path.name]
        assert report.live == 2
        assert len(store) == 2                  # exactly the live cells
        assert store.get(TASK_A) is not None
        assert store.get(TASK_B) is not None
        assert not stale_path.exists()

    def test_results_version_bump_orphans_everything(self, store,
                                                     monkeypatch):
        _populate(store)
        monkeypatch.setattr(store_mod, "RESULTS_VERSION",
                            store_mod.RESULTS_VERSION + 1)
        store_mod.clear_fingerprint_cache()
        report = store.gc()
        assert report.live == 0
        assert len(report.removed_stale) == 2
        assert len(store) == 0

    def test_unknown_architecture_entry_is_stale(self, store, edit_entry):
        """An entry naming a model this build no longer knows can never
        be served again — gc removes it instead of crashing."""
        _populate(store)
        path = store.path_for(TASK_A)
        fake = path.parent / ("0" * 64 + ".cell")
        fake.write_bytes(path.read_bytes())
        edit_entry(fake, lambda entry: entry["task"].update(
            architecture="RETIRED-ARCH"))
        report = store.gc()
        assert fake in report.removed_stale
        assert report.live == 2

    def test_old_layout_and_temp_files_removed(self, store):
        """The older two-file layout's ``.json`` entries and ``.lat``
        sidecars are never read: gc removes them as stale, and the
        staging files of either layout as temp files."""
        _populate(store)
        shard = store.path_for(TASK_A).parent
        old = [shard / ("a" * 64 + ".json"), shard / ("a" * 64 + ".lat")]
        old[0].write_text("{}")
        old[1].write_bytes(b"\x00" * 24)
        temps = [shard / (".{}.json.stage123".format("b" * 64)),
                 shard / (".{}.cell.stage123".format("b" * 64))]
        for temp in temps:
            temp.write_bytes(b"{torn")
        report = store.gc()
        assert report.removed_stale == sorted(old)
        assert report.removed_temp_files == sorted(temps)
        assert not any(path.exists() for path in old + temps)
        assert report.live == 2

    def test_staging_files_of_every_writer_removed(self, store):
        """Staging files named by ``open_staging`` (entry, old-layout
        sidecar, metadata) and by the older ``NamedTemporaryFile``
        writer, which used random suffixes, are all abandoned temp
        files to gc."""
        _populate(store)
        entry = store.path_for(TASK_A)
        staged = []
        for target in (entry, entry.with_suffix(".lat"),
                       store.root / "store.json"):
            handle, temp = store_mod.open_staging(target)
            handle.close()
            staged.append(temp)
        old_style = entry.with_name(f".{entry.name}.k3x_9qzw")
        old_style.write_bytes(b"{torn")
        report = store.gc()
        assert sorted(report.removed_temp_files) \
            == sorted(staged + [old_style])
        assert report.live == 2

    def test_unrelated_hidden_files_survive(self, store):
        """gc must only touch the store's own staging pattern — never a
        user's dotfiles or NFS silly-rename files beside the entries,
        even when their names contain ``.json.``, ``.lat.`` or
        ``.cell.``."""
        _populate(store)
        shard = store.path_for(TASK_A).parent
        keep = [store.root / ".gitignore", shard / ".nfs000000123",
                store.root / ".DS_Store", store.root / ".notes.json.bak",
                shard / ".x.lat.orig", shard / ".x.cell.orig"]
        for path in keep:
            path.write_text("keep me")
        staged = store.root / (".store.json.stage1")
        staged.write_text("{torn")
        report = store.gc()
        assert report.removed_temp_files == [staged]
        assert all(path.exists() for path in keep)

    def test_torn_entry_removed(self, store):
        _populate(store)
        path = store.path_for(TASK_A)
        path.write_bytes(path.read_bytes()[:-8])
        report = store.gc()
        assert store.path_for(TASK_A) in report.removed_stale
        assert report.live == 1

    def test_dry_run_removes_nothing(self, store, monkeypatch):
        _populate(store)
        monkeypatch.setattr(store_mod, "device_fingerprint",
                            lambda arch: "d" * 64)
        store_mod.clear_fingerprint_cache()
        report = store.gc(dry_run=True)
        assert report.dry_run
        assert len(report.removed_stale) == 2
        assert len(store) == 2                   # still on disk
        assert "would remove" in report.describe()

    def test_live_entries_byte_identical_after_gc(self, store):
        _populate(store)
        before = store.path_for(TASK_A).read_bytes()
        store.gc()
        assert store.path_for(TASK_A).read_bytes() == before


class TestCompact:
    def test_compact_drops_emptied_shard_dirs(self, store, monkeypatch):
        _populate(store)
        shards_before = {p for p in store.cells_dir.iterdir() if p.is_dir()}
        monkeypatch.setattr(store_mod, "device_fingerprint",
                            lambda arch: "c" * 64)
        store_mod.clear_fingerprint_cache()
        report = store.compact()
        assert len(report.removed_stale) == 2
        assert set(report.removed_dirs) == shards_before
        assert not any(p.is_dir() for p in store.cells_dir.iterdir())

    def test_compact_keeps_live_shards(self, store):
        _populate(store)
        report = store.compact()
        assert report.removed_dirs == []
        assert store.get(TASK_A) is not None


class TestGcCli:
    def test_gc_subcommand(self, store, capsys):
        from repro.sim.__main__ import main

        _populate(store)
        sidecar = store.path_for(TASK_A).parent / ("f" * 64 + ".lat")
        sidecar.write_bytes(b"\x00" * 8)
        assert main(["gc", "--store", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert "2 live entries kept" in out
        assert "removed 1 stale entries" in out
        assert not sidecar.exists()

    def test_gc_dry_run_verbose(self, store, capsys):
        from repro.sim.__main__ import main

        _populate(store)
        orphan = store.path_for(TASK_A).parent / ("f" * 64 + ".lat")
        orphan.write_bytes(b"\x00" * 8)
        assert main(["gc", "--store", str(store.root), "--dry-run",
                     "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "would remove" in out
        assert str(orphan) in out
        assert orphan.exists()

    def test_gc_unusable_store_is_clean_exit(self, tmp_path, capsys):
        from repro.sim.__main__ import main

        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        assert main(["gc", "--store", str(blocker)]) == 2
        assert "unusable" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["missing/deep/store", "."])
    def test_gc_on_a_path_without_a_store_creates_nothing(
            self, tmp_path, capsys, where):
        from repro.sim.__main__ import main

        assert main(["gc", "--store", str(tmp_path / where)]) == 2
        err = capsys.readouterr().err
        assert "unusable" in err and "no result store" in err
        assert list(tmp_path.iterdir()) == []

    def test_merge_from_a_missing_source_creates_nothing(self, tmp_path,
                                                         capsys):
        from repro.sim.__main__ import merge_main

        missing = tmp_path / "missing" / "src"
        assert merge_main(["--into", str(tmp_path / "dst"),
                           str(missing)]) == 2
        assert "no result store" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(SimulationError, match="no result store"):
            ResultStore(tmp_path / "dst").merge_from(missing)
        assert not (tmp_path / "missing").exists()


class TestOldLayout:
    def test_a_store_of_the_older_layout_opens_misses_and_is_collected(
            self, tmp_path):
        """A store as the two-file layout wrote it — ``store.json``, a
        ``<digest>.json`` entry per cell beside a packed ``.lat``
        sidecar — opens, serves every cell as a miss that recomputes
        into the new layout, and gc removes the old files as stale."""
        root = tmp_path / "old"
        (root / "cells").mkdir(parents=True)
        (root / "store.json").write_text(json.dumps(
            {"schema": store_mod.STORE_SCHEMA_VERSION,
             "format": "repro.sim result store"}))
        for task in (TASK_A, TASK_B):
            stats = evaluate_cell(task)
            digest = store_mod.task_digest(task)
            shard = root / "cells" / digest[:2]
            shard.mkdir(exist_ok=True)
            (shard / f"{digest}.lat").write_bytes(
                stats.latencies_ns.astype("<f8").tobytes())
            (shard / f"{digest}.json").write_text(json.dumps({
                "schema": store_mod.STORE_SCHEMA_VERSION,
                "digest": digest,
                "task": {"architecture": task.architecture,
                         "workload": task.workload,
                         "num_requests": task.num_requests,
                         "seed": task.seed, "queue_depth": None},
                "stats": stats.to_dict(latencies=False),
                "latencies_count": len(stats.latencies_ns)}))
        old_files = sorted(path for path in (root / "cells").glob("*/*"))
        assert len(old_files) == 4

        store = ResultStore(root)
        assert len(store) == 0 and list(store.entries()) == []
        sweep = run_sweep(SweepSpec(architectures=("EPCM-MM", "2D_DDR3"),
                                    workloads=("gcc",), num_requests=(300,),
                                    seeds=(7,)),
                          store=store, resume=True)
        assert sweep.computed == 2 and sweep.store_hits == 0
        assert store.get(TASK_A) == evaluate_cell(TASK_A)
        report = store.gc()
        assert report.removed_stale == old_files
        assert report.live == 2
        assert sorted(path.suffix for path in (root / "cells").glob("*/*")) \
            == [".cell", ".cell"]
