"""Store garbage collection: stale entries, orphans, temp files, CLI.

The regression behind these tests: stale entries (old ``RESULTS_VERSION``
or fingerprint mismatches) were silently treated as misses but never
deleted, so stores grew without bound across model edits.
"""

import json

import pytest

from repro.sim.engine import EvalTask, evaluate_cell
from repro.sim import store as store_mod
from repro.sim.store import ResultStore

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

    def test_unknown_architecture_entry_is_stale(self, store):
        """An entry naming a model this build no longer knows can never
        be served again — gc removes it instead of crashing."""
        _populate(store)
        path = store.path_for(TASK_A)
        entry = json.loads(path.read_text())
        entry["task"]["architecture"] = "RETIRED-ARCH"
        fake = path.parent / ("0" * 64 + ".json")
        fake.write_text(json.dumps(entry))
        report = store.gc()
        assert fake in report.removed_stale
        assert report.live == 2

    def test_orphaned_sidecar_and_temp_files_removed(self, store):
        _populate(store)
        shard = store.path_for(TASK_A).parent
        orphan = shard / ("a" * 64 + ".lat")
        orphan.write_bytes(b"\x00" * 24)
        temp = shard / (".{}.json.stage123".format("b" * 64))
        temp.write_bytes(b"{torn")
        report = store.gc()
        assert orphan in report.removed_sidecars
        assert temp in report.removed_temp_files
        assert not orphan.exists() and not temp.exists()
        assert report.live == 2

    def test_staging_files_of_every_writer_removed(self, store):
        """Staging files named by ``open_staging`` (entry, sidecar,
        metadata) and by the older ``NamedTemporaryFile`` writer, which
        used random suffixes, are all abandoned temp files to gc."""
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
        even when their names contain ``.json.`` or ``.lat.``."""
        _populate(store)
        shard = store.path_for(TASK_A).parent
        keep = [store.root / ".gitignore", shard / ".nfs000000123",
                store.root / ".DS_Store", store.root / ".notes.json.bak",
                shard / ".x.lat.orig"]
        for path in keep:
            path.write_text("keep me")
        staged = store.root / (".store.json.stage1")
        staged.write_text("{torn")
        report = store.gc()
        assert report.removed_temp_files == [staged]
        assert all(path.exists() for path in keep)

    def test_torn_sidecar_entry_removed(self, store):
        _populate(store)
        sidecar = store.path_for(TASK_A).with_suffix(".lat")
        sidecar.write_bytes(sidecar.read_bytes()[:-8])
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
        orphan = store.path_for(TASK_A).parent / ("f" * 64 + ".lat")
        orphan.write_bytes(b"\x00" * 8)
        assert main(["gc", "--store", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert "2 live entries kept" in out
        assert "1 orphaned sidecars" in out
        assert not orphan.exists()

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
