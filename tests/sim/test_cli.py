"""Command-line runner (python -m repro.sim)."""

import json
import tempfile

import pytest

from repro.errors import SimulationError
from repro.sim.__main__ import build_parser, main
from repro.sim.trace import TraceWriter
from repro.sim.tracegen import generate_trace


class TestParser:
    def test_requires_arch(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--workload", "mcf"])

    def test_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--arch", "COMET"])

    def test_workload_and_trace_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["--arch", "COMET", "--workload", "mcf", "--trace", "x"])


class TestRuns:
    def test_synthetic_workload_run(self, capsys):
        code = main(["--arch", "COMET", "--workload", "gcc",
                     "--requests", "800"])
        assert code == 0
        out = capsys.readouterr().out
        assert "bandwidth" in out
        assert "COMET" in out

    def test_trace_file_run(self, capsys):
        trace = generate_trace("mcf", 500)
        with tempfile.NamedTemporaryFile("w+", suffix=".nvt",
                                         delete=False) as handle:
            path = handle.name
        TraceWriter(path).write(trace)
        code = main(["--arch", "2D_DDR3", "--trace", path])
        assert code == 0
        out = capsys.readouterr().out
        assert "row hit rate" in out

    def test_gated_vs_dram_output_fields(self, capsys):
        main(["--arch", "EPCM-MM", "--workload", "omnetpp",
              "--requests", "500"])
        out = capsys.readouterr().out
        assert "EPB" in out and "p95" in out


class TestGridMode:
    def test_grid_all_architectures(self, capsys):
        code = main(["--arch", "ALL", "--grid", "--requests", "400",
                     "--workloads", "gcc,bursty", "--workers", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "7 architectures x 2 workloads" in out
        assert "COMET" in out and "2D_DDR3" in out

    def test_profile_reports_device_build_phase(self, capsys):
        code = main(["--arch", "ALL", "--grid", "--requests", "200",
                     "--workloads", "gcc", "--workers", "1", "--profile"])
        assert code == 0
        out = capsys.readouterr().out
        for row in ("trace fetch  :", "device build :", "simulate     :",
                    "store I/O    :"):
            assert row in out

    def test_all_requires_grid(self):
        with pytest.raises(SystemExit):
            main(["--arch", "ALL", "--workload", "mcf"])

    def test_grid_options_rejected_without_grid(self):
        with pytest.raises(SystemExit):
            main(["--arch", "COMET", "--workload", "mcf", "--workers", "4"])
        with pytest.raises(SystemExit):
            main(["--arch", "COMET", "--workload", "mcf",
                  "--workloads", "all"])

    def test_grid_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["--arch", "COMET", "--grid", "--workloads", "mcf,bogus"])

    def test_new_workloads_run(self, capsys):
        code = main(["--arch", "EPCM-MM", "--workload", "checkpoint",
                     "--requests", "600"])
        assert code == 0
        assert "checkpoint" in capsys.readouterr().out


class TestStoreAndExport:
    GRID = ["--arch", "EPCM-MM", "--grid", "--workloads", "gcc,bursty",
            "--requests", "300"]

    def test_store_then_resume_serves_cached_cells(self, capsys, tmp_path):
        store_dir = str(tmp_path / "grid-store")
        assert main(self.GRID + ["--store", store_dir]) == 0
        cold = capsys.readouterr().out
        assert "0 cached, 2 computed" in cold

        assert main(self.GRID + ["--store", store_dir, "--resume"]) == 0
        warm = capsys.readouterr().out
        assert "2 cached, 0 computed" in warm
        # Identical table modulo the store provenance line.
        def strip(out):
            return [line for line in out.splitlines()
                    if not line.startswith("store")]
        assert strip(warm) == strip(cold)

    def test_export_csv_to_file(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        code = main(self.GRID + ["--export", "csv",
                                 "--export-path", str(path)])
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3      # header + 2 cells
        assert lines[0].startswith("architecture,workload,num_requests")

    def test_export_json_to_stdout_is_pure(self, capsys):
        """Exporting to stdout keeps it machine-readable: the whole
        stream parses as JSON, the table goes to stderr."""
        code = main(self.GRID + ["--export", "json"])
        assert code == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert [row["workload"] for row in payload] == ["gcc", "bursty"]
        assert "BW (GB/s)" in captured.err

    def test_cell_failure_reports_resume_hint(self, capsys, tmp_path,
                                              monkeypatch):
        """A runtime cell failure is not a usage error: exit 1, the
        annotated cell message, and the --resume pointer."""
        from repro.sim import engine as engine_mod

        def explode(task):
            raise SimulationError("device model diverged")

        monkeypatch.setattr(engine_mod, "evaluate_cell", explode)
        code = main(self.GRID + ["--store", str(tmp_path / "s")])
        assert code == 1
        err = capsys.readouterr().err
        assert "usage:" not in err
        assert "EPCM-MM x gcc" in err
        assert "rerun with --resume" in err

    def test_resume_requires_store(self):
        with pytest.raises(SystemExit):
            main(self.GRID + ["--resume"])

    def test_unwritable_export_path_fails_before_the_sweep(
            self, capsys, tmp_path, monkeypatch):
        """A bad --export-path must be rejected up front, not after the
        whole grid has been computed and is about to be discarded."""
        from repro.sim import sweep as sweep_mod

        def never(*args, **kwargs):
            pytest.fail("sweep ran despite unwritable export path")

        monkeypatch.setattr(sweep_mod, "run_sweep", never)
        with pytest.raises(SystemExit):
            main(self.GRID + ["--export", "csv", "--export-path",
                              str(tmp_path / "missing" / "out.csv")])
        assert "cannot write --export-path" in capsys.readouterr().err

    def test_failed_run_preserves_existing_export(self, tmp_path,
                                                  monkeypatch):
        """An interrupted/failed sweep must not truncate yesterday's
        export file, and must not leave temp litter behind."""
        from repro.sim import sweep as sweep_mod
        target = tmp_path / "fig9.csv"
        target.write_text("yesterday's rows\n")

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(sweep_mod, "run_sweep", interrupted)
        code = main(self.GRID + ["--export", "csv",
                                 "--export-path", str(target)])
        assert code == 130
        assert target.read_text() == "yesterday's rows\n"
        assert list(tmp_path.iterdir()) == [target]   # no temp litter

    def test_export_path_requires_export(self):
        with pytest.raises(SystemExit):
            main(self.GRID + ["--export-path", "out.csv"])

    def test_export_path_directory_rejected_up_front(self, capsys,
                                                     tmp_path, monkeypatch):
        from repro.sim import sweep as sweep_mod

        def never(*args, **kwargs):
            pytest.fail("sweep ran despite directory export path")

        monkeypatch.setattr(sweep_mod, "run_sweep", never)
        with pytest.raises(SystemExit):
            main(self.GRID + ["--export", "csv",
                              "--export-path", str(tmp_path)])
        assert "is a directory" in capsys.readouterr().err

    def test_bad_workers_is_a_usage_error_not_a_runtime_one(
            self, capsys, tmp_path):
        """Argument problems must not print the misleading
        'rerun with --resume' runtime hint."""
        with pytest.raises(SystemExit):
            main(self.GRID + ["--workers", "-1",
                              "--store", str(tmp_path / "s")])
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "--resume to continue" not in err

    def test_disk_failure_mid_sweep_reports_resume_hint(
            self, capsys, tmp_path, monkeypatch):
        """An OSError from checkpointing (disk full) gets the same
        friendly runtime-error + resume message as a cell failure."""
        from repro.sim.store import ResultStore

        def full_disk(self, task, stats, latencies=True):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(ResultStore, "put", full_disk)
        code = main(self.GRID + ["--store", str(tmp_path / "s")])
        assert code == 1
        err = capsys.readouterr().err
        assert "No space left" in err
        assert "rerun with --resume" in err

    def test_unusable_store_path_is_a_clean_error(self, capsys, tmp_path):
        """A file in the store's place errors like any bad argument,
        not a raw OSError traceback."""
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        with pytest.raises(SystemExit):
            main(self.GRID + ["--store", str(blocker)])
        assert "unusable" in capsys.readouterr().err

    def test_interrupt_exits_gracefully(self, capsys, tmp_path,
                                        monkeypatch):
        from repro.sim import sweep as sweep_mod

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(sweep_mod, "run_sweep", interrupted)
        code = main(self.GRID + ["--store", str(tmp_path / "s")])
        assert code == 130
        err = capsys.readouterr().err
        assert "rerun with --resume" in err

    def test_store_and_export_require_grid(self):
        with pytest.raises(SystemExit):
            main(["--arch", "COMET", "--workload", "mcf",
                  "--store", "somewhere"])
        with pytest.raises(SystemExit):
            main(["--arch", "COMET", "--workload", "mcf",
                  "--export", "csv"])
