"""Experiment registry and the paper-shape assertions per artifact.

These are the reproduction's acceptance tests: each checks that a
regenerated figure/table has the qualitative shape the paper reports.
"""

import pytest

from repro.errors import ConfigError
from repro.exp import EXPERIMENTS, get_experiment, run_experiment
from repro.exp import fig2, fig3, fig4, fig6, fig7, fig8
from repro.device.programming import ProgrammingMode


class TestRegistry:
    def test_all_artifacts_registered(self):
        expected = {"fig2", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9",
                    "fig10", "table1", "table2", "headline", "reliability"}
        assert set(EXPERIMENTS) == expected

    def test_lookup_case_insensitive(self):
        assert get_experiment("FIG3").exp_id == "fig3"

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            get_experiment("fig99")

    def test_store_capable_experiments(self):
        """The grid-backed artifacts advertise the store/server
        substrate; closed-form ones don't."""
        capable = {exp_id for exp_id, e in EXPERIMENTS.items()
                   if e.store_capable}
        assert capable == {"fig9", "fig10", "headline"}

    def test_uniform_contract_ignores_unsupported_keywords(self):
        """A closed-form experiment accepts (and drops) the uniform
        store/server/num_requests keywords instead of raising."""
        result = get_experiment("table1").run(
            store="/nonexistent", server="http://127.0.0.1:1",
            num_requests=123)
        assert result.soa_interval_rows == 46

    def test_uniform_contract_forwards_num_requests(self):
        result = get_experiment("fig9").run(
            num_requests=150, workloads=["gcc"])
        any_stats = next(iter(result.results["COMET"].values()))
        assert any_stats.num_requests == 150

    def test_fig9_unusable_store_is_a_clean_exit(self, tmp_path, capsys):
        """$REPRO_RESULT_STORE pointing at a file must fail with a
        message, not a raw mkdir traceback."""
        from repro.exp import fig9
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        with pytest.raises(SystemExit):
            fig9.main(num_requests=100, store=str(blocker))
        assert "unusable" in capsys.readouterr().err

    def test_fig10_unusable_store_is_a_clean_exit(self, tmp_path, capsys):
        from repro.exp import fig10
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        with pytest.raises(SystemExit):
            fig10.main(num_requests=100, store=str(blocker))
        assert "unusable" in capsys.readouterr().err


class TestServerTransportErrors:
    """An unreachable $REPRO_EVAL_SERVER, or one the client refuses,
    must be the clean SystemExit(2) message, not a raw traceback."""

    @pytest.mark.parametrize("address", [
        "http://127.0.0.1:1",              # refused TCP connect
        "unix:///nonexistent/eval.sock",   # unsupported scheme, refused
    ])
    @pytest.mark.parametrize("figure", ["fig9", "fig10"])
    def test_unreachable_server_is_clean_exit(self, figure, address,
                                              capsys):
        from repro.exp import fig9, fig10
        module = {"fig9": fig9, "fig10": fig10}[figure]
        with pytest.raises(SystemExit) as exc:
            module.main(num_requests=50, server=address)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "evaluation server" in err and "failed" in err

    def test_fig9_raw_transport_error_is_clean_exit(self, monkeypatch,
                                                    capsys):
        """A ConnectionError escaping the client wrapper (daemon died
        mid-request) must not surface as a traceback."""
        from repro.exp import fig9

        def dead(tasks, address):
            raise ConnectionResetError("daemon died mid-request")

        monkeypatch.setattr(fig9, "evaluate_tasks_remote", dead)
        with pytest.raises(SystemExit) as exc:
            fig9.main(num_requests=50, server="http://127.0.0.1:59999")
        assert exc.value.code == 2
        assert "daemon died" in capsys.readouterr().err

    def test_fig10_raw_transport_error_is_clean_exit(self, monkeypatch,
                                                     capsys):
        import repro.sim.client as client
        from repro.exp import fig10

        def dead(tasks, address=None, latencies=True):
            raise ConnectionRefusedError("connection refused")

        monkeypatch.setattr(client, "evaluate_tasks_remote", dead)
        with pytest.raises(SystemExit) as exc:
            fig10.main(num_requests=50, server="http://127.0.0.1:59999")
        assert exc.value.code == 2
        assert "connection refused" in capsys.readouterr().err


class TestFig10Ratio:
    """Regression: unknown names raised a bare KeyError instead of the
    repo's ConfigError-with-choices convention."""

    @pytest.fixture(scope="class")
    def result(self):
        from repro.exp import fig10
        return fig10.run(num_requests=400)

    def test_unknown_model_raises_config_error(self, result):
        with pytest.raises(ConfigError, match="DeiT-T"):
            result.ratio("DeiT-XL", "3D_DDR4")

    def test_unknown_memory_raises_config_error(self, result):
        with pytest.raises(ConfigError, match="COSMOS"):
            result.ratio("DeiT-T", "HBM3")

    def test_known_pair_still_works(self, result):
        assert result.ratio("DeiT-T", "3D_DDR4") > 1.0


class TestFig2Shape:
    def test_crossbar_corrupts_comet_does_not(self):
        result = fig2.run()
        assert result.corrupted_cells > 100
        assert result.corrupted_fraction > 0.05
        assert result.comet_corrupted_cells == 0

    def test_shift_matches_section_ii_b(self):
        result = fig2.run()
        assert result.per_write_shift == pytest.approx(0.08, abs=0.01)


class TestFig3Shape:
    def test_gst_selected(self):
        result = fig3.run(points=4)
        assert result.selected_material == "GST"

    def test_gst_has_largest_index_gap(self):
        result = fig3.run(points=4)
        gaps = {}
        for name, states in result.series.items():
            gaps[name] = states["crystalline"][0][0] - states["amorphous"][0][0]
        assert gaps["GST"] > gaps["GSST"] > gaps["Sb2Se3"]


class TestFig4Shape:
    def test_selects_20nm_film(self):
        result = fig4.run(widths_nm=(480,), thicknesses_nm=(10, 20, 30))
        assert result.selected_thickness_nm == pytest.approx(20.0)

    def test_contrasts_jointly_high_at_star(self):
        result = fig4.run(widths_nm=(480,), thicknesses_nm=(10, 20))
        assert result.selected.transmission_contrast > 0.8
        assert result.selected.absorption_contrast > 0.8


class TestFig6Shape:
    @pytest.fixture(scope="class")
    def result(self):
        return fig6.run()

    def test_reset_energies_near_paper(self, result):
        assert result.reset_energy_pj[ProgrammingMode.CRYSTALLINE_DEPOSITED] \
            == pytest.approx(880, rel=0.05)
        assert result.reset_energy_pj[ProgrammingMode.AMORPHOUS_DEPOSITED] \
            == pytest.approx(280, rel=0.05)

    def test_sixteen_levels_six_percent_spacing(self, result):
        assert result.level_spacing == pytest.approx(0.06, abs=0.005)
        for table in result.levels.values():
            assert len(table) == 16


class TestFig7Fig8Shape:
    def test_fig7_power_descends_with_density(self):
        result = fig7.run()
        assert result.stacks[1].total_w > result.stacks[2].total_w \
            > result.stacks[4].total_w
        assert result.selected_bits == 4

    def test_fig8_comet_well_below_cosmos(self):
        result = fig8.run()
        assert 0.2 <= result.power_ratio <= 0.45  # paper: 0.26


class TestRunnerInterface:
    def test_run_experiment_returns_result(self):
        result = run_experiment("table1")
        assert result.soa_interval_rows == 46
