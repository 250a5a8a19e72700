"""OPCM cell optical response (the Fig. 4 substrate)."""

import numpy as np
import pytest

from repro.device import CellGeometry, OpticalGstCell
from repro.errors import ConfigError, MaterialError
from repro.materials import get_material


class TestResponse:
    def test_t_a_r_sum_to_one(self, gst_cell):
        for fc in (0.0, 0.3, 0.7, 1.0):
            resp = gst_cell.response(fc)
            total = resp.transmission + resp.absorption + resp.reflection
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_transmission_decreases_with_fraction(self, gst_cell):
        fractions = np.linspace(0.0, 1.0, 9)
        values = [gst_cell.transmission(fc) for fc in fractions]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_absorption_increases_with_fraction(self, gst_cell):
        assert gst_cell.absorption(1.0) > gst_cell.absorption(0.5) \
            > gst_cell.absorption(0.0)

    def test_fraction_bounds(self, gst_cell):
        with pytest.raises(MaterialError):
            gst_cell.response(1.5)


class TestSelectedGeometryContrast:
    def test_paper_contrast_at_design_point(self, gst_cell):
        """The selected 480 nm x 20 nm x 2 um cell reaches ~90-96 %
        transmission and absorption contrast (paper: ~95-96 %)."""
        assert 0.85 <= gst_cell.transmission_contrast() <= 0.99
        assert 0.85 <= gst_cell.absorption_contrast() <= 0.99

    def test_amorphous_state_is_transparent(self, gst_cell):
        assert gst_cell.transmission(0.0) > 0.9

    def test_crystalline_state_is_opaque(self, gst_cell):
        assert gst_cell.transmission(1.0) < 0.05


class TestLevelInversion:
    def test_inversion_roundtrip(self, gst_cell):
        for target in (0.1, 0.4, 0.8):
            fc = gst_cell.fc_for_transmission(target)
            assert gst_cell.transmission(fc) == pytest.approx(target, abs=0.02)

    def test_out_of_range_target_rejected(self, gst_cell):
        with pytest.raises(MaterialError):
            gst_cell.fc_for_transmission(0.999)
        with pytest.raises(MaterialError):
            gst_cell.fc_for_transmission(0.001)

    def test_inversion_monotone(self, gst_cell):
        targets = np.linspace(0.1, 0.9, 9)
        fractions = [gst_cell.fc_for_transmission(t) for t in targets]
        assert all(b < a for a, b in zip(fractions, fractions[1:]))


class TestTransmissionTableMonotonicity:
    """``fc_for_transmission`` interpolates the T(fc) table, which is only
    valid while T decreases strictly in fc."""

    @pytest.mark.parametrize("wavelength_m", [1530e-9, 1550e-9, 1565e-9])
    @pytest.mark.parametrize("material", ["GST", "GSST", "Sb2Se3"])
    def test_tables_decrease_strictly(self, material, wavelength_m):
        cell = OpticalGstCell(get_material(material))
        _fc, transmissions = cell._transmission_table(wavelength_m)
        assert np.all(np.diff(transmissions) < 0.0)

    def test_non_monotone_transmission_raises(self, gst, monkeypatch):
        cell = OpticalGstCell(gst)
        real = cell.transmission

        def bumped(fc, wavelength_m):
            return real(fc, wavelength_m) + (0.5 if abs(fc - 0.5) < 1e-9 else 0.0)

        monkeypatch.setattr(cell, "transmission", bumped)
        with pytest.raises(MaterialError,
                           match=r"T\(0\.475\) = .* and T\(0\.500\) = "):
            cell.fc_for_transmission(0.5)

    def test_nan_transmission_raises(self, gst, monkeypatch):
        cell = OpticalGstCell(gst)
        monkeypatch.setattr(cell, "transmission",
                            lambda fc, wavelength_m: float("nan"))
        with pytest.raises(MaterialError, match=r"T\(0\.000\)"):
            cell.fc_for_transmission(0.5)


class TestWavelengthDependence:
    def test_loss_decreases_across_c_band(self, gst_cell):
        """Section III.B: loss drops from 1530 nm to 1565 nm."""
        loss_blue = gst_cell.loss_db_per_mm(0.0, 1530e-9)
        loss_red = gst_cell.loss_db_per_mm(0.0, 1565e-9)
        assert loss_blue > loss_red > 0.0

    def test_contrast_variation_small(self, gst_cell):
        """Section III.B: <~2 % contrast variation across the C-band
        (paper reports 1.4 %)."""
        assert gst_cell.c_band_contrast_variation(points=4) < 0.03


class TestGeometryEffects:
    def test_thicker_film_more_contrast(self, gst):
        thin = OpticalGstCell(gst, CellGeometry(pcm_thickness_m=10e-9))
        thick = OpticalGstCell(gst, CellGeometry(pcm_thickness_m=30e-9))
        assert thick.absorption_contrast() > thin.absorption_contrast()

    def test_longer_cell_more_absorption(self, gst):
        short = OpticalGstCell(gst, CellGeometry(cell_length_m=1e-6))
        long_cell = OpticalGstCell(gst, CellGeometry(cell_length_m=3e-6))
        assert long_cell.absorption(1.0) > short.absorption(1.0)

    def test_geometry_validation(self):
        with pytest.raises(ConfigError):
            CellGeometry(pcm_thickness_m=0.0)
        with pytest.raises(ConfigError):
            CellGeometry(platform="InP")
