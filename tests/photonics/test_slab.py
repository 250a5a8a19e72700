"""Multilayer slab mode solver: physics sanity and known solutions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from repro.errors import SolverError
from repro.exp import fig4, fig6
from repro.photonics import waveguide
from repro.photonics.indices import SILICA_INDEX, SILICON_INDEX
from repro.photonics.slab import (
    Layer,
    MultilayerSlabSolver,
    _brentq,
    bracket_indices,
)
from repro.sim.factory import build_device, known_architectures


def soi_solver(thickness=220e-9, wavelength=1550e-9):
    return MultilayerSlabSolver(
        [Layer("core", complex(SILICON_INDEX), thickness)],
        bottom_cladding_index=complex(SILICA_INDEX),
        top_cladding_index=complex(SILICA_INDEX),
        wavelength_m=wavelength,
    )


class TestSoiSlab:
    def test_fundamental_in_bracket(self):
        mode = soi_solver().fundamental()
        assert SILICA_INDEX < mode.effective_index < SILICON_INDEX

    def test_220nm_soi_effective_index(self):
        """220 nm SOI TE0 effective index is ~2.8 at 1550 nm."""
        mode = soi_solver().fundamental()
        assert mode.effective_index == pytest.approx(2.8, abs=0.15)

    def test_single_te_mode_at_220nm(self):
        modes = soi_solver().solve(max_modes=4)
        assert len(modes) == 1

    def test_thicker_slab_multimode(self):
        modes = soi_solver(thickness=500e-9).solve(max_modes=4)
        assert len(modes) >= 2
        assert modes[0].effective_index > modes[1].effective_index

    def test_confinement_sums_to_one(self):
        mode = soi_solver().fundamental()
        assert sum(mode.confinement.values()) == pytest.approx(1.0, abs=1e-9)

    def test_core_confinement_dominates(self):
        mode = soi_solver().fundamental()
        assert mode.confinement["core"] > 0.6

    def test_thicker_core_confines_more(self):
        thin = soi_solver(thickness=150e-9).fundamental()
        thick = soi_solver(thickness=300e-9).fundamental()
        assert thick.confinement["core"] > thin.confinement["core"]

    def test_lossless_stack_has_zero_extinction(self):
        mode = soi_solver().fundamental()
        assert mode.modal_extinction == 0.0


class TestAnalyticCrosscheck:
    def test_symmetric_slab_dispersion_relation(self):
        """The solver's root satisfies the textbook TE dispersion relation:

        tan(k d / 2) = gamma / k   (even TE modes of a symmetric slab).
        """
        thickness = 220e-9
        wavelength = 1550e-9
        mode = soi_solver(thickness, wavelength).fundamental()
        k0 = 2 * math.pi / wavelength
        n_eff = mode.effective_index
        k = k0 * math.sqrt(SILICON_INDEX ** 2 - n_eff ** 2)
        gamma = k0 * math.sqrt(n_eff ** 2 - SILICA_INDEX ** 2)
        assert math.tan(k * thickness / 2) == pytest.approx(gamma / k, rel=1e-4)


class TestAbsorbingLayer:
    def test_absorbing_film_adds_modal_extinction(self):
        solver = MultilayerSlabSolver(
            [Layer("core", complex(SILICON_INDEX), 220e-9),
             Layer("pcm", complex(6.11, 0.83), 20e-9)],
            bottom_cladding_index=complex(SILICA_INDEX),
            top_cladding_index=complex(SILICA_INDEX),
            wavelength_m=1550e-9,
        )
        mode = solver.fundamental()
        assert mode.modal_extinction > 0.0
        assert mode.confinement["pcm"] > 0.01

    def test_extinction_scales_with_film_kappa(self):
        def extinction(kappa):
            solver = MultilayerSlabSolver(
                [Layer("core", complex(SILICON_INDEX), 220e-9),
                 Layer("pcm", complex(4.5, kappa), 20e-9)],
                bottom_cladding_index=complex(SILICA_INDEX),
                top_cladding_index=complex(SILICA_INDEX),
                wavelength_m=1550e-9,
            )
            return solver.fundamental().modal_extinction

        assert extinction(0.8) > extinction(0.4) > extinction(0.1) > 0.0


class TestValidation:
    def test_no_guiding_without_index_step(self):
        with pytest.raises(SolverError):
            MultilayerSlabSolver(
                [Layer("core", complex(1.4), 220e-9)],
                bottom_cladding_index=complex(SILICA_INDEX),
                top_cladding_index=complex(SILICA_INDEX),
                wavelength_m=1550e-9,
            )

    def test_empty_stack_rejected(self):
        with pytest.raises(SolverError):
            MultilayerSlabSolver([], complex(1.444), complex(1.444), 1550e-9)

    def test_bad_layer_rejected(self):
        with pytest.raises(SolverError):
            Layer("bad", complex(3.4), -1e-9)


# ---------------------------------------------------------------------------
# Root search: vectorized bracketing scan + Brent refinement
# ---------------------------------------------------------------------------


def record_scans(build):
    """Every ``(solver, grid)`` scanned while ``build()`` runs from a cold
    mode cache."""
    scans = []
    real_scan = MultilayerSlabSolver._dispersion_scan

    def recording_scan(self, grid):
        scans.append((self, grid))
        return real_scan(self, grid)

    waveguide._solve_cached.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MultilayerSlabSolver, "_dispersion_scan", recording_scan)
        build()
    return scans


def build_factory_and_figures():
    for architecture in known_architectures():
        build_device(architecture)
    fig4.run()
    fig6.run()


@pytest.fixture(scope="module")
def comet_scans():
    return record_scans(lambda: build_device("COMET"))


@pytest.fixture(scope="module")
def all_scans():
    return record_scans(build_factory_and_figures)


def same_float(x, y):
    """Bit equality (``==`` would also equate 0.0 and -0.0)."""
    return float(x).hex() == float(y).hex()


def recording(f, calls):
    def wrapper(x):
        calls.append(float(x).hex())
        return f(x)
    return wrapper


def assert_same_outcome(f, a, b, **kwargs):
    """``_brentq`` evaluates ``f`` at the same points as scipy's brentq,
    bit for bit, and returns its float or raises where it raises."""
    scipy_calls, port_calls = [], []
    try:
        expected = brentq(recording(f, scipy_calls), a, b,
                          xtol=1e-12, rtol=1e-12, **kwargs)
    except (ValueError, RuntimeError):
        with pytest.raises(SolverError):
            _brentq(recording(f, port_calls), a, b, **kwargs)
    else:
        assert same_float(_brentq(recording(f, port_calls), a, b, **kwargs),
                          expected)
    assert port_calls == scipy_calls


#: Strictly increasing shapes with their root at u = 0, for u in [-1, 1].
SHAPES = {
    "cubic": lambda u, c: u * (1.0 + c * u * u),
    "expm1": lambda u, c: math.expm1((c + 0.1) * u),
    "atan": lambda u, c: math.atan((c + 0.1) * u) + c * u ** 3,
    "sinh": lambda u, c: math.sinh((c + 0.1) * u),
    "triple": lambda u, c: u ** 3,
}


@st.composite
def bracketed_functions(draw):
    """``(f, a, b)``: a continuous function with one root in ``[a, b]``
    (either order), of varied curvature and scale."""
    a = draw(st.floats(-1e3, 1e3))
    width = draw(st.floats(1e-9, 1e3))
    b = a + width
    root = a + draw(st.floats(0.0, 1.0)) * width
    shape = SHAPES[draw(st.sampled_from(sorted(SHAPES)))]
    curvature = draw(st.floats(0.0, 10.0))
    scale = draw(st.floats(1e-6, 1e6)) * draw(st.sampled_from((1.0, -1.0)))

    def f(x):
        return scale * shape((x - root) / width, curvature)

    if draw(st.booleans()):
        a, b = b, a
    return f, a, b


class TestVectorizedScan:
    def test_comet_build_makes_84_solves(self, comet_scans):
        assert len(comet_scans) == 84

    def test_brackets_match_scalar_scan(self, all_scans):
        """On every stack the factory and Figs. 4/6 build, the vectorized
        scan brackets the same roots as a per-point scalar ``dispersion``
        scan.  The values themselves may differ in the last bits."""
        assert len(all_scans) > 84
        for solver, grid in all_scans:
            scalar = np.array([solver.dispersion(float(x)) for x in grid])
            vector = solver._dispersion_scan(grid)
            assert np.array_equal(bracket_indices(vector),
                                  bracket_indices(scalar))
            assert np.array_equal(vector == 0.0, scalar == 0.0)

    def test_flat_layer_limit_matches_scalar(self):
        """At n_eff equal to a layer index (k = 0) both paths take the
        sin(kd)/k -> d limit."""
        solver = soi_solver()
        grid = np.array([2.0, 2.8, SILICON_INDEX])
        scalar = [solver.dispersion(float(x)) for x in grid]
        vector = solver._dispersion_scan(grid)
        assert np.all(np.isfinite(vector))
        assert vector == pytest.approx(scalar, rel=1e-9)


class TestBrentPort:
    def test_matches_scipy_on_factory_brackets(self, comet_scans):
        refined = 0
        for solver, grid in comet_scans:
            values = solver._dispersion_scan(grid)
            for i in bracket_indices(values):
                if values[i] != 0.0:
                    assert_same_outcome(solver.dispersion, float(grid[i]),
                                        float(grid[i + 1]))
                    refined += 1
        assert refined >= 84

    @settings(max_examples=300, deadline=None)
    @given(bracketed_functions())
    def test_matches_scipy_on_generated_functions(self, case):
        assert_same_outcome(*case)

    def test_nan_raises(self):
        with pytest.raises(SolverError, match="NaN"):
            _brentq(lambda x: math.nan, 0.0, 1.0)
        # NaN only inside the bracket: the first interpolation hits it.
        with pytest.raises(SolverError, match="NaN"):
            _brentq(lambda x: math.nan if 0.2 < x < 0.8 else x - 0.5,
                    0.0, 1.0)

    def test_no_sign_change_raises(self):
        with pytest.raises(SolverError, match="no sign change"):
            _brentq(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_non_convergence_raises(self):
        def step(x):
            return -1.0 if x < 0.3 else 1.0

        with pytest.raises(SolverError, match="did not converge"):
            _brentq(step, 0.0, 1.0, maxiter=10)
        assert_same_outcome(step, 0.0, 1.0, maxiter=10)
        assert_same_outcome(step, 0.0, 1.0)
