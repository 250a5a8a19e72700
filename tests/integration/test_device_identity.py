"""The vectorized mode solver builds bit-identical devices.

Every registered architecture's device model, and the Fig. 4 and Fig. 6
results, are built twice from cold caches: once with the production
solver (vectorized bracketing scan, Brent port, shared per-layer
matrix), and once with the scalar oracle it replaced: one
``dispersion`` call per grid point plus ``scipy.optimize.brentq``, with
the per-layer transfer matrix computed exactly as the scalar solver
did.  Device fingerprints hash every model field, so a root or a
confinement factor that moved by one ulp would show up here.
"""

import functools

import numpy as np
import pytest
from scipy.optimize import brentq

from repro.exp import fig4, fig6
from repro.photonics import waveguide
from repro.photonics.slab import MultilayerSlabSolver
from repro.sim.factory import known_architectures
from repro.sim.store import clear_fingerprint_cache, device_fingerprint

ORACLE_CALLS = {"solves": 0}


def oracle_layer_matrix(solver, layer, n_eff):
    k = solver._transverse_k(layer.index.real, n_eff)
    d = layer.thickness_m
    kd = k * d
    cos_kd = np.cos(kd)
    if abs(k) < 1e-12:
        sinc_term = d
        ksin_term = 0.0
    else:
        sinc_term = np.sin(kd) / k
        ksin_term = -k * np.sin(kd)
    return np.array([[cos_kd, sinc_term], [ksin_term, cos_kd]])


def oracle_dispersion(solver, n_eff):
    gamma_b = solver._decay_const(solver.n_bottom.real, n_eff)
    gamma_t = solver._decay_const(solver.n_top.real, n_eff)
    field = np.array([1.0 + 0j, gamma_b + 0j])
    for layer in solver.layers:
        field = oracle_layer_matrix(solver, layer, n_eff) @ field
    residual = field[1] + gamma_t * field[0]
    return float(residual.real)


def oracle_field_coefficients(self, n_eff):
    gamma_b = self._decay_const(self.n_bottom.real, n_eff)
    field = np.array([1.0 + 0j, gamma_b + 0j])
    coefficients = []
    x = 0.0
    for layer in self.layers:
        coefficients.append((x, field[0], field[1]))
        field = oracle_layer_matrix(self, layer, n_eff) @ field
        x += layer.thickness_m
    coefficients.append((x, field[0], field[1]))
    return coefficients


def oracle_find_effective_indices(self, samples=1200):
    """Scalar scan, then scipy's brentq on each bracket."""
    ORACLE_CALLS["solves"] += 1
    dispersion = functools.partial(oracle_dispersion, self)
    lo = self._n_clad_max + 1e-6
    hi = self._n_core_max - 1e-9
    if hi <= lo:
        return []
    grid = np.linspace(lo, hi, samples)
    values = np.array([dispersion(float(x)) for x in grid])
    roots = []
    for i in range(len(grid) - 1):
        a, b = values[i], values[i + 1]
        if a == 0.0:
            roots.append(float(grid[i]))
        elif a * b < 0.0:
            root = brentq(dispersion, float(grid[i]), float(grid[i + 1]),
                          xtol=1e-12, rtol=1e-12)
            roots.append(float(root))
    return sorted(set(roots), reverse=True)


def clear_solver_caches():
    waveguide._solve_cached.cache_clear()
    clear_fingerprint_cache()


def build_everything():
    clear_solver_caches()
    fingerprints = {arch: device_fingerprint(arch)
                    for arch in known_architectures()}
    return fingerprints, fig4.run(), fig6.run()


@pytest.fixture(scope="module")
def builds():
    production = build_everything()
    ORACLE_CALLS["solves"] = 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MultilayerSlabSolver, "find_effective_indices",
                      oracle_find_effective_indices)
        patch.setattr(MultilayerSlabSolver, "_field_coefficients",
                      oracle_field_coefficients)
        oracle = build_everything()
    # Later tests must not see devices the oracle built.
    clear_solver_caches()
    return production, oracle


def test_oracle_really_solved(builds):
    # One COMET build alone makes 84 slab solves.
    assert ORACLE_CALLS["solves"] >= 84


def test_device_fingerprints_identical(builds):
    (production, _, _), (oracle, _, _) = builds
    assert len(production) == 13
    assert production == oracle


def test_fig4_identical(builds):
    (_, production, _), (_, oracle, _) = builds
    assert production == oracle


def test_fig6_identical(builds):
    (_, _, production), (_, _, oracle) = builds
    assert production == oracle
