"""Multilayer slab waveguide TE mode solver (transfer-matrix method).

This solver is one half of the reproduction's substitute for Ansys
Lumerical FDTD (see DESIGN.md).  It finds the guided TE modes of an
arbitrary 1-D layer stack (semi-infinite claddings top and bottom) by

1. propagating the tangential field vector ``(Ey, dEy/dx)`` through the
   stack with per-layer 2x2 transfer matrices, starting from an
   exponentially decaying solution in the bottom cladding, and
2. root-finding the dispersion function ``F(n_eff) = Ey' + gamma_top*Ey``
   at the top interface, whose zeros are the guided modes.

Losses are handled perturbatively: the solver uses the *real* parts of the
layer indices to find ``n_eff`` and the field profile, then computes the
modal extinction from the per-layer confinement factors:

    kappa_eff = sum_i  Gamma_i * kappa_i * (n_i / n_eff)

which is the standard first-order result for weakly absorbing layers and
is accurate for the thin GST films used here (kappa << n).

Root finding is split in two.  :meth:`MultilayerSlabSolver._dispersion_scan`
evaluates ``F`` on the whole ``n_eff`` grid at once (numpy arrays, one
pass over the layers) and is used only to bracket sign changes.  Each
bracket is then refined on the scalar :meth:`~MultilayerSlabSolver.dispersion`
by :func:`_brentq`, a port of scipy's Brent routine.  The scan's values
may differ from the scalar ones in the last bits, but the roots depend
only on the brackets and the scalar refinement, so they are the same
floats ``scipy.optimize.brentq`` finds over a scalar scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..errors import SolverError


@dataclass(frozen=True)
class Layer:
    """One finite layer of the stack.

    ``index`` may be complex; its imaginary part (extinction coefficient)
    only enters the perturbative loss computation.  ``name`` identifies the
    layer in confinement-factor queries.
    """

    name: str
    index: complex
    thickness_m: float

    def __post_init__(self) -> None:
        if self.thickness_m <= 0.0:
            raise SolverError(f"layer {self.name!r} must have positive thickness")
        if self.index.real <= 0.0:
            raise SolverError(f"layer {self.name!r} must have positive index")


@dataclass(frozen=True)
class SlabMode:
    """A guided TE mode of a layer stack."""

    effective_index: float
    modal_extinction: float
    confinement: Dict[str, float]          # per finite layer, plus claddings
    order: int

    @property
    def complex_effective_index(self) -> complex:
        return complex(self.effective_index, self.modal_extinction)


class MultilayerSlabSolver:
    """TE-polarized guided-mode solver for a 1-D multilayer stack."""

    def __init__(
        self,
        layers: Sequence[Layer],
        bottom_cladding_index: complex,
        top_cladding_index: complex,
        wavelength_m: float,
    ) -> None:
        if not layers:
            raise SolverError("stack needs at least one finite layer")
        if wavelength_m <= 0.0:
            raise SolverError("wavelength must be positive")
        self.layers = list(layers)
        self.n_bottom = bottom_cladding_index
        self.n_top = top_cladding_index
        self.wavelength_m = wavelength_m
        self.k0 = 2.0 * math.pi / wavelength_m
        self._n_clad_max = max(self.n_bottom.real, self.n_top.real)
        self._n_core_max = max(layer.index.real for layer in self.layers)
        if self._n_core_max <= self._n_clad_max:
            raise SolverError(
                "no guided modes possible: core index does not exceed cladding"
            )

    # ------------------------------------------------------------------
    # Dispersion function
    # ------------------------------------------------------------------

    def _transverse_k(self, index_real: float, n_eff: float) -> complex:
        """Transverse wavenumber in a layer; imaginary when evanescent."""
        arg = complex(index_real ** 2 - n_eff ** 2)
        return self.k0 * np.sqrt(arg)

    def _decay_const(self, index_real: float, n_eff: float) -> float:
        """Cladding decay constant gamma (guided modes only)."""
        val = n_eff ** 2 - index_real ** 2
        if val <= 0.0:
            raise SolverError("mode is not guided against this cladding")
        return self.k0 * math.sqrt(val)

    def _layer_matrix(self, layer: Layer, n_eff: float) -> np.ndarray:
        """2x2 transfer matrix carrying ``(Ey, Ey')`` across one layer."""
        k = self._transverse_k(layer.index.real, n_eff)
        d = layer.thickness_m
        kd = k * d
        cos_kd = np.cos(kd)
        if abs(k) < 1e-12:
            sinc_term = d        # lim sin(kd)/k as k -> 0
            ksin_term = 0.0
        else:
            sinc_term = np.sin(kd) / k
            ksin_term = -k * np.sin(kd)
        return np.array([[cos_kd, sinc_term], [ksin_term, cos_kd]])

    def dispersion(self, n_eff: float) -> float:
        """Dispersion function whose zeros are guided TE modes."""
        gamma_b = self._decay_const(self.n_bottom.real, n_eff)
        gamma_t = self._decay_const(self.n_top.real, n_eff)
        # Field vector (Ey, Ey') at the bottom interface for a decaying
        # bottom-cladding solution exp(+gamma_b * x), x < 0.
        field = np.array([1.0 + 0j, gamma_b + 0j])
        for layer in self.layers:
            field = self._layer_matrix(layer, n_eff) @ field
        # Top cladding must decay: Ey' = -gamma_t * Ey.
        residual = field[1] + gamma_t * field[0]
        return float(residual.real)

    def _dispersion_scan(self, grid: np.ndarray) -> np.ndarray:
        """:meth:`dispersion` at every point of ``grid`` (guided range only).

        The same per-layer propagation, with the field carried as two
        complex arrays over the grid.  Complex products round differently
        here than in the scalar 2x2 matmul, so use the result only for
        its signs.
        """
        n_sq = grid ** 2
        gamma_b = self.k0 * np.sqrt(n_sq - self.n_bottom.real ** 2)
        gamma_t = self.k0 * np.sqrt(n_sq - self.n_top.real ** 2)
        ey = np.ones(grid.shape, dtype=complex)
        eyp = gamma_b.astype(complex)
        for layer in self.layers:
            k = self.k0 * np.sqrt((layer.index.real ** 2 - n_sq).astype(complex))
            d = layer.thickness_m
            kd = k * d
            cos_kd = np.cos(kd)
            sin_kd = np.sin(kd)
            flat = np.abs(k) < 1e-12     # lim sin(kd)/k as k -> 0
            sinc_term = np.where(flat, d, sin_kd / np.where(flat, 1.0, k))
            ksin_term = np.where(flat, 0.0, -k * sin_kd)
            ey, eyp = (cos_kd * ey + sinc_term * eyp,
                       ksin_term * ey + cos_kd * eyp)
        return (eyp + gamma_t * ey).real

    # ------------------------------------------------------------------
    # Mode finding
    # ------------------------------------------------------------------

    def find_effective_indices(self, samples: int = 1200) -> List[float]:
        """Scan + Brent-refine all guided-mode effective indices (descending)."""
        lo = self._n_clad_max + 1e-6
        hi = self._n_core_max - 1e-9
        if hi <= lo:
            return []
        grid = np.linspace(lo, hi, samples)
        values = self._dispersion_scan(grid)
        roots: List[float] = []
        for i in bracket_indices(values):
            if values[i] == 0.0:
                roots.append(float(grid[i]))
            else:
                roots.append(_brentq(self.dispersion, float(grid[i]),
                                     float(grid[i + 1])))
        return sorted(set(roots), reverse=True)

    def solve(self, max_modes: int = 4, samples: int = 1200) -> List[SlabMode]:
        """Return up to ``max_modes`` guided TE modes, fundamental first."""
        indices = self.find_effective_indices(samples=samples)[:max_modes]
        modes = []
        for order, n_eff in enumerate(indices):
            confinement = self._confinement_factors(n_eff)
            kappa_eff = self._modal_extinction(n_eff, confinement)
            modes.append(SlabMode(
                effective_index=n_eff,
                modal_extinction=kappa_eff,
                confinement=confinement,
                order=order,
            ))
        return modes

    def fundamental(self, samples: int = 1200) -> SlabMode:
        """The fundamental TE mode; raises if the stack guides nothing."""
        modes = self.solve(max_modes=1, samples=samples)
        if not modes:
            raise SolverError("stack supports no guided TE mode")
        return modes[0]

    # ------------------------------------------------------------------
    # Field profile and confinement
    # ------------------------------------------------------------------

    def _field_coefficients(self, n_eff: float) -> List[Tuple[float, complex, complex]]:
        """Per-layer (start position, Ey, Ey') at each layer's bottom edge."""
        gamma_b = self._decay_const(self.n_bottom.real, n_eff)
        field = np.array([1.0 + 0j, gamma_b + 0j])
        coefficients = []
        x = 0.0
        for layer in self.layers:
            coefficients.append((x, field[0], field[1]))
            field = self._layer_matrix(layer, n_eff) @ field
            x += layer.thickness_m
        coefficients.append((x, field[0], field[1]))  # top interface
        return coefficients

    def _confinement_factors(self, n_eff: float) -> Dict[str, float]:
        """Fraction of ``|Ey|^2`` in each layer (plus the two claddings)."""
        coefficients = self._field_coefficients(n_eff)
        gamma_b = self._decay_const(self.n_bottom.real, n_eff)
        gamma_t = self._decay_const(self.n_top.real, n_eff)

        integrals: Dict[str, float] = {}
        # Bottom cladding: |Ey|^2 = exp(2 gamma_b x) for x<0, Ey(0)=1.
        integrals["bottom_cladding"] = 1.0 / (2.0 * gamma_b)
        # Finite layers: integrate the analytic piecewise field numerically.
        for layer, (x0, ey0, eyp0) in zip(self.layers, coefficients[:-1]):
            k = self._transverse_k(layer.index.real, n_eff)
            d = layer.thickness_m
            points = max(64, int(d / 0.25e-9))
            xs = np.linspace(0.0, d, min(points, 4096))
            if abs(k) < 1e-12:
                ey = ey0 + eyp0 * xs
            else:
                ey = ey0 * np.cos(k * xs) + (eyp0 / k) * np.sin(k * xs)
            integrals[layer.name] = float(np.trapezoid(np.abs(ey) ** 2, xs))
        # Top cladding: decaying exponential from the top-interface value.
        ey_top = coefficients[-1][1]
        integrals["top_cladding"] = float(abs(ey_top) ** 2 / (2.0 * gamma_t))

        total = sum(integrals.values())
        if total <= 0.0:
            raise SolverError("field normalization failed")
        return {name: value / total for name, value in integrals.items()}

    def _modal_extinction(self, n_eff: float, confinement: Dict[str, float]) -> float:
        """First-order modal extinction from per-layer material extinction."""
        kappa_eff = 0.0
        for layer in self.layers:
            kappa = layer.index.imag
            if kappa != 0.0:
                kappa_eff += (confinement[layer.name] * kappa
                              * (layer.index.real / n_eff))
        for name, index in (("bottom_cladding", self.n_bottom),
                            ("top_cladding", self.n_top)):
            if index.imag != 0.0:
                kappa_eff += confinement[name] * index.imag * (index.real / n_eff)
        return kappa_eff


def bracket_indices(values: np.ndarray) -> np.ndarray:
    """Scan positions ``i`` that hold a root: ``values[i]`` is zero, or
    ``values[i]`` and ``values[i + 1]`` have opposite signs."""
    a, b = values[:-1], values[1:]
    return np.flatnonzero((a == 0.0) | (a * b < 0.0))


def _signbit(x: float) -> bool:
    return math.copysign(1.0, x) < 0.0


def _brentq(f: Callable[[float], float], xa: float, xb: float,
            xtol: float = 1e-12, rtol: float = 1e-12,
            maxiter: int = 100) -> float:
    """Root of ``f`` in ``[xa, xb]`` by Brent's method.

    A line-for-line port of scipy's ``brentq.c`` (Charles Harris): the
    same float operations in the same order, so it returns exactly the
    float ``scipy.optimize.brentq(f, xa, xb, xtol=xtol, rtol=rtol,
    maxiter=maxiter)`` returns (100 is scipy's default ``maxiter``).
    Raises :class:`SolverError` where scipy raises: a NaN function
    value, no sign change over the bracket, or no convergence within
    ``maxiter`` iterations.
    """
    def call(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise SolverError(f"function value at x={x:.6g} is NaN")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise SolverError(
            f"no sign change over [{xa!r}, {xb!r}]: f = {fpre!r}, {fcur!r}")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and _signbit(fpre) != _signbit(fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            # Neither bound can be NaN, so min() picks what C's MIN does.
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise SolverError(
        f"Brent refinement did not converge in {maxiter} iterations "
        f"over [{xa!r}, {xb!r}]")
