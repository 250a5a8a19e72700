"""Optical response of a GST-on-waveguide cell (the Fig. 4/Fig. 6 substrate).

The transmission of a PCM-loaded waveguide section of length ``L`` is

    T(fc, lambda) = (1 - R_in) * (1 - R_out) * exp(-alpha(fc, lambda) * L)

where ``alpha`` is the modal intensity absorption (from the mode solver's
confinement-weighted extinction) and ``R_in/R_out`` are the Fresnel power
reflections of the effective-index step between the bare and loaded strip
sections — the "optical-refractive-index mismatch" contribution the paper
calls out in Section III.B.

A single calibration constant, ``field_enhancement``, scales the modal
extinction to absorb what the 1-D effective-index picture under-counts
versus full FDTD (field concentration at the high-index GST film edges and
slow-light enhancement).  It is chosen once so that the paper's selected
geometry (480 nm x 20 nm x 2 um) reaches the reported ~95 % transmission /
absorption contrast, and held fixed for every other geometry, material,
wavelength and crystalline fraction — the *shapes* of Figs. 4 and 6 are
produced by the physics, not the calibration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from ..constants import WAVELENGTH_1550_M
from ..errors import MaterialError, SolverError
from ..materials.pcm import PhaseChangeMaterial
from ..photonics.indices import SILICA_INDEX
from ..photonics.waveguide import PcmLoadedWaveguide, WaveguideMode
from ..units import kappa_to_alpha_per_m, transmission_to_loss_db
from .geometry import CellGeometry

#: Calibrated once against the paper's ~95 % contrast at the selected
#: geometry; see tests/device/test_cell.py::test_selected_geometry_contrast.
DEFAULT_FIELD_ENHANCEMENT = 1.8

#: Crystalline-fraction grid used for the cached response tables.
_FC_GRID = np.linspace(0.0, 1.0, 41)


@dataclass(frozen=True)
class CellOpticalResponse:
    """The optical response of one cell state."""

    crystalline_fraction: float
    transmission: float
    absorption: float
    reflection: float
    insertion_loss_db: float
    effective_index: float

    def __post_init__(self) -> None:
        total = self.transmission + self.absorption + self.reflection
        if not 0.999 <= total <= 1.001:
            raise SolverError(f"T+A+R must sum to 1, got {total}")


class OpticalGstCell:
    """A PCM-on-waveguide memory cell with multi-level optical response."""

    def __init__(
        self,
        material: PhaseChangeMaterial,
        geometry: CellGeometry = CellGeometry(),
        field_enhancement: float = DEFAULT_FIELD_ENHANCEMENT,
    ) -> None:
        if field_enhancement <= 0.0:
            raise SolverError("field enhancement must be positive")
        self.material = material
        self.geometry = geometry
        self.field_enhancement = field_enhancement
        self._table_cache = {}
        self._waveguide = PcmLoadedWaveguide(
            width_m=geometry.waveguide_width_m,
            core_thickness_m=geometry.core_thickness_m,
            pcm_thickness_m=geometry.pcm_thickness_m,
            core_index=geometry.platform_index,
            substrate_index=SILICA_INDEX,
            top_cladding_index=SILICA_INDEX,
        )

    # ------------------------------------------------------------------
    # Mode-level quantities
    # ------------------------------------------------------------------

    def bare_mode(self, wavelength_m: float = WAVELENGTH_1550_M) -> WaveguideMode:
        """Fundamental mode of the unloaded access waveguide."""
        return self._waveguide.bare_mode(wavelength_m)

    def loaded_mode(
        self, crystalline_fraction: float,
        wavelength_m: float = WAVELENGTH_1550_M,
    ) -> WaveguideMode:
        """Fundamental mode of the PCM-loaded section at a given state."""
        n, kappa = self.material.nk(wavelength_m, crystalline_fraction)
        return self._waveguide.loaded_mode(wavelength_m, complex(n, kappa))

    def absorption_coefficient_per_m(
        self, crystalline_fraction: float,
        wavelength_m: float = WAVELENGTH_1550_M,
    ) -> float:
        """Modal intensity absorption coefficient [1/m], calibrated."""
        mode = self.loaded_mode(crystalline_fraction, wavelength_m)
        kappa_eff = mode.modal_extinction * self.field_enhancement
        return kappa_to_alpha_per_m(kappa_eff, wavelength_m)

    # ------------------------------------------------------------------
    # Cell response
    # ------------------------------------------------------------------

    def response(
        self, crystalline_fraction: float,
        wavelength_m: float = WAVELENGTH_1550_M,
    ) -> CellOpticalResponse:
        """Full T/A/R response of the cell in a given state."""
        if not 0.0 <= crystalline_fraction <= 1.0:
            raise MaterialError(
                f"crystalline fraction must be in [0, 1], got {crystalline_fraction}"
            )
        bare = self.bare_mode(wavelength_m)
        loaded = self.loaded_mode(crystalline_fraction, wavelength_m)
        r_facet = _fresnel_power_reflection(
            bare.effective_index, loaded.effective_index
        )
        alpha = self.absorption_coefficient_per_m(crystalline_fraction, wavelength_m)
        internal_t = float(np.exp(-alpha * self.geometry.cell_length_m))
        transmission = (1.0 - r_facet) ** 2 * internal_t
        # Power absorbed inside the film (single-pass, no multiple
        # reflections: the facet reflections here are <1 %).
        absorbed = (1.0 - r_facet) * (1.0 - internal_t)
        reflection = 1.0 - transmission - absorbed
        return CellOpticalResponse(
            crystalline_fraction=crystalline_fraction,
            transmission=transmission,
            absorption=absorbed,
            reflection=reflection,
            insertion_loss_db=transmission_to_loss_db(max(transmission, 1e-12)),
            effective_index=loaded.effective_index,
        )

    def transmission(
        self, crystalline_fraction: float,
        wavelength_m: float = WAVELENGTH_1550_M,
    ) -> float:
        """Power transmission of the cell in a given state."""
        return self.response(crystalline_fraction, wavelength_m).transmission

    def absorption(
        self, crystalline_fraction: float,
        wavelength_m: float = WAVELENGTH_1550_M,
    ) -> float:
        """Fraction of incident power absorbed in the cell."""
        return self.response(crystalline_fraction, wavelength_m).absorption

    # ------------------------------------------------------------------
    # Contrast figures (Fig. 4 quantities)
    # ------------------------------------------------------------------

    def transmission_contrast(
        self, wavelength_m: float = WAVELENGTH_1550_M
    ) -> float:
        """T(amorphous) - T(crystalline) — the Fig. 4 transmission contrast."""
        return (self.transmission(0.0, wavelength_m)
                - self.transmission(1.0, wavelength_m))

    def absorption_contrast(self, wavelength_m: float = WAVELENGTH_1550_M) -> float:
        """A(crystalline) - A(amorphous) — the Fig. 4 absorption contrast."""
        return (self.absorption(1.0, wavelength_m)
                - self.absorption(0.0, wavelength_m))

    # ------------------------------------------------------------------
    # Level inversion (Fig. 6 support)
    # ------------------------------------------------------------------

    def _transmission_table(
        self, wavelength_m: float = WAVELENGTH_1550_M
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(fc grid, transmission) table; transmission decreases with fc.

        Raises :class:`MaterialError` if it does not decrease strictly:
        :meth:`fc_for_transmission` inverts the table by interpolation,
        which would silently return a wrong fraction.
        """
        key = round(wavelength_m, 15)
        if key not in self._table_cache:
            transmissions = np.array(
                [self.transmission(fc, wavelength_m) for fc in _FC_GRID]
            )
            # ``not <`` also catches NaN.
            rising = np.flatnonzero(~(np.diff(transmissions) < 0.0))
            if rising.size:
                i = int(rising[0])
                raise MaterialError(
                    f"{self.material.name} at {wavelength_m * 1e9:.1f} nm: T(fc) "
                    f"must decrease strictly in fc, but T({_FC_GRID[i]:.3f}) = "
                    f"{transmissions[i]:.6g} and T({_FC_GRID[i + 1]:.3f}) = "
                    f"{transmissions[i + 1]:.6g}"
                )
            self._table_cache[key] = (_FC_GRID.copy(), transmissions)
        return self._table_cache[key]

    def fc_for_transmission(
        self, target_transmission: float,
        wavelength_m: float = WAVELENGTH_1550_M,
    ) -> float:
        """Invert T(fc) to the crystalline fraction realizing a target level.

        Raises :class:`MaterialError` when the target is outside the cell's
        achievable [T(crystalline), T(amorphous)] range.
        """
        fc_grid, trans = self._transmission_table(wavelength_m)
        t_max, t_min = trans[0], trans[-1]
        if not t_min - 1e-9 <= target_transmission <= t_max + 1e-9:
            raise MaterialError(
                f"target transmission {target_transmission:.3f} outside the "
                f"achievable range [{t_min:.3f}, {t_max:.3f}]"
            )
        # T decreases strictly with fc (checked when the table was built);
        # np.interp wants ascending x.
        return float(np.interp(target_transmission, trans[::-1], fc_grid[::-1]))

    # ------------------------------------------------------------------
    # Wavelength dependence (C-band claims of Section III.B)
    # ------------------------------------------------------------------

    def loss_db_per_mm(
        self, crystalline_fraction: float, wavelength_m: float
    ) -> float:
        """Propagation-style loss of the loaded section in dB/mm."""
        alpha = self.absorption_coefficient_per_m(crystalline_fraction, wavelength_m)
        return 10.0 * alpha / np.log(10.0) * 1e-3

    def c_band_contrast_variation(self, points: int = 8) -> float:
        """Max relative variation of the transmission contrast over C-band."""
        wavelengths = np.linspace(1530e-9, 1565e-9, points)
        contrasts = np.array([self.transmission_contrast(w) for w in wavelengths])
        return float((contrasts.max() - contrasts.min()) / contrasts.max())


def _fresnel_power_reflection(n1: float, n2: float) -> float:
    """Normal-incidence Fresnel power reflection between effective indices."""
    if n1 <= 0.0 or n2 <= 0.0:
        raise SolverError("effective indices must be positive")
    r = (n1 - n2) / (n1 + n2)
    return r * r
