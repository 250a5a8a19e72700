"""Strip-waveguide model via the effective index method (EIM).

The COMET cell is GST deposited on a 480 nm x 220 nm SOI strip waveguide
(Fig. 5(a)).  We model the strip with the classic two-step effective index
method:

1. **Vertical step** — solve the multilayer slab through the thickness
   (BOX / Si core / optional PCM film / cladding) for the region under the
   ridge, giving a vertical effective index and the vertical confinement in
   each layer (in particular in the PCM film).
2. **Horizontal step** — treat the ridge as a symmetric three-layer slab of
   width ``w`` whose core index is the vertical effective index and whose
   claddings are the lateral oxide, giving the final mode index and the
   lateral core confinement.

The PCM confinement of the full 2-D mode is the product of the vertical
film confinement and the lateral core confinement.  This reproduces, at
first order, what the paper extracts from FDTD: modal absorption versus
film thickness (strong) and waveguide width (weak), and the effective-index
mismatch between loaded and unloaded sections that partially drives the
transmission contrast (Section III.B).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from ..errors import SolverError
from .indices import SILICA_INDEX, SILICON_INDEX
from .slab import Layer, MultilayerSlabSolver


@dataclass(frozen=True)
class WaveguideMode:
    """Solved fundamental mode of a (possibly PCM-loaded) strip waveguide."""

    effective_index: float
    modal_extinction: float
    vertical_confinement_core: float
    vertical_confinement_pcm: float
    lateral_confinement: float

    @property
    def pcm_confinement(self) -> float:
        """2-D confinement factor of the PCM film."""
        return self.vertical_confinement_pcm * self.lateral_confinement

    @property
    def complex_effective_index(self) -> complex:
        return complex(self.effective_index, self.modal_extinction)


@dataclass(frozen=True)
class StripWaveguide:
    """An SOI (or SiN) strip waveguide with optional PCM film on top.

    Parameters
    ----------
    width_m / core_thickness_m:
        Ridge cross-section (the paper uses 480 nm x 220 nm).
    core_index:
        Platform core index; :data:`SILICON_INDEX` by default, pass
        :data:`SILICON_NITRIDE_INDEX` for the SiN comparison of Sec. III.B.
    pcm_index:
        Complex index of the PCM film (``None`` for a bare waveguide).
    pcm_thickness_m:
        PCM film thickness (the paper's cell uses 20 nm).
    top_cladding_index:
        Upper cladding (oxide by default; air for uncapped cells).
    """

    width_m: float = 480e-9
    core_thickness_m: float = 220e-9
    core_index: float = SILICON_INDEX
    pcm_index: Optional[complex] = None
    pcm_thickness_m: float = 0.0
    substrate_index: float = SILICA_INDEX
    top_cladding_index: float = SILICA_INDEX
    side_cladding_index: float = SILICA_INDEX

    def __post_init__(self) -> None:
        if self.width_m <= 0.0 or self.core_thickness_m <= 0.0:
            raise SolverError("waveguide dimensions must be positive")
        if self.pcm_index is not None and self.pcm_thickness_m <= 0.0:
            raise SolverError("a PCM film needs a positive thickness")

    # ------------------------------------------------------------------

    def solve(self, wavelength_m: float) -> WaveguideMode:
        """Solve the fundamental quasi-TE mode at the given wavelength."""
        key = (
            round(self.width_m, 12), round(self.core_thickness_m, 12),
            round(self.core_index, 6),
            None if self.pcm_index is None else (
                round(self.pcm_index.real, 6), round(self.pcm_index.imag, 6)),
            round(self.pcm_thickness_m, 12),
            round(self.substrate_index, 6), round(self.top_cladding_index, 6),
            round(self.side_cladding_index, 6), round(wavelength_m, 12),
        )
        return _solve_cached(key)


@lru_cache(maxsize=4096)
def _solve_cached(key) -> WaveguideMode:
    (width, core_t, core_n, pcm, pcm_t, sub_n, top_n, side_n, wl) = key
    pcm_index = None if pcm is None else complex(pcm[0], pcm[1])

    # --- vertical slab under the ridge ---------------------------------
    layers = [Layer("core", complex(core_n), core_t)]
    if pcm_index is not None:
        layers.append(Layer("pcm", pcm_index, pcm_t))
    vertical = MultilayerSlabSolver(
        layers, bottom_cladding_index=complex(sub_n),
        top_cladding_index=complex(top_n), wavelength_m=wl,
    )
    v_mode = vertical.fundamental()

    # --- horizontal slab across the ridge ------------------------------
    # The lateral "core" is the vertical effective index; lateral claddings
    # are the side oxide.  The vertical modal extinction rides along as the
    # lateral core's imaginary part so that the lateral confinement scales
    # the loss, matching the 2-D overlap-factor picture.
    lateral_core = complex(v_mode.effective_index, v_mode.modal_extinction)
    if lateral_core.real <= side_n:
        raise SolverError(
            "vertical effective index below side cladding: no lateral guiding"
        )
    horizontal = MultilayerSlabSolver(
        [Layer("lateral_core", lateral_core, width)],
        bottom_cladding_index=complex(side_n),
        top_cladding_index=complex(side_n),
        wavelength_m=wl,
    )
    h_mode = horizontal.fundamental()
    lateral_conf = h_mode.confinement["lateral_core"]

    return WaveguideMode(
        effective_index=h_mode.effective_index,
        modal_extinction=v_mode.modal_extinction * lateral_conf,
        vertical_confinement_core=v_mode.confinement["core"],
        vertical_confinement_pcm=v_mode.confinement.get("pcm", 0.0),
        lateral_confinement=lateral_conf,
    )


@dataclass(frozen=True)
class PcmLoadedWaveguide:
    """Convenience pair of (bare, loaded) strip waveguides for one cell.

    Exposes the two quantities the cell transmission model needs: the
    complex effective index of the loaded section at a given PCM complex
    index, and the bare-section effective index for the facet mismatch.
    """

    width_m: float = 480e-9
    core_thickness_m: float = 220e-9
    pcm_thickness_m: float = 20e-9
    core_index: float = SILICON_INDEX
    substrate_index: float = SILICA_INDEX
    top_cladding_index: float = SILICA_INDEX

    def bare_mode(self, wavelength_m: float) -> WaveguideMode:
        """Fundamental mode of the unloaded strip."""
        bare = StripWaveguide(
            width_m=self.width_m,
            core_thickness_m=self.core_thickness_m,
            core_index=self.core_index,
            substrate_index=self.substrate_index,
            top_cladding_index=self.top_cladding_index,
        )
        return bare.solve(wavelength_m)

    def loaded_mode(self, wavelength_m: float, pcm_index: complex) -> WaveguideMode:
        """Fundamental mode with the PCM film at the given complex index."""
        loaded = StripWaveguide(
            width_m=self.width_m,
            core_thickness_m=self.core_thickness_m,
            core_index=self.core_index,
            pcm_index=pcm_index,
            pcm_thickness_m=self.pcm_thickness_m,
            substrate_index=self.substrate_index,
            top_cladding_index=self.top_cladding_index,
        )
        return loaded.solve(wavelength_m)
