"""Inter-cell thermal crosstalk in COMET's isolated-cell array.

The paper argues COMET is crosstalk-free because MR gating removes the
*optical* coupling path that corrupts the COSMOS crossbar (Section II.B).
A complete argument must also bound the *thermal* path: a 5 mW write
pulse deposits heat that conducts through the shared oxide toward the
neighbouring cell.  This module quantifies that bound.

For a heat pulse of power ``P`` and duration ``t`` in an infinite oxide
medium, the temperature rise at distance ``r`` is

    dT(r, t) = P / (4 * pi * k * r) * erfc( r / (2 * sqrt(alpha * t)) )

(the transient point-source solution; steady state as t -> inf).  With
COMET's ring-gated layout the cell pitch is set by the 6 um ring
diameter — neighbours sit >= ~10 um apart, far beyond the ~0.2 um
diffusion length of a 56 ns pulse, so the erfc term annihilates the
coupling.  The COSMOS crossbar's ~2 um pitch is inside the steady-state
danger zone, which is the thermal shadow of its optical problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigError

#: SiO2 thermal properties (matching repro.device.heat.THERMAL_LIBRARY).
OXIDE_CONDUCTIVITY_W_MK = 1.38
OXIDE_DIFFUSIVITY_M2_S = 1.38 / 1.63e6

#: COMET cell pitch: a 6 um-radius access ring per cell plus routing.
COMET_CELL_PITCH_M = 14e-6

#: COSMOS crossbar pitch: bare waveguide crossings.
COSMOS_CELL_PITCH_M = 2e-6


@dataclass(frozen=True)
class ThermalCrosstalkModel:
    """Point-source conduction model for neighbour heating."""

    conductivity_w_mk: float = OXIDE_CONDUCTIVITY_W_MK
    diffusivity_m2_s: float = OXIDE_DIFFUSIVITY_M2_S
    disturb_threshold_k: float = 130.0   # Tg(430 K) - ambient(300 K)

    def __post_init__(self) -> None:
        if self.conductivity_w_mk <= 0.0 or self.diffusivity_m2_s <= 0.0:
            raise ConfigError("thermal constants must be positive")
        if self.disturb_threshold_k <= 0.0:
            raise ConfigError("disturb threshold must be positive")

    def diffusion_length_m(self, pulse_duration_s: float) -> float:
        """Thermal diffusion length of a pulse: sqrt(alpha * t)."""
        if pulse_duration_s <= 0.0:
            raise ConfigError("pulse duration must be positive")
        return math.sqrt(self.diffusivity_m2_s * pulse_duration_s)

    def neighbor_temperature_rise_k(
        self,
        pulse_power_w: float,
        pulse_duration_s: float,
        distance_m: float,
    ) -> float:
        """Transient temperature rise at a neighbour cell."""
        from scipy.special import erfc    # not at import: keeps start-up scipy-free

        if pulse_power_w < 0.0:
            raise ConfigError("power must be non-negative")
        if distance_m <= 0.0:
            raise ConfigError("distance must be positive")
        steady = pulse_power_w / (
            4.0 * math.pi * self.conductivity_w_mk * distance_m)
        spread = 2.0 * self.diffusion_length_m(pulse_duration_s)
        return steady * float(erfc(distance_m / spread))

    def steady_state_rise_k(self, pulse_power_w: float,
                            distance_m: float) -> float:
        """Worst case: continuous heating (t -> inf)."""
        if distance_m <= 0.0:
            raise ConfigError("distance must be positive")
        return pulse_power_w / (
            4.0 * math.pi * self.conductivity_w_mk * distance_m)

    def is_disturb_free(
        self,
        pulse_power_w: float,
        pulse_duration_s: float,
        distance_m: float,
        margin: float = 10.0,
    ) -> bool:
        """Neighbour rise at least ``margin`` x below the disturb window."""
        rise = self.neighbor_temperature_rise_k(
            pulse_power_w, pulse_duration_s, distance_m)
        return rise * margin < self.disturb_threshold_k

    def minimum_safe_pitch_m(
        self,
        pulse_power_w: float,
        pulse_duration_s: float,
        margin: float = 10.0,
    ) -> float:
        """Smallest pitch that stays disturb-free (bisection search)."""
        lo, hi = 1e-8, 1e-3
        if self.is_disturb_free(pulse_power_w, pulse_duration_s, lo, margin):
            return lo
        for _ in range(80):
            mid = math.sqrt(lo * hi)
            if self.is_disturb_free(pulse_power_w, pulse_duration_s, mid,
                                    margin):
                hi = mid
            else:
                lo = mid
        return hi


def comet_write_disturb_report(
    pulse_power_w: float = 5e-3,
    pulse_duration_s: float = 56e-9,
) -> dict:
    """One-call summary used by tests and docs."""
    model = ThermalCrosstalkModel()
    return {
        "comet_pitch_m": COMET_CELL_PITCH_M,
        "cosmos_pitch_m": COSMOS_CELL_PITCH_M,
        "diffusion_length_m": model.diffusion_length_m(pulse_duration_s),
        "comet_neighbor_rise_k": model.neighbor_temperature_rise_k(
            pulse_power_w, pulse_duration_s, COMET_CELL_PITCH_M),
        "cosmos_steady_rise_k": model.steady_state_rise_k(
            pulse_power_w, COSMOS_CELL_PITCH_M),
        "comet_disturb_free": model.is_disturb_free(
            pulse_power_w, pulse_duration_s, COMET_CELL_PITCH_M),
        "minimum_safe_pitch_m": model.minimum_safe_pitch_m(
            pulse_power_w, pulse_duration_s),
    }
