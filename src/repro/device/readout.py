"""Readout chain: photodetection SNR and level-decision error rates.

The paper argues material and loss choices in terms of "better
signal-to-noise ratio at the readout" (Section II.A) and derives loss
tolerances per bit density (Section III.C); this module closes the loop
quantitatively and supports the 5-bits/cell discussion ([17] demonstrates
34 states; the paper still picks 4 bits/cell):

* a PIN photodetector with thermal + shot noise at a given bandwidth,
* per-level SNR for a cell's level map at a given received optical power,
* the worst-pair level-decision error probability (Gaussian Q-function),
* the maximum reliable bit density at a given power/noise point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..constants import ELEMENTARY_CHARGE, BOLTZMANN
from ..errors import ConfigError
from .mlc import MultiLevelCell


@dataclass(frozen=True)
class PhotodetectorModel:
    """PIN photodetector with thermal and shot noise."""

    responsivity_a_per_w: float = 1.0
    bandwidth_hz: float = 5e9          # matches the ~10 ns read window
    load_resistance_ohm: float = 5e3   # TIA transimpedance class
    temperature_k: float = 300.0
    dark_current_a: float = 10e-9

    def __post_init__(self) -> None:
        if self.responsivity_a_per_w <= 0.0 or self.bandwidth_hz <= 0.0:
            raise ConfigError("responsivity and bandwidth must be positive")

    def photocurrent_a(self, optical_power_w: float) -> float:
        if optical_power_w < 0.0:
            raise ConfigError("optical power must be non-negative")
        return self.responsivity_a_per_w * optical_power_w

    def noise_current_a(self, optical_power_w: float) -> float:
        """RMS noise current: thermal + shot (signal and dark)."""
        thermal = math.sqrt(
            4.0 * BOLTZMANN * self.temperature_k * self.bandwidth_hz
            / self.load_resistance_ohm)
        signal_current = self.photocurrent_a(optical_power_w)
        shot = math.sqrt(
            2.0 * ELEMENTARY_CHARGE * (signal_current + self.dark_current_a)
            * self.bandwidth_hz)
        return math.hypot(thermal, shot)

    def snr_db(self, optical_power_w: float) -> float:
        """Electrical SNR of a received optical level."""
        signal = self.photocurrent_a(optical_power_w)
        noise = self.noise_current_a(optical_power_w)
        if signal <= 0.0:
            raise ConfigError("no signal at detector")
        return 20.0 * math.log10(signal / noise)


@dataclass(frozen=True)
class ReadoutModel:
    """Level-decision statistics for one MLC level map."""

    detector: PhotodetectorModel = PhotodetectorModel()
    received_power_w: float = 1e-4      # power for transmission = 1.0

    def __post_init__(self) -> None:
        if self.received_power_w <= 0.0:
            raise ConfigError("received power must be positive")

    def level_separation_current_a(self, mlc: MultiLevelCell) -> float:
        """Photocurrent gap between adjacent levels."""
        power_gap = mlc.level_spacing * self.received_power_w
        return self.detector.photocurrent_a(power_gap)

    def worst_pair_error_probability(self, mlc: MultiLevelCell) -> float:
        """Decision-error probability of the noisiest adjacent level pair.

        Gaussian decision between adjacent levels with a midpoint
        threshold: ``P_err = 0.5 * erfc(d / (2*sqrt(2)*sigma))`` with
        ``d`` the current separation and ``sigma`` the noise at the
        brighter level (worst shot noise).
        """
        from scipy.special import erfc    # not at import: keeps start-up scipy-free

        separation = self.level_separation_current_a(mlc)
        brightest_w = mlc.max_transmission * self.received_power_w
        sigma = self.detector.noise_current_a(brightest_w)
        argument = separation / (2.0 * math.sqrt(2.0) * sigma)
        return 0.5 * float(erfc(argument))

    def symbol_error_probability(self, mlc: MultiLevelCell) -> float:
        """Union-bound symbol error across the level ladder."""
        per_pair = self.worst_pair_error_probability(mlc)
        return min(1.0, 2.0 * (mlc.num_levels - 1) / mlc.num_levels * per_pair)

    def max_reliable_bits(
        self, target_error: float = 1e-9, max_bits: int = 6
    ) -> int:
        """Largest bit density whose worst-pair error beats the target."""
        if not 0.0 < target_error < 1.0:
            raise ConfigError("target error must be a probability")
        best = 0
        for bits in range(1, max_bits + 1):
            mlc = MultiLevelCell(bits)
            if self.worst_pair_error_probability(mlc) <= target_error:
                best = bits
        return best

    def snr_per_level_db(self, mlc: MultiLevelCell) -> np.ndarray:
        """Electrical SNR of each stored level at the detector."""
        levels = mlc.level_transmissions()
        return np.array([
            self.detector.snr_db(t * self.received_power_w) for t in levels
        ])
