"""Transient thermal models of the OPCM cell stack (HEAT substitute).

Two models, cross-validated against each other:

* :class:`LayeredHeatSolver` — a 1-D Crank–Nicolson finite-difference solver
  through the BOX / Si-core / GST / cladding stack with a volumetric heat
  source in the GST film (the absorbed share of the optical mode) and an
  effective lateral-spreading loss term.  This is the substitute for the
  paper's Ansys Lumerical HEAT transient simulation.
* :class:`LumpedThermalModel` — a single-pole RC model with analytic step
  and decay responses, calibrated so that the paper's two reset case
  studies come out at their published energies (880 pJ crystalline-
  deposited, 280 pJ amorphous-deposited; Section III.B).  The architecture
  and Fig. 6 paths use this model; the layered solver validates it.

The lumped model's thermal resistance is referenced to *incident* optical
power at the cell (it folds in the state-averaged absorption efficiency),
because that is the quantity the paper's pulse-energy numbers are quoted
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..constants import AMBIENT_TEMPERATURE_K
from ..errors import SolverError


# ---------------------------------------------------------------------------
# Material thermal library (bulk literature values)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThermalLayer:
    """One layer of the 1-D thermal stack."""

    name: str
    thickness_m: float
    conductivity_w_mk: float
    volumetric_heat_j_m3k: float

    def __post_init__(self) -> None:
        if self.thickness_m <= 0.0:
            raise SolverError(f"layer {self.name!r} needs positive thickness")
        if self.conductivity_w_mk <= 0.0 or self.volumetric_heat_j_m3k <= 0.0:
            raise SolverError(f"layer {self.name!r} needs positive properties")


#: name -> (conductivity [W/mK], volumetric heat capacity [J/m^3 K])
THERMAL_LIBRARY: Dict[str, Tuple[float, float]] = {
    "SiO2": (1.38, 1.63e6),
    "Si": (130.0, 1.64e6),       # thin-film silicon, slightly below bulk
    "GST": (0.57, 1.34e6),       # crystalline GST; amorphous uses 0.19
    "GST_amorphous": (0.19, 1.34e6),
}


def default_cell_stack(gst_thickness_m: float = 20e-9) -> List[ThermalLayer]:
    """The BOX / Si / GST / cladding stack of the Fig. 5(a) cell."""
    return [
        ThermalLayer("box", 2e-6, *THERMAL_LIBRARY["SiO2"]),
        ThermalLayer("core", 220e-9, *THERMAL_LIBRARY["Si"]),
        ThermalLayer("gst", gst_thickness_m, *THERMAL_LIBRARY["GST"]),
        ThermalLayer("cladding", 1e-6, *THERMAL_LIBRARY["SiO2"]),
    ]


# ---------------------------------------------------------------------------
# Layered 1-D Crank–Nicolson solver
# ---------------------------------------------------------------------------


class LayeredHeatSolver:
    """1-D transient heat conduction through the cell's layer stack.

    The equation solved per node is::

        rho*c * dT/dt = d/dz (k dT/dz) + q(z, t) - g_lat * (T - T_amb)

    with Dirichlet ambient boundaries at the bottom of the BOX (substrate
    heat sink) and the top of the cladding.  ``g_lat`` is an effective
    volumetric lateral-spreading conductance accounting for the in-plane
    heat flow a 1-D model otherwise ignores.
    """

    def __init__(
        self,
        layers: Optional[List[ThermalLayer]] = None,
        dz_m: float = 10e-9,
        heated_layer: str = "gst",
        heated_area_m2: float = 480e-9 * 2e-6,
        lateral_conductance_w_m3k: float = 1.0e13,
        ambient_k: float = AMBIENT_TEMPERATURE_K,
    ) -> None:
        if dz_m <= 0.0:
            raise SolverError("grid spacing must be positive")
        self.layers = layers if layers is not None else default_cell_stack()
        self.dz = dz_m
        self.heated_layer = heated_layer
        self.heated_area = heated_area_m2
        self.g_lat = lateral_conductance_w_m3k
        self.ambient = ambient_k
        self._build_grid()

    def _build_grid(self) -> None:
        conductivity: List[float] = []
        heat_capacity: List[float] = []
        source_mask: List[bool] = []
        layer_names: List[str] = []
        for layer in self.layers:
            nodes = max(2, int(round(layer.thickness_m / self.dz)))
            conductivity.extend([layer.conductivity_w_mk] * nodes)
            heat_capacity.extend([layer.volumetric_heat_j_m3k] * nodes)
            source_mask.extend([layer.name == self.heated_layer] * nodes)
            layer_names.extend([layer.name] * nodes)
        if not any(source_mask):
            raise SolverError(
                f"heated layer {self.heated_layer!r} not present in the stack"
            )
        self.k = np.asarray(conductivity)
        self.rho_c = np.asarray(heat_capacity)
        self.source_mask = np.asarray(source_mask)
        self.layer_names = layer_names
        self.n_nodes = len(layer_names)

    # -- core stepping ----------------------------------------------------

    def _assemble(self, dt: float) -> Tuple[np.ndarray, np.ndarray]:
        """Crank–Nicolson banded matrices (A x_{t+1} = B x_t + s)."""
        n = self.n_nodes
        dz2 = self.dz ** 2
        # Harmonic-mean interface conductivities.
        k_half = np.zeros(n + 1)
        k_half[1:n] = 2.0 * self.k[:-1] * self.k[1:] / (self.k[:-1] + self.k[1:])
        k_half[0] = self.k[0]
        k_half[n] = self.k[-1]
        lower = -0.5 * dt * k_half[:n] / (self.rho_c * dz2)
        upper = -0.5 * dt * k_half[1:] / (self.rho_c * dz2)
        decay = 0.5 * dt * self.g_lat / self.rho_c
        diag_a = 1.0 - (lower + upper) + decay
        a_banded = np.zeros((3, n))
        a_banded[0, 1:] = upper[:-1]
        a_banded[1, :] = diag_a
        a_banded[2, :-1] = lower[1:]
        return a_banded, np.stack([lower, upper, decay])

    def simulate(
        self,
        absorbed_power_w: float,
        pulse_duration_s: float,
        total_time_s: float,
        dt_s: float = 0.25e-9,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Run a rectangular pulse; return (times, GST-film mean temperature).

        ``absorbed_power_w`` is the optical power actually dissipated in the
        GST film; it is spread uniformly over the film volume.
        """
        if absorbed_power_w < 0.0:
            raise SolverError("absorbed power must be non-negative")
        if pulse_duration_s < 0.0 or total_time_s <= 0.0 or dt_s <= 0.0:
            raise SolverError("times must be positive")
        from scipy.linalg import solve_banded    # not at import: keeps start-up scipy-free

        n_steps = int(math.ceil(total_time_s / dt_s))
        a_banded, parts = self._assemble(dt_s)
        lower, upper, decay = parts
        gst_nodes = int(np.count_nonzero(self.source_mask))
        film_volume = self.heated_area * gst_nodes * self.dz
        q_density = absorbed_power_w / film_volume  # W/m^3

        temp = np.full(self.n_nodes, self.ambient)
        times = np.zeros(n_steps + 1)
        gst_temp = np.zeros(n_steps + 1)
        gst_temp[0] = self.ambient

        for step in range(1, n_steps + 1):
            t_now = step * dt_s
            theta = temp - self.ambient
            # Explicit half of CN.
            rhs = theta.copy()
            rhs[1:] -= lower[1:] * theta[:-1]
            rhs[:-1] -= upper[:-1] * theta[1:]
            rhs -= (-(lower + upper) + decay) * theta
            on_now = (t_now - dt_s) < pulse_duration_s
            on_next = t_now <= pulse_duration_s
            q_avg = q_density * (0.5 * (1.0 if on_now else 0.0)
                                 + 0.5 * (1.0 if on_next else 0.0))
            rhs += dt_s * q_avg * self.source_mask / self.rho_c
            theta_next = solve_banded((1, 1), a_banded, rhs)
            temp = theta_next + self.ambient
            times[step] = t_now
            gst_temp[step] = float(np.mean(temp[self.source_mask]))
        return times, gst_temp

    def step_response(
        self, absorbed_power_w: float, duration_s: float = 200e-9,
        dt_s: float = 0.25e-9,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Heating step response of the GST film (no cool-down phase)."""
        return self.simulate(absorbed_power_w, duration_s, duration_s, dt_s)


# ---------------------------------------------------------------------------
# Lumped single-pole RC model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LumpedThermalModel:
    """Single-pole thermal model with analytic responses.

    ``thermal_resistance_k_per_w`` maps *incident* optical power at the cell
    to steady-state temperature rise; ``time_constant_s`` is the RC time.
    Defaults are calibrated to the paper's reset-energy case studies — see
    module docstring.
    """

    thermal_resistance_k_per_w: float = 1.518e5
    time_constant_s: float = 26e-9
    ambient_k: float = AMBIENT_TEMPERATURE_K

    def __post_init__(self) -> None:
        if self.thermal_resistance_k_per_w <= 0.0 or self.time_constant_s <= 0.0:
            raise SolverError("thermal resistance and time constant must be positive")

    @property
    def heat_capacity_j_per_k(self) -> float:
        return self.time_constant_s / self.thermal_resistance_k_per_w

    # -- heating ----------------------------------------------------------

    def steady_state_k(self, power_w: float) -> float:
        """Asymptotic temperature for a continuous incident power."""
        return self.ambient_k + power_w * self.thermal_resistance_k_per_w

    def temperature_k(self, power_w: float, time_s: float) -> float:
        """Temperature after heating for ``time_s`` from ambient."""
        if time_s < 0.0:
            raise SolverError("time must be non-negative")
        rise = power_w * self.thermal_resistance_k_per_w
        return self.ambient_k + rise * (1.0 - math.exp(-time_s / self.time_constant_s))

    def time_to_temperature_s(self, power_w: float, target_k: float) -> float:
        """Heating time from ambient to ``target_k``; raises if unreachable."""
        rise_needed = target_k - self.ambient_k
        if rise_needed <= 0.0:
            return 0.0
        rise_max = power_w * self.thermal_resistance_k_per_w
        if rise_needed >= rise_max:
            raise SolverError(
                f"target {target_k:.0f} K unreachable: steady state is "
                f"{self.ambient_k + rise_max:.0f} K at {power_w * 1e3:.2f} mW"
            )
        return -self.time_constant_s * math.log(1.0 - rise_needed / rise_max)

    def power_for_temperature_w(self, target_k: float) -> float:
        """Continuous power whose steady state is exactly ``target_k``."""
        rise = target_k - self.ambient_k
        if rise < 0.0:
            raise SolverError("target below ambient")
        return rise / self.thermal_resistance_k_per_w

    # -- cooling -----------------------------------------------------------

    def cooling_temperature_k(self, start_k: float, time_s: float) -> float:
        """Free-cooling temperature from ``start_k`` after ``time_s``."""
        if time_s < 0.0:
            raise SolverError("time must be non-negative")
        return self.ambient_k + (start_k - self.ambient_k) * math.exp(
            -time_s / self.time_constant_s
        )

    def time_to_cool_s(self, start_k: float, target_k: float) -> float:
        """Free-cooling time from ``start_k`` down to ``target_k``."""
        if target_k <= self.ambient_k:
            raise SolverError("cannot cool to or below ambient")
        if target_k >= start_k:
            return 0.0
        return self.time_constant_s * math.log(
            (start_k - self.ambient_k) / (target_k - self.ambient_k)
        )

    def quench_rate_k_per_s(self, temperature_k: float) -> float:
        """Instantaneous cooling rate while free-cooling through ``T``."""
        return (temperature_k - self.ambient_k) / self.time_constant_s


def calibrate_lumped_from_layered(
    solver: LayeredHeatSolver,
    probe_power_w: float = 1e-3,
    duration_s: float = 300e-9,
) -> LumpedThermalModel:
    """Fit a lumped model to the layered solver's step response.

    The thermal resistance comes from the final temperature of a long step;
    the time constant from the 63.2 % rise time.  Used by tests to confirm
    the two thermal models agree on time scales (within their structural
    differences), and available for users who change the stack.
    """
    times, temps = solver.step_response(probe_power_w, duration_s)
    rise = temps[-1] - solver.ambient
    if rise <= 0.0:
        raise SolverError("step response produced no temperature rise")
    resistance = rise / probe_power_w
    target = solver.ambient + rise * (1.0 - math.exp(-1.0))
    idx = int(np.searchsorted(temps, target))
    idx = min(max(idx, 1), len(times) - 1)
    tau = float(times[idx])
    return LumpedThermalModel(
        thermal_resistance_k_per_w=float(resistance),
        time_constant_s=tau,
        ambient_k=solver.ambient,
    )
