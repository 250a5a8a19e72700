"""Device-model factory: one builder per Fig. 9 architecture label.

``build_device(name)`` returns the :class:`MemoryDeviceModel` the paper's
evaluation would configure in NVMain for that architecture:

* ``"COMET"`` — Table II timings, MDM-parallel buses, power stack from
  :class:`repro.arch.power.CometPowerModel`, per-line write energy from
  the calibrated cell programmer (Section III.B pulses).
* ``"COSMOS"`` — re-modeled Table II timings with the subtractive read
  flow and erase-before-write, power stack from
  :class:`repro.baselines.cosmos.CosmosPowerModel`.
* ``"EPCM-MM"`` — electrical PCM per :data:`repro.baselines.epcm.EPCM_MM`.
* ``"2D_DDR3" / "2D_DDR4" / "3D_DDR3" / "3D_DDR4"`` — DRAM row-buffer
  models with refresh.

Beyond the seven Fig. 9 labels, :data:`VARIANT_BUILDERS` names the
single-knob *ablation variants* the benchmark suite studies (bit
density, page policy, tuning mechanism, laser gating, COSMOS read
flow).  Variants are first-class architecture names — ``build_device``,
the evaluation engine, the result store and the evaluation server all
accept them — but they are deliberately **not** part of
:data:`ARCHITECTURE_NAMES`, so the default Fig. 9 grid stays the
paper's seven architectures.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional, Tuple

from ..arch.comet import CometArchitecture
from ..baselines.cosmos import CosmosArchitecture
from ..baselines.dram import DRAM_CONFIGS, DramConfig, dram_config
from ..baselines.epcm import EPCM_MM, EpcmConfig
from ..config import MAIN_MEMORY_CHANNELS
from ..errors import ConfigError, TraceError
from .devices import EnergyModel, MemoryDeviceModel, RefreshSpec, RowBufferTiming
from .tracegen import Workload, get_workload

ARCHITECTURE_NAMES: Tuple[str, ...] = (
    "2D_DDR3", "3D_DDR3", "2D_DDR4", "3D_DDR4", "EPCM-MM", "COSMOS", "COMET",
)

#: Electrical interface dynamic energy per photonic line access
#: (modulator drive + receiver + SerDes; ~1 pJ/bit class).
_PHOTONIC_INTERFACE_ENERGY_J = 1e-9


def build_comet_device(arch: Optional[CometArchitecture] = None) -> MemoryDeviceModel:
    """COMET device model from a configured architecture facade.

    The Fig. 9 part is 8 GB: eight 1 GiB channel devices (Table II — "4
    banks, 1 rank/channel, 1 device/rank"), each carrying its own MDM
    link.  The device model therefore exposes ``channels x 4`` independent
    banks and the power stack of all channels; per-busy-bank power gating
    in the controller keeps idle channels cheap.
    """
    comet = arch if arch is not None else CometArchitecture()
    timings = comet.timings
    channels = comet.channels
    power = comet.power_breakdown()
    # Per-line write energy: one pulse per cell of the written row.
    table = comet.programmer.level_table(comet.mlc)
    mean_pulse_j = sum(entry.energy_j for entry in table) / len(table)
    cells_per_line = timings.cache_line_bits // comet.bits_per_cell
    write_energy = cells_per_line * mean_pulse_j + _PHOTONIC_INTERFACE_ENERGY_J
    return MemoryDeviceModel(
        name="COMET",
        line_bytes=timings.cache_line_bits // 8,
        banks=timings.banks * channels,
        channels=channels,
        data_burst_ns=timings.burst_total_time_ns,
        interface_delay_ns=timings.electrical_interface_delay_ns,
        # The Fig. 5(f) write flow carries no inline erase: RESET pulses run
        # in background idle windows (non-volatile cells need no refresh, so
        # idle banks pre-erase), leaving the foreground write at the 170 ns
        # Table II programming envelope.
        read_occupancy_ns=timings.read_time_ns,
        write_occupancy_ns=timings.write_time_ns,
        shared_bus=False,  # each bank rides its own MDM mode
        burst_overlaps_array=True,
        # Section III.C: line interleaving + one MDM mode per bank give
        # every bank an independent scheduler, so transaction queueing
        # decomposes per bank too (the per-bank chains' precondition).
        per_bank_queues=True,
        # fast_path_class == "per_bank": the twin's per-bank chains.
        allow_fast_path=True,
        energy=EnergyModel(
            background_power_w=0.0,
            active_power_w=power.total_w * channels,
            read_energy_j=_PHOTONIC_INTERFACE_ENERGY_J,
            write_energy_j=write_energy,
        ),
    )


def build_cosmos_device(arch: Optional[CosmosArchitecture] = None) -> MemoryDeviceModel:
    """COSMOS device model (subtractive read, erase-before-write).

    The subtractive flow reads the whole 32x32 subarray, erases the target
    row and reads again (Section II.B); the subtracted subarray contents
    stay at the controller, so subsequent reads of the same subarray hit a
    *subarray buffer*.  We express that with row-buffer timing: a miss pays
    read + erase + read (25 + 250 + 25 ns), a hit just one read, and a
    4 KB "row" spanning the subarray's lines.  Writes always pay the full
    1.6 us pulse train.
    """
    cosmos = arch if arch is not None else CosmosArchitecture()
    timings = cosmos.timings
    channels = MAIN_MEMORY_CHANNELS
    power = cosmos.power_breakdown()
    subarray_lines = cosmos.organization.rows_per_subarray
    line_bytes = timings.cache_line_bits // 8
    if cosmos.subtractive_read:
        read_timing = dict(
            row_buffer=RowBufferTiming(
                t_rcd_ns=timings.read_time_ns,
                t_rp_ns=timings.erase_time_ns,
                t_cas_ns=timings.read_time_ns,
                t_wr_ns=0.0,
                row_size_bytes=subarray_lines * line_bytes,
            ),
        )
    else:
        # Idealized non-destructive read (the ablation baseline).
        read_timing = dict(read_occupancy_ns=timings.read_time_ns)
    return MemoryDeviceModel(
        name="COSMOS",
        line_bytes=line_bytes,
        banks=timings.banks * channels,
        channels=channels,
        data_burst_ns=timings.burst_total_time_ns,
        interface_delay_ns=timings.electrical_interface_delay_ns,
        write_occupancy_ns=timings.write_time_ns,
        shared_bus=False,  # generous lossless MDM-16 links (Section IV.B)
        burst_overlaps_array=True,
        # fast_path_class == "global_queue" (also for COSMOS-direct,
        # which shares this builder): the compiled exact-twin kernel of
        # the unshared global-FIFO recurrence.
        allow_fast_path=True,
        energy=EnergyModel(
            background_power_w=0.0,
            active_power_w=power.total_w * channels,
            read_energy_j=_PHOTONIC_INTERFACE_ENERGY_J,
            write_energy_j=(cosmos.write_energy_per_line_j()
                            + _PHOTONIC_INTERFACE_ENERGY_J),
        ),
        **read_timing,
    )


def build_epcm_device(config: EpcmConfig = EPCM_MM) -> MemoryDeviceModel:
    """Electrical-PCM device model."""
    return MemoryDeviceModel(
        name=config.name,
        line_bytes=config.line_bytes,
        banks=config.banks,
        data_burst_ns=config.data_burst_ns,
        interface_delay_ns=config.interface_delay_ns,
        read_occupancy_ns=config.read_latency_ns,
        write_occupancy_ns=config.write_latency_ns,
        shared_bus=True,
        bus_turnaround_ns=6.0,
        # fast_path_class == "shared_bus": the compiled exact-twin
        # kernel of the bus-ordered recurrence (no refresh on PCM).
        allow_fast_path=True,
        energy=EnergyModel(
            background_power_w=config.background_power_w,
            read_energy_j=config.read_energy_per_line_j,
            write_energy_j=config.write_energy_per_line_j,
        ),
    )


def build_dram_device(config: DramConfig) -> MemoryDeviceModel:
    """DRAM device model with row buffer and refresh."""
    return MemoryDeviceModel(
        name=config.name,
        line_bytes=config.line_bytes,
        banks=config.banks,
        data_burst_ns=config.data_burst_ns,
        interface_delay_ns=config.interface_delay_ns,
        row_buffer=RowBufferTiming(
            t_rcd_ns=config.t_rcd_ns,
            t_rp_ns=config.t_rp_ns,
            t_cas_ns=config.t_cas_ns,
            t_wr_ns=config.t_wr_ns,
            row_size_bytes=config.row_size_bytes,
            page_policy=config.page_policy,
        ),
        refresh=RefreshSpec(
            interval_ns=config.t_refi_ns,
            duration_ns=config.t_rfc_ns,
            energy_j=config.refresh_energy_j,
        ),
        shared_bus=config.shared_bus,
        bus_turnaround_ns=6.0,
        # fast_path_class == "shared_bus" (all DRAM configs keep the
        # bus): the compiled exact-twin kernel runs the refresh+bus
        # recurrence natively.
        allow_fast_path=True,
        energy=EnergyModel(
            background_power_w=config.background_power_w,
            read_energy_j=config.dynamic_energy_per_line_j,
            write_energy_j=config.dynamic_energy_per_line_j,
        ),
    )


# -- ablation variants ------------------------------------------------------


def _variant_comet_bits(bits: int) -> MemoryDeviceModel:
    """COMET at a non-default bit density (Fig. 7's b axis, end to end)."""
    device = build_comet_device(CometArchitecture(bits_per_cell=bits))
    return dataclasses.replace(device, name=f"COMET-b{bits}")


def _variant_comet_thermal() -> MemoryDeviceModel:
    """COMET with thermal instead of electro-optic microring tuning.

    Thermal access control replaces the ns-scale EO step of every access
    with the us-scale thermal settle (Section II.B's argument, made
    simulable): both occupancies stretch by the tuning-latency gap.
    """
    from ..photonics.ring import RingTuningModel, TuningMechanism

    eo = RingTuningModel.from_parameters(TuningMechanism.ELECTRO_OPTIC)
    thermal = RingTuningModel.from_parameters(TuningMechanism.THERMAL)
    extra_ns = (thermal.latency_s - eo.latency_s) * 1e9
    base = build_comet_device()
    return dataclasses.replace(
        base,
        name="COMET-thermal",
        read_occupancy_ns=base.read_occupancy_ns + extra_ns,
        write_occupancy_ns=base.write_occupancy_ns + extra_ns,
    )


def _variant_comet_ungated() -> MemoryDeviceModel:
    """COMET with an always-on optical rail (no laser power gating)."""
    base = build_comet_device()
    return dataclasses.replace(
        base, name="COMET-ungated",
        energy=dataclasses.replace(base.energy, gate_active_power=False))


def _variant_cosmos_direct() -> MemoryDeviceModel:
    """Idealized COSMOS with a direct, non-destructive read flow."""
    device = build_cosmos_device(CosmosArchitecture(subtractive_read=False))
    return dataclasses.replace(device, name="COSMOS-direct")


def _variant_ddr4_closed() -> MemoryDeviceModel:
    """3D_DDR4 with a closed-page controller (fairness ablation)."""
    device = build_dram_device(dataclasses.replace(
        dram_config("3D_DDR4"), page_policy="closed"))
    return dataclasses.replace(device, name="3D_DDR4-closed")


#: Named ablation variants: single-knob departures from the Fig. 9
#: devices, addressable everywhere an architecture name is (engine,
#: store, sweeps, server) so ablation results are content-addressed and
#: cached like any other grid cell.
VARIANT_BUILDERS: Dict[str, Callable[[], MemoryDeviceModel]] = {
    "COMET-b1": lambda: _variant_comet_bits(1),
    "COMET-b2": lambda: _variant_comet_bits(2),
    "COMET-thermal": _variant_comet_thermal,
    "COMET-ungated": _variant_comet_ungated,
    "COSMOS-direct": _variant_cosmos_direct,
    "3D_DDR4-closed": _variant_ddr4_closed,
}

VARIANT_NAMES: Tuple[str, ...] = tuple(sorted(VARIANT_BUILDERS))


def known_architectures() -> Tuple[str, ...]:
    """Every name :func:`build_device` accepts: the Fig. 9 seven plus
    the ablation variants."""
    return ARCHITECTURE_NAMES + VARIANT_NAMES


def build_device(name: str) -> MemoryDeviceModel:
    """Build the device model for any Fig. 9 architecture label or
    registered ablation variant."""
    if name == "COMET":
        return build_comet_device()
    if name == "COSMOS":
        return build_cosmos_device()
    if name == "EPCM-MM":
        return build_epcm_device()
    if name in DRAM_CONFIGS:
        return build_dram_device(DRAM_CONFIGS[name])
    if name in VARIANT_BUILDERS:
        return VARIANT_BUILDERS[name]()
    raise ConfigError(
        f"unknown architecture {name!r}; known: {known_architectures()}"
    )


def build_workload(name: str) -> Workload:
    """Look up any named workload preset (SPEC, ``mix_*``, phased).

    The workload-side twin of :func:`build_device`: together they name
    every cell of the evaluation grid, and both raise ``ConfigError``
    on unknown names.
    """
    try:
        return get_workload(name)
    except TraceError as error:
        raise ConfigError(str(error)) from None
