"""Device timing/energy models the simulator executes against.

One dataclass, :class:`MemoryDeviceModel`, covers every Fig. 9
architecture.  Fixed-latency devices (photonic PCM, electrical PCM) set
``read_occupancy_ns`` / ``write_occupancy_ns`` directly; DRAM devices
instead attach a :class:`RowBufferTiming`, and the controller computes
hit/miss service times.  Refresh (DRAM only) is a :class:`RefreshSpec`.
Energy is background power + per-operation dynamic energy + (for the
photonic parts) an *active* power that burns only while the device is
serving — lasers and SOAs are gated per access, Section III.E.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigError
from .request import MemRequest


@dataclass(frozen=True)
class RowBufferTiming:
    """DRAM row-buffer timing under an open- or closed-page policy.

    * ``open`` (default): rows stay active after an access; a hit pays
      tCAS only, a miss pays precharge + activate + tCAS.
    * ``closed``: every access auto-precharges, so every access pays
      activate + tCAS but never a preceding precharge — the
      latency-predictable policy that wins on low-locality traffic.
    """

    t_rcd_ns: float
    t_rp_ns: float
    t_cas_ns: float
    t_wr_ns: float
    row_size_bytes: int
    page_policy: str = "open"

    def __post_init__(self) -> None:
        if min(self.t_rcd_ns, self.t_rp_ns, self.t_cas_ns) <= 0.0:
            raise ConfigError("row timing parameters must be positive")
        if self.row_size_bytes <= 0:
            raise ConfigError("row size must be positive")
        if self.page_policy not in ("open", "closed"):
            raise ConfigError(
                f"page policy must be 'open' or 'closed', got "
                f"{self.page_policy!r}")

    @property
    def is_open_page(self) -> bool:
        return self.page_policy == "open"

    def service_ns(self, row_hit: bool, is_read: bool) -> float:
        """Array time before the data burst for one access."""
        if self.is_open_page:
            core = self.t_cas_ns if row_hit else (self.t_rp_ns + self.t_rcd_ns
                                                  + self.t_cas_ns)
        else:
            # Auto-precharge: always activate + CAS, never a precharge.
            core = self.t_rcd_ns + self.t_cas_ns
        if not is_read:
            core += self.t_wr_ns
        return core


@dataclass(frozen=True)
class RefreshSpec:
    """Periodic all-bank refresh."""

    interval_ns: float
    duration_ns: float
    energy_j: float = 0.0

    def __post_init__(self) -> None:
        if self.interval_ns <= 0.0 or self.duration_ns < 0.0:
            raise ConfigError("refresh interval must be positive")
        if self.duration_ns >= self.interval_ns:
            raise ConfigError("refresh duration must be below the interval")


@dataclass(frozen=True)
class EnergyModel:
    """Energy accounting parameters of one device.

    ``gate_active_power`` models run-time laser/SOA power management in the
    spirit of the paper's future-work citation [43]: when True (default),
    the active power is charged only in proportion to the busy-bank
    fraction; when False the optical power rail burns for the whole run
    (the conservative always-on assumption).  The laser-gating ablation
    bench quantifies the difference.
    """

    background_power_w: float = 0.0
    active_power_w: float = 0.0
    read_energy_j: float = 0.0
    write_energy_j: float = 0.0
    gate_active_power: bool = True

    def __post_init__(self) -> None:
        for name in ("background_power_w", "active_power_w",
                     "read_energy_j", "write_energy_j"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be non-negative")


@dataclass(frozen=True)
class MemoryDeviceModel:
    """Everything the controller needs to simulate one architecture."""

    name: str
    line_bytes: int
    banks: int
    data_burst_ns: float
    interface_delay_ns: float
    energy: EnergyModel
    #: Independent channels the part spans (each brings its own
    #: transaction queue at the controller).
    channels: int = 1
    read_occupancy_ns: Optional[float] = None
    write_occupancy_ns: Optional[float] = None
    row_buffer: Optional[RowBufferTiming] = None
    refresh: Optional[RefreshSpec] = None
    shared_bus: bool = True
    #: Bus dead time when a shared bus switches between reads and writes
    #: (driver turnaround / ODT settle); photonic links have none.
    bus_turnaround_ns: float = 0.0
    #: Photonic readout streams onto the (unshared) link while the array
    #: access completes, so the bank frees after the array time alone.
    burst_overlaps_array: bool = False
    #: The controller's transaction queue decomposes per bank: each bank
    #: admits against its own slice of the queue instead of one global
    #: FIFO.  True for COMET, whose cross-layer design gives every bank
    #: its own MDM mode and an independent per-bank scheduler (Section
    #: III.C) — no shared resource couples admission across banks.
    #: False keeps the global open-loop throttle, which is the right
    #: model for devices whose controller centralizes transactions
    #: (DRAM/EPCM shared buses, COSMOS's subtractive read-erase-read
    #: orchestration).
    per_bank_queues: bool = False
    #: Master eligibility switch for the compiled scheduler twin.
    #: True lets :attr:`fast_path_class` pick a dispatch class from the
    #: timing structure; False pins the device to the Python mirror in
    #: every tier (forced-fallback test cells, exotic device models).
    allow_fast_path: bool = True

    def __post_init__(self) -> None:
        if self.banks < 1 or self.line_bytes < 1:
            raise ConfigError("banks and line size must be positive")
        if self.data_burst_ns < 0.0 or self.interface_delay_ns < 0.0:
            raise ConfigError("burst and interface delay must be non-negative")
        has_fixed_read = self.read_occupancy_ns is not None
        if has_fixed_read == (self.row_buffer is not None):
            raise ConfigError(
                "device must define either a fixed read occupancy or "
                "row-buffer timing, not both/neither"
            )
        if self.row_buffer is None and self.write_occupancy_ns is None:
            raise ConfigError(
                "fixed-latency devices must define a write occupancy"
            )

    # -- scheduling structure -----------------------------------------------

    @property
    def contention_free(self) -> bool:
        """No shared bus and no refresh: every timing dependency is a
        per-bank chain, the structure per-bank queues decompose over
        (all-photonic devices; DRAM fails on both counts)."""
        return not self.shared_bus and self.refresh is None

    @property
    def fast_path_class(self) -> Optional[str]:
        """The dispatch class the compiled twin serves this device's
        timing structure under (``None`` = the Python mirror only).

        * ``"per_bank"`` — contention-free with per-bank queues (COMET):
          the schedule decomposes into independent per-bank chains.
        * ``"shared_bus"`` — a shared data bus orders every burst (DRAM
          with refresh, electrical PCM).
        * ``"global_queue"`` — contention-free behind one global FIFO
          (COSMOS).
        * ``None`` — refresh without a shared bus (no Fig. 9 device),
          or ``allow_fast_path=False``: the mirror's global loop, which
          handles every flag combination, serves it.
        """
        if not self.allow_fast_path:
            return None
        if self.contention_free and self.per_bank_queues:
            return "per_bank"
        if self.shared_bus:
            return "shared_bus"
        if self.refresh is None:
            return "global_queue"
        return None

    # -- address geometry ---------------------------------------------------

    def bank_of(self, request: MemRequest) -> int:
        """Bank mapping.

        Row-buffer devices interleave banks at *row* granularity (the
        open-page-friendly mapping NVMain defaults to, keeping sequential
        lines in one row); fixed-latency photonic devices interleave at
        line granularity, which is COMET's stated cache-line interleaving
        (Section III.C).
        """
        if self.row_buffer is not None:
            return (request.address // self.row_buffer.row_size_bytes) % self.banks
        return (request.address // self.line_bytes) % self.banks

    def row_of(self, request: MemRequest) -> int:
        """Row (page) index within the bank, for row-buffer devices."""
        if self.row_buffer is None:
            return 0
        return request.address // (self.row_buffer.row_size_bytes * self.banks)

    # -- service times --------------------------------------------------------

    def array_time_ns(self, request: MemRequest, row_hit: bool) -> float:
        """Bank-array time (before the data burst) for one access.

        A fixed ``write_occupancy_ns`` overrides the row-buffer path for
        writes — used by COSMOS, whose reads hit/miss the subtractively
        filled subarray buffer while writes always pay the full
        erase-plus-program pulse train.
        """
        if not request.is_read and self.write_occupancy_ns is not None:
            return float(self.write_occupancy_ns)
        if self.row_buffer is not None:
            return self.row_buffer.service_ns(row_hit, request.is_read)
        return float(self.read_occupancy_ns)

    def op_energy_j(self, request: MemRequest) -> float:
        return self.energy.read_energy_j if request.is_read \
            else self.energy.write_energy_j
