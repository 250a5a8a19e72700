"""Memory request primitives."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

from ..errors import SimulationError


class OpType(enum.Enum):
    """Request operation type."""

    READ = "R"
    WRITE = "W"

    @classmethod
    def from_token(cls, token: str) -> "OpType":
        normalized = token.strip().upper()
        if normalized in ("R", "READ"):
            return cls.READ
        if normalized in ("W", "WRITE"):
            return cls.WRITE
        raise SimulationError(f"unknown operation token {token!r}")


@dataclass
class MemRequest:
    """One memory request as seen by the controller.

    ``arrival_ns`` is the wall-clock arrival; the simulator fills in the
    service fields (``start_ns``, ``finish_ns``, ``completion_ns``).
    """

    address: int
    op: OpType
    arrival_ns: float
    size_bytes: int = 128
    thread_id: int = 0
    start_ns: Optional[float] = None
    finish_ns: Optional[float] = None
    completion_ns: Optional[float] = None

    def __post_init__(self) -> None:
        if self.address < 0:
            raise SimulationError(f"negative address {self.address:#x}")
        if not (self.arrival_ns >= 0.0 and math.isfinite(self.arrival_ns)):
            raise SimulationError(
                f"arrival time must be finite and non-negative, got "
                f"{self.arrival_ns!r}")
        if self.size_bytes <= 0:
            raise SimulationError("request size must be positive")

    @property
    def is_read(self) -> bool:
        return self.op is OpType.READ

    @property
    def latency_ns(self) -> float:
        """End-to-end latency once simulated."""
        if self.completion_ns is None:
            raise SimulationError("request has not been simulated")
        return self.completion_ns - self.arrival_ns
