"""Cacti-3.0-style bank area and latency model (Section 5, Table 1).

Cacti decomposes an SRAM bank into data/tag arrays, decoders, and sense
amps; its area grows slightly sub-linearly with capacity because periphery
is amortized over larger arrays. We model that with a calibrated power law

    area(C) = A64 * (C / 64 KB) ** b

whose exponent reproduces the paper's Table-4 bank areas: a 16 MB cache of
256 x 64 KB banks occupies ~271 mm^2 (47.8 % of Design A's 567.7 mm^2),
while the same capacity in non-uniform banks drops to ~246 mm^2 because
the big banks are denser per byte.

Access latencies come straight from Table 1 (the paper itself tabulates
the Cacti output rather than re-deriving it per experiment).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import BankTiming
from repro.errors import ConfigurationError

KB = 1024

#: Calibrated 65 nm area of one 64 KB bank (mm^2): 271 mm^2 / 256 banks.
AREA_64KB_MM2 = 1.060
#: Capacity exponent: larger banks amortize periphery (sub-linear).
CAPACITY_EXPONENT = 0.93


@dataclass(frozen=True)
class BankAreaModel:
    """Analytic bank area at 65 nm."""

    area_64kb_mm2: float = AREA_64KB_MM2
    capacity_exponent: float = CAPACITY_EXPONENT

    def __post_init__(self) -> None:
        if self.area_64kb_mm2 <= 0:
            raise ConfigurationError("area_64kb_mm2 must be positive")
        if not 0 < self.capacity_exponent <= 1:
            raise ConfigurationError("capacity_exponent must be in (0, 1]")

    def area_mm2(self, capacity_bytes: int) -> float:
        """Die area of one bank of *capacity_bytes*."""
        if capacity_bytes <= 0:
            raise ConfigurationError("capacity must be positive")
        return self.area_64kb_mm2 * (capacity_bytes / (64 * KB)) ** self.capacity_exponent

    def density_mb_per_mm2(self, capacity_bytes: int) -> float:
        """Storage density of a bank (MB per mm^2); grows with capacity."""
        return capacity_bytes / (1024 * 1024) / self.area_mm2(capacity_bytes)

    @staticmethod
    def access_latency(capacity_bytes: int, replace: bool = False) -> int:
        """Table-1 bank access latency in cycles."""
        timing = BankTiming.for_capacity(capacity_bytes)
        return timing.tag_replace_latency if replace else timing.tag_latency
