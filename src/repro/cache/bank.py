"""Bank descriptors: capacity, way count, and Table-1 timing.

A *column* (mesh) or *spike* (halo) of banks implements one group of bank
sets. With uniform 64 KB banks each bank is direct-mapped and holds exactly
one way of the 16-way bank set. Non-uniform designs (D, F) build a column
from five banks -- 64 KB, 64 KB, 128 KB, 256 KB, 512 KB -- holding 1, 1, 2,
4, and 8 ways respectively, so capacity (and access time) grows with
distance from the core while associativity stays 16.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import BankTiming
from repro.errors import ConfigurationError

#: The paper's non-uniform column: capacities in MRU -> LRU order.
NON_UNIFORM_COLUMN = (
    64 * 1024,
    64 * 1024,
    128 * 1024,
    256 * 1024,
    512 * 1024,
)


@dataclass(frozen=True)
class BankDescriptor:
    """One bank's position, way count, and timing inside a column."""

    position: int
    capacity_bytes: int
    ways: int
    timing: BankTiming


def bank_descriptors_for_column(
    capacities: list[int] | tuple[int, ...],
    block_size: int = 64,
    sets_per_bank: int = 1024,
) -> list[BankDescriptor]:
    """Build the descriptors of one column from bank capacities.

    Each bank's way count follows from its capacity: a bank of capacity C
    holds ``C / (block_size * sets_per_bank)`` ways of every set. The total
    across the column is the bank set's associativity.
    """
    descriptors: list[BankDescriptor] = []
    for position, capacity in enumerate(capacities):
        blocks = capacity // block_size
        if blocks % sets_per_bank:
            raise ConfigurationError(
                f"bank capacity {capacity} not divisible into {sets_per_bank} sets"
            )
        ways = blocks // sets_per_bank
        if ways < 1:
            raise ConfigurationError(
                f"bank capacity {capacity} holds no complete way"
            )
        descriptors.append(
            BankDescriptor(
                position=position,
                capacity_bytes=capacity,
                ways=ways,
                timing=BankTiming.for_capacity(capacity),
            )
        )
    return descriptors


def bank_of_way(descriptors: list[BankDescriptor]) -> list[int]:
    """Map each global way index to the bank position that stores it."""
    mapping: list[int] = []
    for descriptor in descriptors:
        mapping.extend([descriptor.position] * descriptor.ways)
    return mapping
