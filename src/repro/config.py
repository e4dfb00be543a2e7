"""System parameters of the networked L2 cache (Table 1 of the paper).

The paper evaluates a 16 MB L2 cache built from 256 x 64 KB banks behind a
16x16 wormhole-routed mesh at 65 nm, clocked with the 5 GHz core. This module
centralizes every timing and sizing constant so that all simulators (flit
level and transaction level) and all area models agree on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from repro.errors import ConfigurationError

#: Cache block (line) size in bytes.
BLOCK_SIZE_BYTES = 64

#: Flit size in bits (the link is 16 B wide).
FLIT_SIZE_BITS = 128

#: Number of flits in a packet that carries only an address (read request,
#: miss/hit notification, completion notification).
CONTROL_PACKET_FLITS = 1

#: Number of flits in a packet that carries a 64 B block (write request,
#: replacement transfer, memory fill, hit-data forwarding): 32-bit address +
#: 64 B data + per-flit overhead (type 2, size 7, routing 8 and comm type
#: 1 bits) split into five flits (Section 5).
DATA_PACKET_FLITS = 5

#: Base (uncontended) off-chip memory latency in core cycles.
MEMORY_BASE_LATENCY = 130

#: Additional pipelined memory cycles per 8 bytes transferred.
MEMORY_CYCLES_PER_8B = 4

#: Latency in cycles of one router pipeline stage (Table 1).
ROUTER_STAGE_LATENCY = 1

#: Number of virtual channels per physical channel.
VCS_PER_PC = 4

#: Flit buffer depth (flits) of each virtual channel.
FLIT_BUFFER_DEPTH = 4


def memory_access_latency(bytes_transferred: int = BLOCK_SIZE_BYTES) -> int:
    """Latency of one off-chip memory access moving *bytes_transferred* bytes.

    The memory is pipelined: 130 cycles plus 4 cycles per 8 B (Table 1). A
    64 B block therefore costs 130 + 32 = 162 cycles.
    """
    if bytes_transferred < 0:
        raise ConfigurationError("bytes_transferred must be non-negative")
    chunks = (bytes_transferred + 7) // 8
    return MEMORY_BASE_LATENCY + MEMORY_CYCLES_PER_8B * chunks


@dataclass(frozen=True)
class BankTiming:
    """Timing of a single cache bank of a given capacity (Table 1)."""

    capacity_bytes: int
    #: Per-hop global wire delay (cycles) across a tile of this bank size.
    wire_delay: int
    #: Bank access latency (cycles) for tag matching only.
    tag_latency: int
    #: Bank access latency (cycles) for tag matching + replacement.
    tag_replace_latency: int

    @classmethod
    def for_capacity(cls, capacity_bytes: int) -> "BankTiming":
        """Return the Table-1 timing entry for *capacity_bytes*.

        Raises :class:`ConfigurationError` for capacities the paper does not
        characterize.
        """
        try:
            return _BANK_TIMING[capacity_bytes]
        except KeyError:
            supported = ", ".join(str(k) for k in sorted(_BANK_TIMING))
            raise ConfigurationError(
                f"unsupported bank capacity {capacity_bytes}; "
                f"supported: {supported}"
            ) from None


#: Supported bank capacities (bytes) with their Table-1 timing; read-only,
#: so a model that wants other wires builds them into its own topology.
_BANK_TIMING: Mapping[int, BankTiming] = MappingProxyType({
    timing.capacity_bytes: timing
    for timing in (
        BankTiming(64 * 1024, wire_delay=1, tag_latency=2, tag_replace_latency=3),
        BankTiming(128 * 1024, wire_delay=2, tag_latency=4, tag_replace_latency=4),
        BankTiming(256 * 1024, wire_delay=2, tag_latency=4, tag_replace_latency=5),
        BankTiming(512 * 1024, wire_delay=3, tag_latency=5, tag_replace_latency=6),
    )
})


def supported_bank_capacities() -> tuple[int, ...]:
    """Bank capacities (bytes) characterized by Table 1, ascending."""
    return tuple(sorted(_BANK_TIMING))


@dataclass(frozen=True)
class AddressLayout:
    """Bit layout of the 32-bit physical address (Section 5).

    tag (12) | index (10) | bank-column (4) | offset (6)
    """

    tag_bits: int = 12
    index_bits: int = 10
    column_bits: int = 4
    offset_bits: int = 6

    def __post_init__(self) -> None:
        total = self.tag_bits + self.index_bits + self.column_bits + self.offset_bits
        if total != 32:
            raise ConfigurationError(f"address fields must sum to 32 bits, got {total}")
        for name in ("tag_bits", "index_bits", "column_bits", "offset_bits"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")

    @property
    def num_columns(self) -> int:
        """Number of bank columns selectable by the bank-column field."""
        return 1 << self.column_bits

    @property
    def sets_per_bank(self) -> int:
        """Number of index values (sets) inside each bank column."""
        return 1 << self.index_bits


@dataclass(frozen=True)
class RouterConfig:
    """Microarchitectural parameters of one wormhole router (Table 1)."""

    num_vcs: int = VCS_PER_PC
    buffer_depth: int = FLIT_BUFFER_DEPTH
    stage_latency: int = ROUTER_STAGE_LATENCY
    single_cycle: bool = True

    def __post_init__(self) -> None:
        if self.num_vcs <= 0:
            raise ConfigurationError("num_vcs must be positive")
        if self.buffer_depth <= 0:
            raise ConfigurationError("buffer_depth must be positive")
        if self.stage_latency <= 0:
            raise ConfigurationError("stage_latency must be positive")

    @property
    def hop_latency(self) -> int:
        """Cycles a flit spends in one router (1 for the single-cycle design,
        5 pipeline stages otherwise)."""
        return self.stage_latency if self.single_cycle else 5 * self.stage_latency


def packet_flits(carries_block: bool) -> int:
    """Number of flits of a packet (Section 5 flitization).

    Control packets (requests/notifications) fit in one 128-bit flit; packets
    that carry a 64 B block need five flits.
    """
    return DATA_PACKET_FLITS if carries_block else CONTROL_PACKET_FLITS
