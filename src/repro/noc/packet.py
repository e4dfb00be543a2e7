"""Packets and the cache-protocol message vocabulary (Section 5).

The networked cache does not use separate address/data buses: every message
is a packet of flits. Address-only messages (requests, notifications) fit in
one flit; block-carrying messages (write requests, replacement transfers,
memory fills, hit-data forwarding) are five flits.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro import config
from repro.errors import ProtocolError
from repro.noc.flit import Flit, FlitType

_packet_ids = itertools.count()


class MessageType(enum.Enum):
    """Every message class exchanged in the cache protocol (Figs. 2-4)."""

    READ_REQUEST = "read_request"
    WRITE_REQUEST = "write_request"
    #: Evicted block pushed to the next-farther bank (Fast-LRU chain) or a
    #: block demoted/swapped by LRU/Promotion.
    REPLACEMENT = "replacement"
    #: Requested block forwarded from the hit bank to the MRU bank / core.
    HIT_DATA = "hit_data"
    #: New block delivered from memory to the MRU bank.
    MEMORY_FILL = "memory_fill"
    #: Dirty victim written back from the LRU bank to memory.
    WRITEBACK = "writeback"
    #: Per-bank miss notification to the core (multicast tag match).
    MISS_NOTIFY = "miss_notify"
    #: Hit notification to the core.
    HIT_NOTIFY = "hit_notify"
    #: Replacement-completion notification.
    COMPLETION_NOTIFY = "completion_notify"
    #: Request from the cache controller to the memory controller.
    MEMORY_REQUEST = "memory_request"

    @property
    def carries_block(self) -> bool:
        """True for the 5-flit messages that move a 64 B block."""
        return self in _BLOCK_CARRYING


_BLOCK_CARRYING = frozenset(
    {
        MessageType.WRITE_REQUEST,
        MessageType.REPLACEMENT,
        MessageType.HIT_DATA,
        MessageType.MEMORY_FILL,
        MessageType.WRITEBACK,
    }
)


@dataclass
class Packet:
    """A protocol message travelling the network as a wormhole of flits."""

    message: MessageType
    source: object
    destinations: tuple
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    created_at: int = 0

    def __post_init__(self) -> None:
        if not self.destinations:
            raise ProtocolError("packet needs at least one destination")
        if self.is_multicast and self.message.carries_block:
            raise ProtocolError(
                "only single-flit control packets may be multicast; "
                f"{self.message.value} carries a block"
            )

    @property
    def is_multicast(self) -> bool:
        return len(self.destinations) > 1

    @property
    def num_flits(self) -> int:
        """Flit count per Section 5: 1 control flit or 5 block flits."""
        return config.packet_flits(self.message.carries_block)

    def flits(self) -> list[Flit]:
        """Materialize the packet's flits for the flit-level simulator."""
        count = self.num_flits
        if count == 1:
            return [
                Flit(
                    packet=self,
                    kind=FlitType.HEAD_TAIL,
                    index=0,
                    destinations=tuple(self.destinations),
                )
            ]
        out: list[Flit] = []
        for i in range(count):
            if i == 0:
                kind = FlitType.HEAD
            elif i == count - 1:
                kind = FlitType.TAIL
            else:
                kind = FlitType.BODY
            out.append(
                Flit(
                    packet=self,
                    kind=kind,
                    index=i,
                    destinations=tuple(self.destinations) if i == 0 else (),
                )
            )
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(id={self.packet_id}, {self.message.value}, "
            f"{self.source}->{self.destinations})"
        )
