"""Flits: the unit of link-level flow control (Section 5 flitization).

A flit is 128 bits (the link is 16 B wide) and carries overhead fields:
type (2 b), size (7 b), routing (8 b), and communication type (1 b). A
control packet (address only) is a single flit; a block-carrying packet is
five flits.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING


if TYPE_CHECKING:
    from repro.noc.packet import Packet

_flit_ids = itertools.count()


class FlitType(enum.Enum):
    """Position of a flit inside its packet (the 2-bit `type` field)."""

    HEAD = "head"
    BODY = "body"
    TAIL = "tail"
    #: A packet that fits in one flit is simultaneously head and tail.
    HEAD_TAIL = "head_tail"

    def __init__(self, value: str) -> None:
        # Plain attributes, not properties: the object core reads them
        # for every flit it buffers, pops and switches.
        self.is_head = value in ("head", "head_tail")
        self.is_tail = value in ("tail", "head_tail")


@dataclass
class Flit:
    """One 128-bit flit in flight.

    ``destinations`` is carried on head flits; for a unicast packet it has a
    single element. The multicast router narrows it as replicas split off.
    """

    packet: "Packet"
    kind: FlitType
    index: int
    destinations: tuple[object, ...] = ()
    flit_id: int = field(default_factory=lambda: next(_flit_ids))
    injected_at: int | None = None
    ejected_at: int | None = None
    hops: int = 0
    #: First cycle the flit may compete for switch allocation (set on
    #: arrival; models the non-switch pipeline stages of the router).
    eligible_at: int = 0

    @property
    def is_multicast(self) -> bool:
        """The 1-bit communication-type field."""
        return len(self.destinations) > 1

    def clone_for(self, destinations: tuple[object, ...]) -> "Flit":
        """Replicate this flit for a subset of destinations (multicasting).

        The replica is a distinct flit (new id, zeroed hop count continues
        from the current value) belonging to the same packet.
        """
        return Flit(
            packet=self.packet,
            kind=self.kind,
            index=self.index,
            destinations=tuple(destinations),
            injected_at=self.injected_at,
            hops=self.hops,
            eligible_at=self.eligible_at,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Flit(id={self.flit_id}, pkt={self.packet.packet_id}, "
            f"{self.kind.value}, dst={self.destinations})"
        )
