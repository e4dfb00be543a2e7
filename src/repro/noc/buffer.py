"""Input virtual-channel buffers with wormhole semantics.

Each physical channel (PC) of a router owns :data:`repro.config.VCS_PER_PC`
virtual channels, each a FIFO of :data:`repro.config.FLIT_BUFFER_DEPTH`
flits. A VC is *allocated* to one packet from its head flit's arrival until
its tail flit departs; body flits of a wormhole never interleave with other
packets inside a VC.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.noc.flit import Flit


@dataclass
class Occupancy:
    """What one router's VCs buffer, counted as flits enter and leave.

    Every VC of a router shares the router's ``Occupancy``; ``push`` and
    ``pop`` keep it current. ``active`` is shared by every router of a
    network: it holds the ``rank`` (position in ``topology.nodes``) of
    each router that buffers at least one flit, so the network sweeps
    only those.
    """

    rank: int = 0
    active: set[int] = field(default_factory=set)
    flits: int = 0
    #: Buffered flits bound for several destinations (multicast heads).
    multicast_heads: int = 0

    def add(self, flit: Flit) -> None:
        if not self.flits:
            self.active.add(self.rank)
        self.flits += 1
        if len(flit.destinations) > 1:
            self.multicast_heads += 1

    def remove(self, flit: Flit) -> None:
        self.flits -= 1
        if not self.flits:
            self.active.discard(self.rank)
        if len(flit.destinations) > 1:
            self.multicast_heads -= 1


@dataclass
class VirtualChannel:
    """One VC FIFO plus its wormhole bookkeeping."""

    port: object
    index: int
    depth: int
    #: Counts of the router this VC belongs to (shared by its VCs).
    router_occupancy: Occupancy = field(
        default_factory=Occupancy, repr=False, compare=False
    )
    fifo: deque[Flit] = field(default_factory=deque)
    #: Packet currently occupying the VC (None = free).
    active_packet: int | None = None
    #: Output port allocated to the active packet (set when its head flit
    #: wins switch allocation; body flits inherit it).
    out_port: object | None = None
    #: Downstream VC allocated to the active packet.
    out_vc: int | None = None
    #: Most flits ever buffered at once (occupancy high-water mark).
    max_occupancy: int = 0

    @property
    def is_free(self) -> bool:
        """A VC is free for a new packet when idle and drained."""
        return self.active_packet is None and not self.fifo

    @property
    def occupancy(self) -> int:
        return len(self.fifo)

    @property
    def has_space(self) -> bool:
        return len(self.fifo) < self.depth

    def head(self) -> Flit | None:
        return self.fifo[0] if self.fifo else None

    def push(self, flit: Flit) -> None:
        """Buffer an arriving flit; head flits claim the VC."""
        if len(self.fifo) >= self.depth:
            raise SimulationError(
                f"VC overflow at port {self.port} vc {self.index}: "
                "credit flow control violated"
            )
        if flit.kind.is_head:
            # A head flit may enter a VC that is free or one already
            # reserved for its own packet (upstream reserves at switch time).
            if self.active_packet not in (None, flit.packet.packet_id):
                raise SimulationError(
                    f"head flit of packet {flit.packet.packet_id} entered VC "
                    f"held by packet {self.active_packet}"
                )
            self.active_packet = flit.packet.packet_id
        else:
            if self.active_packet != flit.packet.packet_id:
                raise SimulationError(
                    "body flit entered a VC not allocated to its packet"
                )
        self.fifo.append(flit)
        if len(self.fifo) > self.max_occupancy:
            self.max_occupancy = len(self.fifo)
        self.router_occupancy.add(flit)

    def pop(self) -> Flit:
        """Remove the head flit; tail flits release the VC."""
        if not self.fifo:
            raise SimulationError("pop from empty VC")
        flit = self.fifo.popleft()
        self.router_occupancy.remove(flit)
        if flit.kind.is_tail:
            self.active_packet = None
            self.out_port = None
            self.out_vc = None
        return flit


def make_input_unit(
    port: object, num_vcs: int, depth: int, occupancy: Occupancy
) -> list[VirtualChannel]:
    """Create the VC set of one physical input channel, counting into the
    owning router's *occupancy*."""
    return [
        VirtualChannel(port=port, index=i, depth=depth, router_occupancy=occupancy)
        for i in range(num_vcs)
    ]
