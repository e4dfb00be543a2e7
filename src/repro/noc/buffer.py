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
class VirtualChannel:
    """One VC FIFO plus its wormhole bookkeeping."""

    port: object
    index: int
    depth: int
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
        if not self.has_space:
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

    def pop(self) -> Flit:
        """Remove the head flit; tail flits release the VC."""
        if not self.fifo:
            raise SimulationError("pop from empty VC")
        flit = self.fifo.popleft()
        if flit.kind.is_tail:
            self.active_packet = None
            self.out_port = None
            self.out_vc = None
        return flit


def make_input_unit(port: object, num_vcs: int, depth: int) -> list[VirtualChannel]:
    """Create the VC set of one physical input channel."""
    return [VirtualChannel(port=port, index=i, depth=depth) for i in range(num_vcs)]
