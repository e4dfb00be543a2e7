"""Cache-protocol execution on the flit-level network.

Drives the message sequences of one D-NUCA access as real packets
through the cycle-accurate router fabric of a Table-3 design, in the
order the transaction model (:mod:`repro.core.flows`) costs them:

* the request -- a chain-replicated multicast down the column under a
  multicast scheme; under a unicast scheme a walk from bank to bank, each
  bank forwarding the request after its tag match, that ends at the hit
  bank or the LRU bank;
* under Multicast Fast-LRU, the pipelined eviction chain from the MRU
  bank to the hit bank (or the LRU bank on a miss);
* on a hit, the block from the hit bank to the core;
* on a miss, the memory request -- from the core once the LRU bank has
  notified it (multicast), or from the LRU bank itself (unicast) -- then
  the fill into the MRU bank, which forwards the block to the core.

LRU shift chains, Promotion swaps and the evicted block a unicast
Fast-LRU walk carries are not played. This closes the loop between the
two simulation fidelities: ``tests/test_protocol_validation.py`` checks
the transaction model's latencies against it, and ``repro validate``
re-enacts sampled transactions through it
(:func:`repro.validation.run_oracle`).

Banks are modeled as reactive endpoints: a delivery callback schedules
the bank's response packets ``tag_latency`` (or ``tag_replace_latency``)
cycles later via :meth:`Network.schedule_injection`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import memory_access_latency
from repro.core.designs import design_spec
from repro.core.flows import make_scheme
from repro.errors import ProtocolError
from repro.noc.network import Delivery, make_network
from repro.noc.packet import MessageType, Packet
from repro.noc.topology import NodeId


@dataclass
class ProtocolTrace:
    """Timing record of one protocol-level access.

    Raw event timestamps live in ``*_at`` fields (``None`` until the event
    happens); the guarded properties raise :class:`ProtocolError` instead
    of surfacing ``None`` into arithmetic, like :attr:`data_latency`.
    """

    issued: int
    request_arrivals: dict[int, int] = field(default_factory=dict)
    data_at_core: int | None = None
    chain_done_at: int | None = None
    memory_requested_at: int | None = None

    @property
    def data_latency(self) -> int:
        if self.data_at_core is None:
            raise ProtocolError("access has not completed")
        return self.data_at_core - self.issued

    @property
    def chain_done(self) -> int:
        if self.chain_done_at is None:
            raise ProtocolError("eviction chain has not completed")
        return self.chain_done_at

    @property
    def memory_requested(self) -> int:
        if self.memory_requested_at is None:
            raise ProtocolError("memory has not been requested")
        return self.memory_requested_at


class FlitLevelCacheProtocol:
    """Executes one design's accesses under one scheme on its flit fabric."""

    def __init__(
        self,
        design: str = "A",
        scheme: str = "multicast+fast_lru",
        core: str | None = None,
    ) -> None:
        self.geometry = design_spec(design).build()
        self.scheme = make_scheme(scheme)
        self.network = make_network(self.geometry.topology, core=core)
        self.core: NodeId = self.geometry.core_node
        self.memory: NodeId = self.geometry.memory_node
        #: Packet id -> the leg it plays ("request", "evict", "hit_data",
        #: "miss_notify", "memory_request", "memory_fill", "fill_forward").
        self.roles: dict[int, str] = {}
        self.network.on_delivery(self._on_delivery)
        self._column = 0
        self._nodes: list[NodeId] = []
        self._positions: dict[NodeId, int] = {}
        self._hit_depth: int | None = None
        self._trace = ProtocolTrace(issued=0)

    # -- public API -----------------------------------------------------------

    def run_hit(self, column: int, depth: int) -> ProtocolTrace:
        """One hit at bank *depth* of *column*."""
        if not 0 <= depth < self.geometry.banks_per_column(column):
            raise ProtocolError(f"depth {depth} out of range")
        return self._run(column, hit_depth=depth)

    def run_miss(self, column: int) -> ProtocolTrace:
        """One global miss in *column* (all banks miss)."""
        return self._run(column, hit_depth=None)

    # -- orchestration ----------------------------------------------------------

    def _run(self, column: int, hit_depth: int | None) -> ProtocolTrace:
        self._column = column
        self._nodes = self.geometry.nodes[column]
        self._positions = {node: p for p, node in enumerate(self._nodes)}
        self._hit_depth = hit_depth
        self._trace = trace = ProtocolTrace(issued=self.network.cycle)
        targets = self._nodes if self.scheme.multicast else self._nodes[:1]
        request = Packet(MessageType.READ_REQUEST, source=self.core,
                         destinations=tuple(targets))
        self.roles[request.packet_id] = "request"
        self.network.inject(request)
        self.network.run_until_drained(max_cycles=50_000)
        if trace.data_at_core is None:
            raise ProtocolError("protocol run ended without data delivery")
        return trace

    def _send(self, leg: str, message: MessageType, source: NodeId,
              destination: NodeId, at_cycle: int) -> None:
        packet = Packet(message, source=source, destinations=(destination,))
        self.roles[packet.packet_id] = leg
        self.network.schedule_injection(packet, at_cycle)

    # -- reactive endpoints ------------------------------------------------------

    def _on_delivery(self, delivery: Delivery) -> None:
        leg = self.roles.get(delivery.packet.packet_id)
        if leg is None:
            return
        at = delivery.delivered_at
        if leg == "request":
            self._on_request_arrival(self._positions[delivery.destination], at)
        elif leg == "evict":
            self._on_evict_arrival(self._positions[delivery.destination], at)
        elif leg == "miss_notify":
            self._send("memory_request", MessageType.MEMORY_REQUEST,
                       self.core, self.memory, at)
        elif leg == "memory_request":
            self._trace.memory_requested_at = at
            # The off-chip access crosses the pins on its way out and back.
            ready = (at + memory_access_latency()
                     + 2 * self.geometry.memory_pin_delay)
            self._send("memory_fill", MessageType.MEMORY_FILL,
                       self.memory, self._nodes[0], ready)
        elif leg == "memory_fill":
            self._send("fill_forward", MessageType.HIT_DATA,
                       self._nodes[0], self.core, at)
        else:  # "hit_data" or "fill_forward": the block reached the core
            self._trace.data_at_core = at

    def _on_request_arrival(self, position: int, arrival: int) -> None:
        self._trace.request_arrivals[position] = arrival
        timing = self.geometry.bank(self._column, position).timing
        node = self._nodes[position]
        last = len(self._nodes) - 1
        if position == self._hit_depth:
            self._send("hit_data", MessageType.HIT_DATA, node, self.core,
                       arrival + timing.tag_latency)
            return
        if not self.scheme.multicast:
            # The walk goes on to the next bank, or ends at the LRU bank,
            # which requests the block from memory itself.
            done = arrival + timing.tag_latency
            if position < last:
                self._send("request", MessageType.READ_REQUEST, node,
                           self._nodes[position + 1], done)
            else:
                self._send("memory_request", MessageType.MEMORY_REQUEST,
                           node, self.memory, done)
            return
        if position == 0 and self.scheme.is_fast:
            # The MRU bank evicts right after detecting its miss (Fig. 3).
            self._send_evict(0, arrival + timing.tag_replace_latency)
        if self._hit_depth is None and position == last:
            # LRU bank reports the (column-combined) miss to the core.
            self._send("miss_notify", MessageType.MISS_NOTIFY, node,
                       self.core, arrival + timing.tag_latency)

    def _send_evict(self, position: int, at_cycle: int) -> None:
        stop = self._hit_depth
        if stop is None:
            stop = len(self._nodes) - 1
        if position >= stop:
            self._trace.chain_done_at = at_cycle
            return
        self._send("evict", MessageType.REPLACEMENT, self._nodes[position],
                   self._nodes[position + 1], at_cycle)

    def _on_evict_arrival(self, position: int, arrival: int) -> None:
        request_seen = self._trace.request_arrivals.get(position, 0)
        timing = self.geometry.bank(self._column, position).timing
        ready = max(arrival, request_seen)
        self._send_evict(position, ready + timing.tag_replace_latency)
