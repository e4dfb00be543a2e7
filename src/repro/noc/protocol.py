"""Cache-protocol execution on the flit-level network.

Drives the *actual* Fig. 3 message sequences -- chain-multicast request,
per-bank tag matches, the pipelined eviction chain, hit-data return, miss
notification, memory access, fill, and forward -- as real packets through
the cycle-accurate router fabric. This closes the loop between the two
simulation fidelities: the transaction-level engine's timings are
validated against this protocol-level ground truth in
``tests/test_protocol_validation.py``.

Banks are modeled as reactive endpoints: a delivery callback schedules
the bank's response packets ``tag_latency`` (or ``tag_replace_latency``)
cycles later via :meth:`Network.schedule_injection`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.bank import BankDescriptor, bank_descriptors_for_column
from repro.config import memory_access_latency
from repro.errors import ProtocolError
from repro.noc.network import Delivery, make_network
from repro.noc.packet import MessageType, Packet
from repro.noc.topology import MeshTopology, NodeId


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
    """Executes Multicast Fast-LRU accesses on a flit-level mesh."""

    def __init__(
        self,
        cols: int = 16,
        rows: int = 16,
        bank_capacity: int = 64 * 1024,
        core: str | None = None,
    ) -> None:
        self.topology = MeshTopology(cols, rows, core_column=cols // 2,
                                     memory_column=cols // 2)
        self.network = make_network(self.topology, core=core)
        self.core: NodeId = self.topology.core_attach
        self.memory: NodeId = self.topology.memory_attach
        self.rows = rows
        self.banks: list[BankDescriptor] = bank_descriptors_for_column(
            [bank_capacity] * rows
        )
        self.network.on_delivery(self._on_delivery)
        self._column: int | None = None
        self._hit_depth: int | None = None
        self._trace: ProtocolTrace | None = None
        self._packet_roles: dict[int, tuple] = {}

    # -- public API -----------------------------------------------------------

    def run_hit(self, column: int, depth: int) -> ProtocolTrace:
        """One Multicast Fast-LRU hit at bank *depth* of *column*."""
        if not 0 <= depth < self.rows:
            raise ProtocolError(f"depth {depth} out of range")
        return self._run(column, hit_depth=depth)

    def run_miss(self, column: int) -> ProtocolTrace:
        """One global miss in *column* (all banks miss)."""
        return self._run(column, hit_depth=None)

    # -- orchestration ----------------------------------------------------------

    def _run(self, column: int, hit_depth: int | None) -> ProtocolTrace:
        self._column = column
        self._hit_depth = hit_depth
        self._trace = ProtocolTrace(issued=self.network.cycle)
        request = Packet(
            MessageType.READ_REQUEST,
            source=self.core,
            destinations=tuple((column, row) for row in range(self.rows)),
        )
        self._packet_roles[request.packet_id] = ("request",)
        self.network.inject(request)
        self.network.run_until_drained(max_cycles=50_000)
        trace = self._trace
        if trace.data_at_core is None:
            raise ProtocolError("protocol run ended without data delivery")
        return trace

    def _bank_node(self, position: int) -> NodeId:
        return (self._column, position)

    def _tag_done(self, position: int, arrival: int, replace: bool) -> int:
        timing = self.banks[position].timing
        latency = timing.tag_replace_latency if replace else timing.tag_latency
        return arrival + latency

    # -- reactive endpoints ------------------------------------------------------

    def _on_delivery(self, delivery: Delivery) -> None:
        role = self._packet_roles.get(delivery.packet.packet_id)
        if role is None:
            return
        kind = role[0]
        if kind == "request":
            self._on_request_arrival(delivery)
        elif kind == "evict":
            self._on_evict_arrival(delivery, source_position=role[1])
        elif kind == "hit_data":
            self._trace.data_at_core = delivery.delivered_at
        elif kind == "miss_notify":
            self._on_miss_decided(delivery)
        elif kind == "mem_request":
            self._on_memory_request(delivery)
        elif kind == "fill":
            self._on_fill(delivery)
        elif kind == "fill_forward":
            self._trace.data_at_core = delivery.delivered_at

    def _on_request_arrival(self, delivery: Delivery) -> None:
        position = delivery.destination[1]
        self._trace.request_arrivals[position] = delivery.delivered_at
        hit_depth = self._hit_depth
        if hit_depth is not None and position == hit_depth:
            done = self._tag_done(position, delivery.delivered_at, replace=False)
            packet = Packet(MessageType.HIT_DATA,
                            source=self._bank_node(position),
                            destinations=(self.core,))
            self._packet_roles[packet.packet_id] = ("hit_data",)
            self.network.schedule_injection(packet, done)
            return
        if position == 0:
            # The MRU bank evicts right after detecting its miss (Fig. 3).
            done = self._tag_done(position, delivery.delivered_at, replace=True)
            self._send_evict(0, done)
        if hit_depth is None and position == self.rows - 1:
            # LRU bank reports the (column-combined) miss to the core.
            done = self._tag_done(position, delivery.delivered_at, replace=False)
            packet = Packet(MessageType.MISS_NOTIFY,
                            source=self._bank_node(position),
                            destinations=(self.core,))
            self._packet_roles[packet.packet_id] = ("miss_notify",)
            self.network.schedule_injection(packet, done)

    def _send_evict(self, position: int, at_cycle: int) -> None:
        stop = self._hit_depth if self._hit_depth is not None else self.rows - 1
        if position >= stop:
            self._trace.chain_done_at = at_cycle
            return
        packet = Packet(MessageType.REPLACEMENT,
                        source=self._bank_node(position),
                        destinations=(self._bank_node(position + 1),))
        self._packet_roles[packet.packet_id] = ("evict", position)
        self.network.schedule_injection(packet, at_cycle)

    def _on_evict_arrival(self, delivery: Delivery, source_position: int) -> None:
        position = source_position + 1
        request_seen = self._trace.request_arrivals.get(position, 0)
        timing = self.banks[position].timing
        ready = max(delivery.delivered_at, request_seen)
        done = ready + timing.tag_replace_latency
        self._send_evict(position, done)

    def _on_miss_decided(self, delivery: Delivery) -> None:
        packet = Packet(MessageType.MEMORY_REQUEST, source=self.core,
                        destinations=(self.memory,))
        self._packet_roles[packet.packet_id] = ("mem_request",)
        self.network.schedule_injection(packet, delivery.delivered_at)

    def _on_memory_request(self, delivery: Delivery) -> None:
        self._trace.memory_requested_at = delivery.delivered_at
        ready = delivery.delivered_at + memory_access_latency()
        packet = Packet(MessageType.MEMORY_FILL, source=self.memory,
                        destinations=(self._bank_node(0),))
        self._packet_roles[packet.packet_id] = ("fill",)
        self.network.schedule_injection(packet, ready)

    def _on_fill(self, delivery: Delivery) -> None:
        packet = Packet(MessageType.HIT_DATA, source=self._bank_node(0),
                        destinations=(self.core,))
        self._packet_roles[packet.packet_id] = ("fill_forward",)
        self.network.schedule_injection(packet, delivery.delivered_at)
