"""Cycle-accurate flit-level network simulator.

:class:`FlitFabric` is the client side both flit cores share: injection,
delivery records and callbacks, the drain loop and its diagnostic, and
the network-level metrics. :class:`Network` is the reference core on it:
it ties :class:`~repro.noc.router.Router` instances together over a
:class:`~repro.noc.topology.Topology` and moves flits across links with
their wire delays. One ``step()`` is one clock cycle.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, ClassVar

from repro.config import RouterConfig
from repro.errors import SimulationError
from repro.noc.buffer import Occupancy
from repro.noc.flit import Flit
from repro.noc.packet import Packet
from repro.noc.router import EJECT, INJECT, Router
from repro.noc.routing import RouteComputer, routing_for
from repro.noc.topology import NodeId, Topology
from repro.telemetry import trace as _trace
from repro.telemetry.registry import LATENCY_SLO_EDGES, Series

if TYPE_CHECKING:
    from repro.noc.arraycore import ArrayNetwork


@dataclass
class Delivery:
    """One completed (packet, destination) delivery."""

    packet: Packet
    destination: NodeId
    injected_at: int
    delivered_at: int
    hops: int

    @property
    def latency(self) -> int:
        return self.delivered_at - self.injected_at


@dataclass
class NetworkStats:
    """Aggregate statistics of a simulation run."""

    cycles: int = 0
    packets_injected: int = 0
    flits_injected: int = 0
    deliveries: list[Delivery] = field(default_factory=list)

    @property
    def packets_delivered(self) -> int:
        return len(self.deliveries)

    @property
    def average_latency(self) -> float:
        if not self.deliveries:
            return 0.0
        return sum(d.latency for d in self.deliveries) / len(self.deliveries)

    @property
    def max_latency(self) -> int:
        return max((d.latency for d in self.deliveries), default=0)


#: Recognized flit-core selectors (see :func:`make_network`).
CORES = ("object", "array")


def normalize_core(core: str | None) -> str:
    """Validate and default a ``core=`` selector ("object" when None)."""
    if core is None:
        return "object"
    if core not in CORES:
        raise SimulationError(
            f"unknown flit core {core!r}; expected one of {CORES}"
        )
    return core


def make_network(
    topology: Topology,
    routing: RouteComputer | None = None,
    router_config: RouterConfig | None = None,
    core: str | None = None,
    window: int = 0,
) -> "Network | ArrayNetwork":
    """Build a flit-level network on the selected simulation core.

    ``core="object"`` (the default) returns the reference
    :class:`Network`; ``core="array"`` returns the struct-of-arrays
    :class:`repro.noc.arraycore.ArrayNetwork`, which is bit-identical but
    takes no invariant checkers. ``window`` > 0 enables windowed metric
    series sampled every that many sim-cycles.
    """
    if normalize_core(core) == "array":
        from repro.noc.arraycore import ArrayNetwork

        return ArrayNetwork(topology, routing, router_config, window=window)
    return Network(topology, routing, router_config, window=window)


class FlitFabric:
    """The client side of a flit-level network, written once for both cores.

    A core subclass brings its buffers and routers and its cycle kernel:
    ``step`` and the four phase methods (see :mod:`repro.perf.profiler`),
    written in its own class body so that tools which wrap them by name
    find them there. Everything a client sees is here: injection (timed
    and immediate) with its per-destination eject counts, the delivery
    records and callbacks, the drain loop and its diagnostic, and the
    network-level metrics. A core supplies two hooks, :meth:`_held_vcs`
    for the diagnostic and :meth:`_publish_routers` for its router
    counters, and may override :meth:`_advance`, one turn of the drain
    loop.

    Both cores keep their routers in ``topology.nodes`` order (a router's
    *rank* is its position there), their inject FIFOs keyed by node and
    dropped when they empty, and their partial injections keyed by
    ``(node, packet_id)``.
    """

    #: The ``core=`` name of this class (see :func:`make_network`).
    core: ClassVar[str]

    def __init__(
        self,
        topology: Topology,
        routing: RouteComputer | None = None,
        router_config: RouterConfig | None = None,
        window: int = 0,
    ) -> None:
        self.topology = topology
        self.routing = routing or routing_for(topology)
        self.router_config = router_config or RouterConfig()
        self._nodes: list[NodeId] = list(topology.nodes)
        self._node_index: dict[NodeId, int] = {
            node: rank for rank, node in enumerate(self._nodes)
        }
        #: Ranks of the routers that buffer at least one flit; each
        #: core's buffers keep it current as flits enter and leave.
        self._active: set[int] = set()
        self.cycle = 0
        self.stats = NetworkStats()
        #: cycle -> link arrivals landing then, in the core's own layout
        self._arrivals: defaultdict[int, list[Any]] = defaultdict(list)
        #: per-node FIFO of packets waiting to enter the inject port (a
        #: node's entry goes when its FIFO empties)
        self._inject_queues: defaultdict[NodeId, deque[Packet]] = defaultdict(
            deque
        )
        #: cycle -> [(packet, node)] future injections (protocol timing)
        self._timed_injections: dict[int, list[tuple[Packet, NodeId | None]]] = {}
        #: (node, packet_id) -> the flits still to inject, in the core's
        #: own layout
        self._inject_progress: dict[tuple[NodeId, int], Any] = {}
        #: (packet_id, destination) -> flits still to eject there
        self._pending_ejects: dict[tuple[int, NodeId], int] = {}
        self._eject_meta: dict[tuple[int, NodeId], Packet] = {}
        self._delivered_callbacks: list[Callable[[Delivery], None]] = []
        #: Installed validation checkers (see repro.validation.invariants);
        #: empty in normal runs so the hook sites cost one truthiness test.
        self._checkers: list[Any] = []
        #: Trace sink captured at construction; the NullSink fast path
        #: reduces every per-flit event site to one attribute check.
        self._sink = _trace.current_sink()
        #: High-water packet depth of each node's inject queue.
        self._inject_depth_hw: dict[NodeId, int] = {}
        #: Windowed metric series keyed by sim-cycle windows; None when
        #: off, so every recording site costs one identity test.
        self.window = int(window)
        self._series: dict[str, Series] | None = None
        if self.window > 0:
            self._series = {
                "noc.series.flits_injected": Series(self.window),
                "noc.series.flits_forwarded": Series(self.window),
                "noc.series.flits_ejected": Series(self.window),
                "noc.series.packets_delivered": Series(self.window),
                "noc.series.latency": Series(
                    self.window, "hist", LATENCY_SLO_EDGES
                ),
            }

    # -- client API ---------------------------------------------------------

    def on_delivery(self, callback: Callable[[Delivery], None]) -> None:
        """Register ``callback(delivery)`` fired on each packet delivery."""
        self._delivered_callbacks.append(callback)

    @property
    def checkers(self) -> tuple[Any, ...]:
        return tuple(self._checkers)

    def schedule_injection(
        self, packet: Packet, at_cycle: int, node: NodeId | None = None
    ) -> None:
        """Queue *packet* for injection at a future cycle (e.g. after a
        bank's tag-match latency in a protocol simulation)."""
        if at_cycle < self.cycle:
            raise SimulationError(
                f"cannot inject at {at_cycle}; current cycle is {self.cycle}"
            )
        self._timed_injections.setdefault(at_cycle, []).append((packet, node))

    def inject(self, packet: Packet, node: NodeId | None = None) -> None:
        """Queue *packet* for injection at *node* (default: its source)."""
        node = packet.source if node is None else node
        if node not in self._node_index:
            raise SimulationError(f"injection node {node} not in topology")
        for destination in packet.destinations:
            if destination not in self._node_index:
                raise SimulationError(
                    f"destination {destination} not in topology"
                )
        packet.created_at = self.cycle
        queue = self._inject_queues[node]
        queue.append(packet)
        if len(queue) > self._inject_depth_hw.get(node, 0):
            self._inject_depth_hw[node] = len(queue)
        self.stats.packets_injected += 1
        if self._sink.enabled:
            self._sink.instant(
                "inject", "noc.flit", self.cycle, tid=node,
                args={"packet": packet.packet_id,
                      "destinations": [str(d) for d in packet.destinations]},
            )
        flits = packet.num_flits
        for destination in packet.destinations:
            key = (packet.packet_id, destination)
            self._pending_ejects[key] = flits
            self._eject_meta[key] = packet
        for checker in self._checkers:
            checker.on_inject(self, packet)

    def step(self) -> None:
        """Advance the network one clock cycle."""
        raise NotImplementedError

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self.step()

    def run_until_drained(self, max_cycles: int = 100_000) -> int:
        """Step until every injected packet has been fully delivered.

        Returns the cycle count consumed. Raises if the network fails to
        drain within *max_cycles* (e.g. a deadlock or livelock).
        """
        start = self.cycle
        horizon = start + max_cycles
        while self.pending_work():
            if self.cycle >= horizon:
                raise SimulationError(
                    f"network did not drain within {max_cycles} cycles; "
                    f"{len(self._pending_ejects)} deliveries outstanding\n"
                    + self.drain_diagnostic()
                )
            self._advance(horizon)
        return self.cycle - start

    def drain_diagnostic(self) -> str:
        """Human-readable snapshot of why the network has not drained.

        Lists undelivered packets (id, destination, flits remaining), the
        exact VC each buffered flit sits in or each wormhole has reserved,
        queued injections, flits on wires, and the next timed injection.
        """
        lines = [f"drain diagnostic at cycle {self.cycle}:"]
        undelivered = self.outstanding_deliveries()
        lines.append(f"  undelivered deliveries ({len(undelivered)}):")
        for pid, dst, remaining in undelivered[:50]:
            meta = self._eject_meta.get((pid, dst))
            kind = meta.message.value if meta is not None else "?"
            lines.append(
                f"    packet {pid} ({kind}) -> {dst}: "
                f"{remaining} flit(s) outstanding"
            )
        if len(undelivered) > 50:
            lines.append(f"    ... and {len(undelivered) - 50} more")
        held = self._held_vcs()
        routers = len({node for node, *_ in held})
        lines.append(f"  routers holding traffic ({routers}):")
        for node, port, vc, flits, pid in held:
            state = (
                f"{flits} flit(s) of packet {pid}"
                if flits
                else f"reserved for packet {pid}"
            )
            lines.append(f"    router {node} in_port {port} vc {vc}: {state}")
        if self._inject_queues:
            queued = {
                node: [p.packet_id for p in queue]
                for node, queue in self._inject_queues.items()
            }
            lines.append(f"  inject queues: {queued}")
        if self._inject_progress:
            lines.append(
                "  partially injected: "
                + str(sorted((str(n), pid) for n, pid in self._inject_progress))
            )
        in_flight = self.in_flight_flits()
        if in_flight:
            lines.append(f"  flits on wires: {in_flight}")
        if self._timed_injections:
            lines.append(
                f"  next timed injection at cycle {self.next_timed_injection()}"
            )
        return "\n".join(lines)

    def pending_work(self) -> bool:
        """True while any injected packet still has flits to deliver."""
        return bool(
            self._pending_ejects
            or self._inject_queues
            or self._inject_progress
            or self._timed_injections
        )

    def next_timed_injection(self) -> int | None:
        """Earliest cycle a scheduled future injection fires (None = none)."""
        return min(self._timed_injections) if self._timed_injections else None

    def outstanding_deliveries(self) -> list[tuple[int, NodeId, int]]:
        """Undelivered ``(packet_id, destination, flits_remaining)`` rows."""
        return sorted(
            ((pid, dst, n) for (pid, dst), n in self._pending_ejects.items()),
            key=str,
        )

    def in_flight_flits(self) -> int:
        """Flits currently crossing links (scheduled future arrivals)."""
        return sum(len(batch) for batch in self._arrivals.values())

    def publish_metrics(self, registry: Any) -> None:
        """Export network-level counters, then the core's router counters."""
        stats = self.stats
        registry.counter("noc.network.cycles").inc(stats.cycles)
        registry.counter("noc.network.packets_injected").inc(
            stats.packets_injected
        )
        registry.counter("noc.network.flits_injected").inc(stats.flits_injected)
        registry.counter("noc.network.packets_delivered").inc(
            stats.packets_delivered
        )
        registry.gauge("noc.network.max_latency").update_max(stats.max_latency)
        self._publish_routers(registry)
        hub = getattr(self.topology, "core_attach", None)
        for node in sorted(self._inject_depth_hw, key=str):
            depth = self._inject_depth_hw[node]
            registry.gauge(f"noc.inject_queue.max_depth.{node}").update_max(
                depth
            )
            if node == hub:
                registry.gauge("noc.hub.issue_queue_depth").update_max(depth)
        for name, local in sorted((self._series or {}).items()):
            registry.series(name, local.window, local.agg, local.edges).merge(
                local.snapshot()
            )

    # -- hooks and shared internals -------------------------------------------

    def _advance(self, horizon: int) -> None:
        """One turn of the drain loop: one :meth:`step`.

        The object core keeps this, so a checker's ``after_cycle`` sees
        every cycle; the array core may jump idle cycles up to *horizon*.
        """
        self.step()

    def _held_vcs(self) -> list[tuple[NodeId, object, int, int, int]]:
        """``(node, in_port, vc, flits, packet_id)`` of every VC that
        buffers a flit or is reserved for a wormhole (``flits`` = 0), in
        ``topology.nodes`` order, then port order, then VC order."""
        raise NotImplementedError

    def _publish_routers(self, registry: Any) -> None:
        """Export the router, VC and link counters of the core."""
        raise NotImplementedError

    def _complete(
        self,
        key: tuple[int, NodeId],
        injected_at: int | None,
        delivered_at: int,
        hops: int,
    ) -> None:
        """Record the delivery whose last flit to ``key[1]`` just ejected."""
        del self._pending_ejects[key]
        packet = self._eject_meta.pop(key)
        delivery = Delivery(
            packet=packet,
            destination=key[1],
            injected_at=injected_at or packet.created_at,
            delivered_at=delivered_at,
            hops=hops,
        )
        self.stats.deliveries.append(delivery)
        if self._series is not None:
            self._series["noc.series.packets_delivered"].record(delivered_at)
            self._series["noc.series.latency"].record(
                delivered_at, delivery.latency
            )
        if self._sink.enabled:
            self._sink.complete(
                "packet", "noc.packet", delivery.injected_at,
                delivery.latency, tid=key[1],
                args={"packet": packet.packet_id,
                      "source": str(packet.source),
                      "hops": hops},
            )
        for callback in self._delivered_callbacks:
            callback(delivery)


class Network(FlitFabric):
    """The reference flit-level network: one :class:`Router` per node."""

    core = "object"

    def __init__(
        self,
        topology: Topology,
        routing: RouteComputer | None = None,
        router_config: RouterConfig | None = None,
        window: int = 0,
    ) -> None:
        super().__init__(topology, routing, router_config, window)
        self.routers: dict[NodeId, Router] = {
            node: Router(
                node, topology, self.routing, self.router_config,
                Occupancy(rank, self._active),
            )
            for rank, node in enumerate(self._nodes)
        }
        self._ranked: list[Router] = list(self.routers.values())
        for router in self._ranked:
            router.connect(self.routers)
        self._wire_delay: dict[tuple[NodeId, NodeId], int] = {
            (channel.src, channel.dst): channel.wire_delay
            for channel in topology.channels()
        }
        #: Flits placed on each (src, dst) wire -- per-link utilization.
        self._link_flits: dict[tuple[NodeId, NodeId], int] = {}
        # The base's per-core layouts: an ``_arrivals`` entry is (node,
        # in_port, vc_index, flit), which CreditConservationChecker reads,
        # and an ``_inject_progress`` value is a deque of (flit, vc).

    def install_checker(self, checker: Any) -> None:
        """Attach a validation checker to this network and its routers.

        The checker's ``on_inject``/``after_cycle``/``on_delivery`` hooks
        fire from the network, ``on_switch``/``on_replicate`` from every
        router, and ``final_check`` when a checked run drains (see
        :func:`repro.validation.run_with_checkers`).
        """
        self._checkers.append(checker)
        for router in self._ranked:
            router.observers.append(checker)
        self.on_delivery(checker.on_delivery)

    # -- cycle kernel ---------------------------------------------------------

    def step(self) -> None:
        """Advance the network one clock cycle."""
        cycle = self.cycle
        for packet, node in self._timed_injections.pop(cycle, ()):
            self.inject(packet, node)
        self._deliver_arrivals(cycle)
        self._inject_phase(cycle)
        self._replication_phase(cycle)
        self._switch_phase(cycle)
        for checker in self._checkers:
            checker.after_cycle(self, cycle)
        self.cycle += 1
        self.stats.cycles = self.cycle

    def _replication_phase(self, cycle: int) -> None:
        """Split multicast heads that need several output ports.

        Only a router that buffers a multicast head can split one, and a
        split pushes replicas into its own VCs alone, so sweeping just
        those routers, in ``topology.nodes`` order, is exact.
        """
        ranked = self._ranked
        for rank in sorted(self._active):
            router = ranked[rank]
            if router.occupancy.multicast_heads:
                router.replication_phase(cycle)

    def _switch_phase(self, cycle: int) -> None:
        """Arbitrate every busy crossbar; route winners to links or ejection.

        A router without a buffered flit has no candidate, and no router
        gains a flit in this phase (arrivals land on later cycles), so the
        active set taken here is exact; it is swept in ``topology.nodes``
        order because each commit reserves a VC the next router may seek.
        """
        ranked = self._ranked
        for rank in sorted(self._active):
            router = ranked[rank]
            for forward in router.switch_phase(cycle):
                self._handle_forward(router.node, forward, cycle)

    def _deliver_arrivals(self, cycle: int) -> None:
        batch = self._arrivals.pop(cycle, None)
        if batch is None:
            return
        eligible_at = cycle + (self.router_config.hop_latency - 1)
        for node, in_port, vc_index, flit in batch:
            flit.eligible_at = eligible_at
            self.routers[node].inputs[in_port][vc_index].push(flit)
            if self._sink.enabled:
                self._sink.instant(
                    "traverse", "noc.flit", cycle, tid=node,
                    args={"packet": flit.packet.packet_id, "vc": vc_index,
                          "from": str(in_port), "hops": flit.hops},
                )

    def _inject_phase(self, cycle: int) -> None:
        """Move at most one flit per router from its inject queue to a VC.

        Only routers with a queued packet or a partial injection are
        visited. Each touches only its own inject port and its own
        partial injections, so the order among them cannot be observed.
        """
        queues = self._inject_queues
        partial: dict[NodeId, list] = {}
        for key, flits in self._inject_progress.items():
            partial.setdefault(key[0], []).append((key, flits))
        for node in dict.fromkeys([*partial, *queues]):
            progressed = False
            # Continue partially injected packets first (wormhole order).
            for key, flits in partial.get(node, ()):
                vc = flits[0][1]
                flit = flits[0][0]
                if vc.has_space:
                    flits.popleft()
                    flit.eligible_at = cycle + (self.router_config.hop_latency - 1)
                    vc.push(flit)
                    self.stats.flits_injected += 1
                    if self._series is not None:
                        self._series["noc.series.flits_injected"].record(cycle)
                    progressed = True
                if not flits:
                    del self._inject_progress[key]
                if progressed:
                    break
            queue = queues.get(node)
            if progressed or not queue:
                continue
            packet = queue[0]
            unit = self.routers[node].inputs[INJECT]
            free = next((vc for vc in unit if vc.is_free), None)
            if free is None:
                continue
            queue.popleft()
            if not queue:
                del queues[node]
            flits = packet.flits()
            head = flits[0]
            head.injected_at = cycle
            for flit in flits:
                flit.injected_at = cycle
            head.eligible_at = cycle + (self.router_config.hop_latency - 1)
            free.push(head)
            self.stats.flits_injected += 1
            if self._series is not None:
                self._series["noc.series.flits_injected"].record(cycle)
            if len(flits) > 1:
                self._inject_progress[(node, packet.packet_id)] = deque(
                    (flit, free) for flit in flits[1:]
                )

    def _handle_forward(self, node: NodeId, forward, cycle: int) -> None:
        flit = forward.flit
        if forward.out_port == EJECT:
            if self._series is not None:
                self._series["noc.series.flits_ejected"].record(cycle)
            self._eject(node, flit, cycle)
            return
        link = (node, forward.out_port)
        self._link_flits[link] = self._link_flits.get(link, 0) + 1
        if self._series is not None:
            self._series["noc.series.flits_forwarded"].record(cycle)
        arrival = cycle + self._wire_delay[link] + 1
        self._arrivals[arrival].append(
            (forward.out_port, node, forward.out_vc, flit)
        )

    def _eject(self, node: NodeId, flit: Flit, cycle: int) -> None:
        flit.ejected_at = cycle + 1  # crossing the ejection channel
        if self._sink.enabled:
            self._sink.instant(
                "eject", "noc.flit", flit.ejected_at, tid=node,
                args={"packet": flit.packet.packet_id, "hops": flit.hops},
            )
        pending = self._pending_ejects
        for destination in flit.destinations or (node,):
            key = (flit.packet.packet_id, destination)
            remaining = pending.get(key)
            if remaining is None:
                raise SimulationError(
                    f"unexpected ejection of packet {flit.packet.packet_id} "
                    f"at {destination}"
                )
            if remaining > 1:
                pending[key] = remaining - 1
            else:
                self._complete(key, flit.injected_at, flit.ejected_at, flit.hops)

    # -- inspection -----------------------------------------------------------

    def _held_vcs(self) -> list[tuple[NodeId, object, int, int, int]]:
        return [
            (
                router.node, port, vc.index, len(vc.fifo),
                vc.fifo[0].packet.packet_id if vc.fifo else vc.active_packet,
            )
            for router in self._ranked
            for port, unit in router.inputs.items()
            for vc in unit
            if vc.fifo or vc.active_packet is not None
        ]

    def _publish_routers(self, registry: Any) -> None:
        """Summed per-router counters, then per-link flit counts."""
        for router in self._ranked:
            router.publish_metrics(registry)
        for link in sorted(self._link_flits, key=str):
            src, dst = link
            registry.counter(f"noc.link.flits.{src}->{dst}").inc(
                self._link_flits[link]
            )

    def total_buffered_flits(self) -> int:
        return sum(router.buffered_flits() for router in self.routers.values())

    def total_replications(self) -> int:
        return sum(r.stats.replications for r in self.routers.values())

    def total_replication_blocked(self) -> int:
        return sum(
            r.stats.replication_blocked_cycles for r in self.routers.values()
        )
