"""Cycle-accurate flit-level network simulator.

Ties :class:`~repro.noc.router.Router` instances together over a
:class:`~repro.noc.topology.Topology`, moves flits across links with their
wire delays, tracks injection queues, and records per-packet delivery
statistics. One :meth:`Network.step` is one clock cycle.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.config import RouterConfig
from repro.errors import SimulationError
from repro.noc.buffer import Occupancy
from repro.noc.flit import Flit
from repro.noc.packet import Packet
from repro.noc.router import EJECT, INJECT, Router
from repro.noc.routing import RouteComputer, routing_for
from repro.noc.topology import NodeId, Topology
from repro.telemetry import trace as _trace

if TYPE_CHECKING:
    from repro.noc.arraycore import ArrayNetwork
    from repro.telemetry.registry import Series


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


def make_noc_series(window: int) -> dict[str, "Series"]:
    """The windowed series both flit cores record, keyed by metric name.

    Shared so the two cores cannot drift: same names, same windows, same
    aggregations, same (fixed) latency edges.
    """
    from repro.telemetry.registry import LATENCY_SLO_EDGES, Series

    return {
        "noc.series.flits_injected": Series(window),
        "noc.series.flits_forwarded": Series(window),
        "noc.series.flits_ejected": Series(window),
        "noc.series.packets_delivered": Series(window),
        "noc.series.latency": Series(window, "hist", LATENCY_SLO_EDGES),
    }


def publish_noc_series(registry, series: dict[str, "Series"] | None) -> None:
    """Merge a core's windowed series into *registry* (no-op when off)."""
    if not series:
        return
    for name in sorted(series):
        local = series[name]
        registry.series(name, local.window, local.agg, local.edges).merge(
            local.snapshot()
        )


class Network:
    """A complete flit-level on-chip network instance."""

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
        #: Ranks (positions in ``topology.nodes``) of the routers that
        #: buffer a flit; their VCs' push and pop keep it current.
        self._active: set[int] = set()
        self.routers: dict[NodeId, Router] = {
            node: Router(
                node, topology, self.routing, self.router_config,
                Occupancy(rank, self._active),
            )
            for rank, node in enumerate(topology.nodes)
        }
        self._ranked: list[Router] = list(self.routers.values())
        for router in self.routers.values():
            router.connect(self.routers)
        self._wire_delay: dict[tuple[NodeId, NodeId], int] = {
            (channel.src, channel.dst): channel.wire_delay
            for channel in topology.channels()
        }

        self.cycle = 0
        self.stats = NetworkStats()
        #: cycle -> list of (node, in_port, vc_index, flit) arrivals
        self._arrivals: dict[int, list] = defaultdict(list)
        #: per-router FIFO of packets waiting to enter the inject port
        #: (a router's entry goes when its FIFO empties)
        self._inject_queues: dict[NodeId, deque] = defaultdict(deque)
        #: cycle -> [(packet, node)] future injections (protocol timing)
        self._timed_injections: dict[int, list] = defaultdict(list)
        #: (node, packet) -> flits remaining to inject
        self._inject_progress: dict[tuple[NodeId, int], deque] = {}
        #: (packet_id, destination) -> flits still to eject there
        self._pending_ejects: dict[tuple[int, NodeId], int] = {}
        self._eject_meta: dict[tuple[int, NodeId], Packet] = {}
        self._delivered_callbacks: list = []
        #: Installed validation checkers (see repro.validation.invariants);
        #: empty in normal runs so the hook sites cost one truthiness test.
        self._checkers: list = []
        #: Trace sink captured at construction; the NullSink fast path
        #: reduces every per-flit event site to one attribute check.
        self._sink = _trace.current_sink()
        #: Flits placed on each (src, dst) wire -- per-link utilization.
        self._link_flits: dict[tuple[NodeId, NodeId], int] = {}
        #: High-water packet depth of each router's inject queue.
        self._inject_depth_hw: dict[NodeId, int] = {}
        #: Windowed metric series keyed by sim-cycle windows; None when
        #: off, so every recording site costs one identity test.
        self.window = int(window)
        self._series = make_noc_series(self.window) if self.window > 0 else None

    # -- client API ---------------------------------------------------------

    def on_delivery(self, callback) -> None:
        """Register ``callback(delivery)`` fired on each packet delivery."""
        self._delivered_callbacks.append(callback)

    def install_checker(self, checker) -> None:
        """Attach a validation checker to this network and its routers.

        The checker's ``on_inject``/``after_cycle``/``on_delivery`` hooks
        fire from the network, ``on_switch``/``on_replicate`` from every
        router, and ``final_check`` when a checked run drains (see
        :func:`repro.validation.run_with_checkers`).
        """
        self._checkers.append(checker)
        for router in self.routers.values():
            router.observers.append(checker)
        self.on_delivery(checker.on_delivery)

    @property
    def checkers(self) -> tuple:
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
        self._timed_injections[at_cycle].append((packet, node))

    def inject(self, packet: Packet, node: NodeId | None = None) -> None:
        """Queue *packet* for injection at *node* (default: its source)."""
        node = packet.source if node is None else node
        if node not in self.routers:
            raise SimulationError(f"injection node {node} not in topology")
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
        for destination in packet.destinations:
            key = (packet.packet_id, destination)
            self._pending_ejects[key] = packet.num_flits
            self._eject_meta[key] = packet
        for checker in self._checkers:
            checker.on_inject(self, packet)

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

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self.step()

    def run_until_drained(self, max_cycles: int = 100_000) -> int:
        """Step until every injected packet has been fully delivered.

        Returns the cycle count consumed. Raises if the network fails to
        drain within *max_cycles* (e.g. a deadlock or livelock).
        """
        start = self.cycle
        while self._pending_ejects or self._inject_queues_nonempty():
            if self.cycle - start >= max_cycles:
                raise SimulationError(
                    f"network did not drain within {max_cycles} cycles; "
                    f"{len(self._pending_ejects)} deliveries outstanding\n"
                    + self.drain_diagnostic()
                )
            self.step()
        return self.cycle - start

    def drain_diagnostic(self) -> str:
        """Human-readable snapshot of why the network has not drained.

        Lists undelivered packets (id, destination, flits remaining), the
        exact VC each buffered flit sits in, queued injections, flits on
        wires, and the routers currently holding traffic.
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
        stalled = []
        for node in sorted(self.routers, key=str):
            router = self.routers[node]
            held = [
                (port, vc)
                for port, unit in router.inputs.items()
                for vc in unit
                if vc.fifo or vc.active_packet is not None
            ]
            if held:
                stalled.append((node, held))
        lines.append(f"  routers holding traffic ({len(stalled)}):")
        for node, held in stalled:
            for port, vc in held:
                head = vc.head()
                state = (
                    f"{len(vc.fifo)} flit(s) of packet {head.packet.packet_id}"
                    if head is not None
                    else f"reserved for packet {vc.active_packet}"
                )
                lines.append(
                    f"    router {node} in_port {port} vc {vc.index}: {state}"
                )
        queued = {
            node: [p.packet_id for p in queue]
            for node, queue in self._inject_queues.items()
            if queue
        }
        if queued:
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
        return bool(self._pending_ejects) or self._inject_queues_nonempty()

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

    # -- internals ------------------------------------------------------------

    def _inject_queues_nonempty(self) -> bool:
        return (
            bool(self._inject_queues)
            or bool(self._inject_progress)
            or bool(self._timed_injections)
        )

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
        for destination in flit.destinations or (node,):
            key = (flit.packet.packet_id, destination)
            if key not in self._pending_ejects:
                raise SimulationError(
                    f"unexpected ejection of packet {flit.packet.packet_id} "
                    f"at {destination}"
                )
            self._pending_ejects[key] -= 1
            if self._pending_ejects[key] == 0:
                del self._pending_ejects[key]
                packet = self._eject_meta.pop(key)
                delivery = Delivery(
                    packet=packet,
                    destination=destination,
                    injected_at=flit.injected_at or packet.created_at,
                    delivered_at=flit.ejected_at,
                    hops=flit.hops,
                )
                self.stats.deliveries.append(delivery)
                if self._series is not None:
                    self._series["noc.series.packets_delivered"].record(
                        delivery.delivered_at
                    )
                    self._series["noc.series.latency"].record(
                        delivery.delivered_at, delivery.latency
                    )
                if self._sink.enabled:
                    self._sink.complete(
                        "packet", "noc.packet", delivery.injected_at,
                        delivery.latency, tid=destination,
                        args={"packet": packet.packet_id,
                              "source": str(packet.source),
                              "hops": delivery.hops},
                    )
                for callback in self._delivered_callbacks:
                    callback(delivery)

    # -- aggregate inspection ---------------------------------------------

    def publish_metrics(self, registry) -> None:
        """Export network-level and summed per-router counters."""
        registry.counter("noc.network.cycles").inc(self.stats.cycles)
        registry.counter("noc.network.packets_injected").inc(
            self.stats.packets_injected
        )
        registry.counter("noc.network.flits_injected").inc(
            self.stats.flits_injected
        )
        registry.counter("noc.network.packets_delivered").inc(
            self.stats.packets_delivered
        )
        registry.gauge("noc.network.max_latency").update_max(
            self.stats.max_latency
        )
        for node in sorted(self.routers, key=str):
            self.routers[node].publish_metrics(registry)
        for link in sorted(self._link_flits, key=str):
            src, dst = link
            registry.counter(f"noc.link.flits.{src}->{dst}").inc(
                self._link_flits[link]
            )
        hub = getattr(self.topology, "core_attach", None)
        for node in sorted(self._inject_depth_hw, key=str):
            depth = self._inject_depth_hw[node]
            registry.gauge(f"noc.inject_queue.max_depth.{node}").update_max(
                depth
            )
            if node == hub:
                registry.gauge("noc.hub.issue_queue_depth").update_max(depth)
        publish_noc_series(registry, self._series)

    def total_buffered_flits(self) -> int:
        return sum(router.buffered_flits() for router in self.routers.values())

    def total_replications(self) -> int:
        return sum(r.stats.replications for r in self.routers.values())

    def total_replication_blocked(self) -> int:
        return sum(
            r.stats.replication_blocked_cycles for r in self.routers.values()
        )
