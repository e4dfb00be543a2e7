"""Resource-aware timing geometry of one cache design.

Bridges the topology (where banks sit, which channels exist) and the
transaction flows (who talks to whom, when). Every channel and every bank
is a FCFS :class:`~repro.sim.resource.Resource`; halo spike queues are
2-entry :class:`~repro.sim.resource.OccupancyTracker` instances (the paper
gives each spike a small issue queue). Traversals reserve each channel on
the path for the packet's flit count, so concurrent transactions contend
exactly where the paper says they do: the row the core sits on, the bank
columns, and the memory channel.
"""

from __future__ import annotations

import itertools

from repro.cache.bank import BankDescriptor
from repro.config import RouterConfig, packet_flits
from repro.errors import ConfigurationError
from repro.noc.routing import RouteComputer, routing_for
from repro.noc.topology import HaloTopology, NodeId, Topology, spike_node
from repro.sim.resource import FloorClock, OccupancyTracker, Resource

#: One hop of a routed path: (channel resource, hop cost, node reached).
Hop = tuple[Resource, int, NodeId]

#: One bank as the flows grant it: (bank resource, tag latency,
#: tag+replace latency).
BankRow = tuple[Resource, int, int]

#: Flits of a multicast request (a control packet).
MULTICAST_FLITS = packet_flits(carries_block=False)


class Segment:
    """The resolved route of one (src, dst) pair: its hops and their cost.

    Routes are a pure function of the topology, so each pair's path,
    per-hop costs and channel resources are resolved exactly once. A
    pair whose endpoints coincide has no hops.
    """

    __slots__ = ("src", "dst", "hops", "cost", "waypoint_index")

    def __init__(self, src: NodeId, dst: NodeId, hops: tuple[Hop, ...]) -> None:
        self.src = src
        self.dst = dst
        self.hops = hops
        #: Uncontended head-flit cost: the sum of the hop costs.
        self.cost = sum(cost for _, cost, _ in hops)
        #: Intermediate node -> its index in the waypoints a reservation
        #: of this segment records (:meth:`CacheGeometry.reserve_segment`).
        self.waypoint_index = {
            node: index for index, (_, _, node) in enumerate(hops[:-1])
        }


class ColumnChain:
    """A column's multicast replication chain from one entry node.

    *entry* is the route from the entry node into bank 0 (None when the
    entry node is bank 0's router); ``links[p]`` is the route from bank
    *p* to bank *p* + 1. The Fast-LRU eviction chain walks the same links.
    """

    __slots__ = ("entry", "links", "hop_cycles", "sends")

    def __init__(self, entry: Segment | None, links: tuple[Segment, ...]) -> None:
        self.entry = entry
        self.links = links
        #: Uncontended hop cycles and packet-moving segments of the chain.
        self.hop_cycles = sum(link.cost for link in links)
        self.sends = len(links)
        if entry is not None:
            self.hop_cycles += entry.cost
            self.sends += 1


class CacheGeometry:
    """Physical layout + contention state of one design."""

    def __init__(
        self,
        topology: Topology,
        columns: list[list[BankDescriptor]],
        routing: RouteComputer | None = None,
        router_config: RouterConfig | None = None,
        spike_queue_entries: int = 2,
    ) -> None:
        self.topology = topology
        self.columns = columns
        self.routing = routing or routing_for(topology)
        self.router_config = router_config or RouterConfig()
        self.is_halo = isinstance(topology, HaloTopology)
        if topology.core_attach is None or topology.memory_attach is None:
            raise ConfigurationError("topology must define core/memory attach points")
        self.core_node: NodeId = topology.core_attach
        self.memory_node: NodeId = topology.memory_attach
        self.memory_pin_delay = topology.memory_pin_delay

        #: Shared lower bound on future request times; lets every resource
        #: prune its past reservations in O(1) amortized.
        self.floor_clock = FloorClock()
        self._channel_resources: dict[tuple[NodeId, NodeId], Resource] = {}
        self._bank_resources: dict[tuple[int, int], Resource] = {}
        #: (src, dst) -> resolved route, built on the pair's first use and
        #: not before: degraded routing counts detour hops as routes are
        #: built, and a warm-up reset clears that count.
        self._plans: dict[tuple[NodeId, NodeId], Segment] = {}
        #: Per column, the router node of each bank position.
        self.nodes: list[list[NodeId]] = [
            [self.bank_node(col, pos) for pos in range(len(banks))]
            for col, banks in enumerate(columns)
        ]
        #: Per column, the bank rows and the bank p -> p+1 link segments
        #: resolved so far. Both grow lazily in position order
        #: (:meth:`bank_row`, :meth:`bank_link`), so bank resources and
        #: routes are still created at their first use: the power model
        #: sums in resource creation order.
        self.bank_rows: list[list[BankRow]] = [[] for _ in columns]
        self.links: list[list[Segment]] = [[] for _ in columns]
        #: (column, entry node) -> multicast chain, built on first use.
        self._chains: dict[tuple[int, NodeId], ColumnChain] = {}
        self._spike_queues: dict[int, OccupancyTracker] | None = None
        if self.is_halo:
            self._spike_queues = {
                s: OccupancyTracker(spike_queue_entries, name=f"spike-queue-{s}")
                for s in range(len(columns))
            }
        #: Cycles multicast deliveries lost to channel contention -- the
        #: transaction-level analogue of replica-blocked router cycles.
        self.multicast_blocked_cycles = 0
        #: Latency-breakdown accumulators over every traversal: cycles a
        #: head flit waited for channel grants (queueing), uncontended
        #: router+wire hop cost, and wormhole serialization (flits - 1).
        #: Flows snapshot these before/after each access to attribute
        #: per-transaction legs (DESIGN.md §14).
        self.traversal_queue_cycles = 0
        self.traversal_hop_cycles = 0
        self.serialization_cycles = 0
        self._validate()

    def _validate(self) -> None:
        known = set(self.topology.nodes)
        for col, nodes in enumerate(self.nodes):
            for position, node in enumerate(nodes):
                if node not in known:
                    raise ConfigurationError(
                        f"bank ({col},{position}) maps to missing node {node}"
                    )

    # -- layout -------------------------------------------------------------

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    def banks_per_column(self, column: int) -> int:
        return len(self.columns[column])

    def bank(self, column: int, position: int) -> BankDescriptor:
        return self.columns[column][position]

    def bank_node(self, column: int, position: int) -> NodeId:
        """Topology node of the router attached to a bank."""
        if self.is_halo:
            return spike_node(column, position)
        return (column, position)

    # -- resources ----------------------------------------------------------

    def channel_resource(self, src: NodeId, dst: NodeId) -> Resource:
        key = (src, dst)
        resource = self._channel_resources.get(key)
        if resource is None:
            self.topology.channel(src, dst)  # validates existence
            resource = Resource(name=f"ch{src}->{dst}", floor_clock=self.floor_clock)
            self._channel_resources[key] = resource
        return resource

    def bank_resource(self, column: int, position: int) -> Resource:
        key = (column, position)
        resource = self._bank_resources.get(key)
        if resource is None:
            resource = Resource(name=f"bank{key}", floor_clock=self.floor_clock)
            self._bank_resources[key] = resource
        return resource

    def bank_row(self, column: int, position: int) -> BankRow:
        """The row of bank (*column*, *position*), resolving the column's
        rows up to it in position order on first use."""
        rows = self.bank_rows[column]
        while len(rows) <= position:
            timing = self.columns[column][len(rows)].timing
            rows.append((
                self.bank_resource(column, len(rows)),
                timing.tag_latency,
                timing.tag_replace_latency,
            ))
        return rows[position]

    def bank_link(self, column: int, position: int) -> Segment:
        """The route from bank *position* to bank *position* + 1, resolving
        the column's links up to it in position order on first use."""
        links = self.links[column]
        nodes = self.nodes[column]
        while len(links) <= position:
            links.append(self.route(nodes[len(links)], nodes[len(links) + 1]))
        return links[position]

    def spike_queue(self, column: int) -> OccupancyTracker:
        if self._spike_queues is None:
            raise ConfigurationError("spike queues exist only on halo designs")
        return self._spike_queues[column]

    def reset_contention(self) -> None:
        """Clear all resource occupancy (fresh run, same layout)."""
        self.floor_clock.reset()
        self.multicast_blocked_cycles = 0
        self.traversal_queue_cycles = 0
        self.traversal_hop_cycles = 0
        self.serialization_cycles = 0
        for resource in self._channel_resources.values():
            resource.reset()
        for resource in self._bank_resources.values():
            resource.reset()
        if self._spike_queues is not None:
            for tracker in self._spike_queues.values():
                tracker.reset()

    def publish_metrics(self, registry) -> None:
        """Export contention counters into a telemetry registry.

        The transaction-level model has no explicit VCs; a channel grant
        that could not start at its requested cycle is the analogue of a
        failed same-cycle VC allocation, so channel waits are published
        under the ``noc.router`` names the flit-level router also uses.
        """
        channels = self._channel_resources.values()
        registry.counter("noc.router.vc_alloc_failures").set(
            sum(r.waits for r in channels)
        )
        registry.counter("noc.router.vc_alloc_wait_cycles").set(
            sum(r.queued_cycles for r in channels)
        )
        registry.counter("noc.router.channel_busy_cycles").set(
            sum(r.busy_cycles for r in channels)
        )
        registry.counter("noc.router.multicast_replica_blocked_cycles").set(
            self.multicast_blocked_cycles
        )
        registry.counter("noc.traversal.queue_cycles").set(
            self.traversal_queue_cycles
        )
        registry.counter("noc.traversal.hop_cycles").set(
            self.traversal_hop_cycles
        )
        registry.counter("noc.traversal.serialization_cycles").set(
            self.serialization_cycles
        )
        # Per-link congestion: one row per channel that carried traffic
        # (the resource dict is lazy, so unused channels never appear).
        # These rows are the heatmap substrate for `repro report`.
        for key in sorted(self._channel_resources, key=str):
            resource = self._channel_resources[key]
            if not resource.grants:
                continue
            src, dst = key
            link = f"{src}->{dst}"
            registry.counter(f"noc.link.grants.{link}").set(resource.grants)
            registry.counter(f"noc.link.busy_cycles.{link}").set(
                resource.busy_cycles
            )
            if resource.queued_cycles:
                registry.counter(f"noc.link.wait_cycles.{link}").set(
                    resource.queued_cycles
                )
        banks = self._bank_resources.values()
        registry.counter("cache.bank.grants").set(sum(r.grants for r in banks))
        registry.counter("cache.bank.busy_cycles").set(
            sum(r.busy_cycles for r in banks)
        )
        registry.counter("cache.bank.wait_cycles").set(
            sum(r.queued_cycles for r in banks)
        )
        if self._spike_queues is not None:
            trackers = self._spike_queues.values()
            registry.counter("noc.spike.queue_waits").set(
                sum(t.waits for t in trackers)
            )
            registry.counter("noc.spike.queue_wait_cycles").set(
                sum(t.queued_cycles for t in trackers)
            )

    # -- timing primitives ----------------------------------------------------

    def hop_cost(self, src: NodeId, dst: NodeId) -> int:
        """Uncontended head-flit cost of one hop: router + wire."""
        channel = self.topology.channel(src, dst)
        return self.router_config.hop_latency + channel.wire_delay

    def route(self, src: NodeId, dst: NodeId) -> Segment:
        """Resolved route of (src, dst), computed on the pair's first use."""
        segment = self._plans.get((src, dst))
        if segment is None:
            segment = self._plans[(src, dst)] = Segment(
                src,
                dst,
                tuple(
                    (
                        self.channel_resource(hop_src, hop_dst),
                        self.hop_cost(hop_src, hop_dst),
                        hop_dst,
                    )
                    for hop_src, hop_dst in itertools.pairwise(
                        self.routing.path(self.topology, src, dst)
                    )
                ),
            )
        return segment

    def column_chain(self, column: int, core: NodeId | None = None) -> ColumnChain:
        """The multicast chain into *column* from *core* (default: the
        geometry's core), resolved once per (column, entry node)."""
        entry = core if core is not None else self.core_node
        chain = self._chains.get((column, entry))
        if chain is None:
            bank0 = self.nodes[column][0]
            chain = self._chains[(column, entry)] = ColumnChain(
                self.route(entry, bank0) if entry != bank0 else None,
                tuple(
                    self.bank_link(column, position)
                    for position in range(self.banks_per_column(column) - 1)
                ),
            )
        return chain

    def reserve_segment(
        self,
        segment: Segment,
        time: int,
        flits: int,
        waypoints: list[int] | None = None,
    ) -> int:
        """Reserve one segment's channels for a *flits*-flit packet whose
        head leaves at *time*; returns the tail's arrival.

        This is the only place channels are reserved. Each hop is granted
        exactly as ``Resource.acquire(head, flits)`` would grant it: the
        fresh-list and idle-tail cases inline (every channel shares this
        geometry's floor clock), the rest through ``acquire``. When
        *waypoints* is given it receives the head's arrival at every
        intermediate node, in hop order (``segment.waypoint_index``). The
        caller charges the traversal counters for it as one traversal from
        *time* to the returned arrival (:meth:`charge_traversals`).
        """
        head = time
        floor = self.floor_clock.time
        for resource, cost, _ in segment.hops:
            ends = resource._ends
            if head >= 0 and (not ends or ends[-1] <= floor):
                resource._starts, resource._ends = [head], [head + flits]
                resource.busy_cycles += flits
                resource.grants += 1
            elif ends and ends[-1] <= head:
                if ends[0] <= floor:
                    resource._prune()
                resource._starts.append(head)
                ends.append(head + flits)
                resource.busy_cycles += flits
                resource.grants += 1
            else:
                head = resource.acquire(head, flits)
            head += cost
            if waypoints is not None:
                waypoints.append(head)
        if waypoints:
            waypoints.pop()  # the last hop reaches dst
        return head + (flits - 1)

    def charge_traversals(
        self, travel: int, hop_cycles: int, sends: int, flits: int
    ) -> int:
        """Charge *sends* traversals of *flits* flits that took *travel*
        cycles in all from send to tail arrival over *hop_cycles* of
        uncontended hops. What serialization does not explain is channel
        queueing; returns it."""
        serialization = sends * (flits - 1)
        queued = travel - hop_cycles - serialization
        self.traversal_queue_cycles += queued
        self.traversal_hop_cycles += hop_cycles
        self.serialization_cycles += serialization
        return queued

    def send(
        self,
        segment: Segment,
        time: int,
        flits: int,
        waypoints: list[int] | None = None,
    ) -> int:
        """Move a *flits*-flit packet along *segment* starting at *time* and
        charge it as one traversal; returns the tail's arrival (*time*
        itself when the segment has no hops)."""
        if not segment.hops:
            return time
        arrival = self.reserve_segment(segment, time, flits, waypoints)
        serialization = flits - 1
        self.traversal_queue_cycles += (
            arrival - time - segment.cost - serialization
        )
        self.traversal_hop_cycles += segment.cost
        self.serialization_cycles += serialization
        return arrival

    def traverse(
        self,
        src: NodeId,
        dst: NodeId,
        time: int,
        flits: int,
        record_waypoints: bool = False,
    ) -> tuple[int, dict[NodeId, int]]:
        """Move a *flits*-flit packet from *src* to *dst* starting at *time*.

        Each channel on the routed path is reserved FCFS for *flits* cycles
        (wormhole serialization). Returns ``(arrival, waypoints)`` where
        *arrival* is when the complete packet is available at *dst* and
        *waypoints* maps intermediate nodes to head-flit arrival times
        (only filled when *record_waypoints*).
        """
        segment = self.route(src, dst)
        if not record_waypoints:
            return self.send(segment, time, flits), {}
        heads: list[int] = []
        arrival = self.send(segment, time, flits, heads)
        return arrival, {
            node: heads[index] for node, index in segment.waypoint_index.items()
        }

    def multicast_column(
        self, column: int, time: int, core: NodeId | None = None
    ) -> list[int]:
        """Deliver one multicast request flit to every bank of a column.

        Models the Section-3.1 chain replication: the flit travels from the
        core toward the column, and at every bank router a replica ejects
        while the original continues to the next bank. Returns the request
        arrival time at each bank position.
        """
        chain = self.column_chain(column, core)
        send = self.reserve_segment
        head = time
        if chain.entry is not None:
            head = send(chain.entry, head, MULTICAST_FLITS)
        arrivals = [head]
        for link in chain.links:
            head = send(link, head, MULTICAST_FLITS)
            arrivals.append(head)
        # Each segment leaves when the previous one arrives, so the chain
        # travels from *time* to the final arrival; a grant never starts
        # before its request, so all its queueing is the replicas'
        # blocking.
        self.multicast_blocked_cycles += self.charge_traversals(
            head - time, chain.hop_cycles, chain.sends, MULTICAST_FLITS
        )
        return arrivals

    # -- common endpoints -----------------------------------------------------

    def core_to_bank(
        self,
        column: int,
        position: int,
        time: int,
        flits: int,
        core: NodeId | None = None,
    ) -> int:
        src = core if core is not None else self.core_node
        return self.send(
            self.route(src, self.nodes[column][position]), time, flits
        )

    def bank_to_core(
        self,
        column: int,
        position: int,
        time: int,
        flits: int,
        core: NodeId | None = None,
    ) -> int:
        dst = core if core is not None else self.core_node
        return self.send(
            self.route(self.nodes[column][position], dst), time, flits
        )

    def core_to_memory(
        self, time: int, flits: int, core: NodeId | None = None
    ) -> int:
        src = core if core is not None else self.core_node
        arrival = self.send(self.route(src, self.memory_node), time, flits)
        return arrival + self.memory_pin_delay

    def memory_to_bank(
        self, column: int, position: int, time: int, flits: int
    ) -> int:
        return self.send(
            self.route(self.memory_node, self.nodes[column][position]),
            time + self.memory_pin_delay,
            flits,
        )

    def bank_to_memory(
        self, column: int, position: int, time: int, flits: int
    ) -> int:
        arrival = self.send(
            self.route(self.nodes[column][position], self.memory_node),
            time,
            flits,
        )
        return arrival + self.memory_pin_delay

    def enter_column(self, column: int, time: int) -> int:
        """Admission step before a request leaves the core.

        On halo designs the request first claims one of the spike's queue
        entries; on meshes admission is immediate.
        """
        if self._spike_queues is None:
            return time
        return self.spike_queue(column).acquire(time, 1) + 1
