"""Routing algorithms: XY, deadlock-free XYX (Fig. 5), and spike routing.

Route computers map ``(current node, destination node)`` to the next node;
the output port of a router is identified with the neighbor it reaches.
``None`` means the flit has arrived and must be ejected (the *Internal*
channel of Fig. 5(a)).

Coordinates follow :mod:`repro.noc.topology`: ``y`` grows downward, away
from the core row (y = 0), so ``Y+`` is the request direction down a bank
column and ``Y-`` is the reply direction back toward the core/memory row.
"""

from __future__ import annotations

import enum
from typing import Iterable

from repro.errors import RoutingError
from repro.noc.topology import HUB, HaloTopology, NodeId, Topology


class Direction(enum.Enum):
    """Physical-channel directions of a mesh router (plus local port)."""

    X_PLUS = "X+"
    X_MINUS = "X-"
    Y_PLUS = "Y+"
    Y_MINUS = "Y-"
    LOCAL = "internal"


def mesh_step(node: NodeId, direction: Direction) -> NodeId:
    """Neighbor of *node* in *direction* (mesh coordinates)."""
    x, y = node
    if direction is Direction.X_PLUS:
        return (x + 1, y)
    if direction is Direction.X_MINUS:
        return (x - 1, y)
    if direction is Direction.Y_PLUS:
        return (x, y + 1)
    if direction is Direction.Y_MINUS:
        return (x, y - 1)
    return node


class RouteComputer:
    """Base interface: pick the next node toward *destination*."""

    name = "route"

    def next_hop(
        self, topology: Topology, current: NodeId, destination: NodeId
    ) -> NodeId | None:
        raise NotImplementedError

    def path(
        self, topology: Topology, source: NodeId, destination: NodeId
    ) -> list[NodeId]:
        """Full node path ``[source, ..., destination]``.

        Raises :class:`RoutingError` if the algorithm selects a channel the
        topology does not provide, or fails to make progress.
        """
        path = [source]
        current = source
        limit = topology.num_nodes + 1
        while current != destination:
            nxt = self.next_hop(topology, current, destination)
            if nxt is None:
                raise RoutingError(
                    f"{self.name}: stalled at {current} before reaching {destination}"
                )
            if not topology.has_channel(current, nxt):
                raise RoutingError(
                    f"{self.name}: selected missing channel {current}->{nxt} "
                    f"in {topology.name}"
                )
            path.append(nxt)
            current = nxt
            if len(path) > limit:
                raise RoutingError(
                    f"{self.name}: path exceeds node count "
                    f"({source}->{destination}); routing loop"
                )
        return path

    def hops(self, topology: Topology, source: NodeId, destination: NodeId) -> int:
        """Number of channel traversals from source to destination."""
        return len(self.path(topology, source, destination)) - 1


class XYRouting(RouteComputer):
    """Dimension-ordered XY routing: resolve X fully, then Y."""

    name = "XY"

    def direction(self, current: NodeId, destination: NodeId) -> Direction:
        x, y = current
        dx, dy = destination
        if dx > x:
            return Direction.X_PLUS
        if dx < x:
            return Direction.X_MINUS
        if dy > y:
            return Direction.Y_PLUS
        if dy < y:
            return Direction.Y_MINUS
        return Direction.LOCAL

    def next_hop(
        self, topology: Topology, current: NodeId, destination: NodeId
    ) -> NodeId | None:
        direction = self.direction(current, destination)
        if direction is Direction.LOCAL:
            return None
        return mesh_step(current, direction)


class XYXRouting(RouteComputer):
    """The paper's deadlock-free XYX routing (Fig. 5(a)).

    Moving *away* from the core row (``Yoffset >= 0``) routes X first then
    Y+; moving back toward it routes Y- first, finishing with X along the
    destination row. On the simplified mesh this confines every horizontal
    hop to the first row for the cache's traffic patterns.
    """

    name = "XYX"

    def direction(self, current: NodeId, destination: NodeId) -> Direction:
        x_offset = destination[0] - current[0]
        y_offset = destination[1] - current[1]
        if y_offset >= 0:
            if x_offset > 0:
                return Direction.X_PLUS
            if x_offset < 0:
                return Direction.X_MINUS
            if y_offset == 0:
                return Direction.LOCAL
            return Direction.Y_PLUS
        return Direction.Y_MINUS

    def next_hop(
        self, topology: Topology, current: NodeId, destination: NodeId
    ) -> NodeId | None:
        direction = self.direction(current, destination)
        if direction is Direction.LOCAL:
            return None
        return mesh_step(current, direction)


class SpikeRouting(RouteComputer):
    """Routing on a halo: along the spike, through the hub across spikes."""

    name = "spike"

    def next_hop(
        self, topology: Topology, current: NodeId, destination: NodeId
    ) -> NodeId | None:
        if current == destination:
            return None
        if current == HUB:
            if destination == HUB:
                return None
            _, spike, _ = destination
            return ("spike", spike, 0)
        _, cur_spike, cur_pos = current
        if destination == HUB:
            return HUB if cur_pos == 0 else ("spike", cur_spike, cur_pos - 1)
        _, dst_spike, dst_pos = destination
        if dst_spike != cur_spike:
            # Cross-spike traffic funnels through the hub.
            return HUB if cur_pos == 0 else ("spike", cur_spike, cur_pos - 1)
        if dst_pos > cur_pos:
            return ("spike", cur_spike, cur_pos + 1)
        return ("spike", cur_spike, cur_pos - 1)


def routing_for(topology: Topology) -> RouteComputer:
    """Pick the natural route computer for *topology*.

    Full meshes use XY (Design A); simplified meshes require XYX (Designs
    B-D); halos use spike routing (Designs E-F).
    """
    from repro.noc.topology import MeshTopology, SimplifiedMeshTopology

    if isinstance(topology, HaloTopology):
        return SpikeRouting()
    if isinstance(topology, SimplifiedMeshTopology):
        return XYXRouting()
    if isinstance(topology, MeshTopology):
        return XYRouting()
    raise RoutingError(f"no default routing for topology {topology.name!r}")


def xyx_channel_number(cols: int, rows: int, src: NodeId, dst: NodeId) -> int:
    """Total channel enumeration proving XYX deadlock freedom (Fig. 5(b)).

    Every XYX path is either an X-phase followed by a Y+ phase, or a
    Y- phase followed by an X phase. Numbering the three channel classes in
    layers -- all Y- channels lowest, then X channels, then Y+ channels --
    with coordinate-monotone numbers inside each class makes every legal
    path follow strictly increasing channel numbers, so the channel
    dependency graph is acyclic and the routing is deadlock-free.
    """
    (sx, sy), (dx, dy) = src, dst
    if sx == dx:
        if dy == sy - 1:  # Y- channel
            return sx * (rows - 1) + (rows - 1 - sy)
        if dy == sy + 1:  # Y+ channel
            base = cols * (rows - 1) + 2 * rows * (cols - 1)
            return base + sx * (rows - 1) + sy
    elif sy == dy:
        if dx == sx + 1:  # X+ channel
            base = cols * (rows - 1)
            return base + sy * (cols - 1) + sx
        if dx == sx - 1:  # X- channel
            base = cols * (rows - 1) + rows * (cols - 1)
            return base + sy * (cols - 1) + (cols - 1 - sx)
    raise RoutingError(f"{src}->{dst} is not a mesh channel")


def xyx_path_channel_numbers(
    cols: int, rows: int, path: Iterable[NodeId]
) -> list[int]:
    """Fig. 5(b) enumeration number of each channel along a node path.

    A legal XYX path must yield a strictly increasing list -- the online
    form of the deadlock-freedom argument that the validation checkers
    enforce per switch traversal.
    """
    nodes = list(path)
    return [
        xyx_channel_number(cols, rows, src, dst)
        for src, dst in zip(nodes, nodes[1:])
    ]


def channel_dependency_graph(
    topology: Topology,
    routing: RouteComputer,
    pairs: Iterable[tuple[NodeId, NodeId]] | None = None,
) -> dict[tuple[NodeId, NodeId], set[tuple[NodeId, NodeId]]]:
    """Build the channel dependency graph induced by *routing*.

    Each of the topology's directed channels ``(src, dst)`` maps to the
    set of channels some routed path holds it while requesting (i.e. uses
    right after it). Wormhole routing is deadlock-free iff this graph is
    acyclic (Dally & Seitz).
    """
    graph: dict[tuple[NodeId, NodeId], set[tuple[NodeId, NodeId]]] = {
        (channel.src, channel.dst): set() for channel in topology.channels()
    }
    if pairs is None:
        nodes = sorted(topology.nodes)
        pairs = ((s, d) for s in nodes for d in nodes if s != d)
    for source, destination in pairs:
        path = routing.path(topology, source, destination)
        for i in range(len(path) - 2):
            graph[(path[i], path[i + 1])].add((path[i + 1], path[i + 2]))
    return graph


def is_deadlock_free(
    topology: Topology,
    routing: RouteComputer,
    pairs: Iterable[tuple[NodeId, NodeId]] | None = None,
) -> bool:
    """True when *routing*'s channel dependency graph is acyclic.

    Kahn's algorithm: peel channels nothing depends on until none is
    left. A cycle keeps its channels' in-degrees above zero, so the graph
    is acyclic iff every channel is peeled.
    """
    graph = channel_dependency_graph(topology, routing, pairs)
    in_degree = dict.fromkeys(graph, 0)
    for successors in graph.values():
        for channel in successors:
            in_degree[channel] += 1
    ready = [channel for channel, degree in in_degree.items() if degree == 0]
    peeled = 0
    while ready:
        peeled += 1
        for channel in graph[ready.pop()]:
            in_degree[channel] -= 1
            if in_degree[channel] == 0:
                ready.append(channel)
    return peeled == len(graph)
