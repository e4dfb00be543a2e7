"""Unit and property tests for XY / XYX / spike routing (Fig. 5)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.noc import (
    Direction,
    HaloTopology,
    MeshTopology,
    SimplifiedMeshTopology,
    XYRouting,
    XYXRouting,
    channel_dependency_graph,
    xyx_channel_number,
)
from repro.noc.routing import (
    RouteComputer,
    SpikeRouting,
    is_deadlock_free,
    routing_for,
)
from repro.noc.topology import HUB, spike_node

coords = st.tuples(st.integers(0, 7), st.integers(0, 7))


class TestXYRouting:
    def test_x_resolved_first(self):
        routing = XYRouting()
        assert routing.direction((0, 0), (3, 3)) is Direction.X_PLUS
        assert routing.direction((3, 0), (3, 3)) is Direction.Y_PLUS

    def test_arrival_is_local(self):
        assert XYRouting().direction((2, 2), (2, 2)) is Direction.LOCAL

    def test_path_on_mesh(self):
        mesh = MeshTopology(4, 4)
        path = XYRouting().path(mesh, (0, 0), (2, 3))
        assert path == [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (2, 3)]

    def test_hops(self):
        mesh = MeshTopology(4, 4)
        assert XYRouting().hops(mesh, (0, 0), (3, 3)) == 6
        assert XYRouting().hops(mesh, (1, 1), (1, 1)) == 0

    @given(src=coords, dst=coords)
    @settings(max_examples=80, deadline=None)
    def test_always_reaches_destination(self, src, dst):
        mesh = MeshTopology(8, 8)
        path = XYRouting().path(mesh, src, dst)
        assert path[0] == src and path[-1] == dst
        assert len(path) - 1 == abs(src[0] - dst[0]) + abs(src[1] - dst[1])


class TestXYXRouting:
    def test_requests_go_x_first(self):
        routing = XYXRouting()
        assert routing.direction((0, 0), (3, 3)) is Direction.X_PLUS

    def test_replies_go_y_first(self):
        # From a bank (row 3) back to the core row: Y- first.
        routing = XYXRouting()
        assert routing.direction((3, 3), (0, 0)) is Direction.Y_MINUS
        assert routing.direction((3, 0), (0, 0)) is Direction.X_MINUS

    def test_legal_on_simplified_mesh_for_cache_traffic(self):
        mesh = SimplifiedMeshTopology(8, 8)
        routing = XYXRouting()
        core = mesh.core_attach
        for node in sorted(mesh.nodes):
            if node == core:
                continue
            down = routing.path(mesh, core, node)
            up = routing.path(mesh, node, core)
            assert down[-1] == node and up[-1] == core

    def test_illegal_mid_mesh_horizontal_detected(self):
        mesh = SimplifiedMeshTopology(4, 4)
        # (0,2) -> (3,3): Yoff >= 0 selects X+ at row 2, which is removed.
        with pytest.raises(RoutingError, match="missing channel"):
            XYXRouting().path(mesh, (0, 2), (3, 3))

    @given(src=coords, dst=coords)
    @settings(max_examples=100, deadline=None)
    def test_channel_numbers_strictly_increase(self, src, dst):
        """The Fig.-5 enumeration: every XYX path climbs channel numbers,
        hence the routing is deadlock-free."""
        mesh = MeshTopology(8, 8)
        path = XYXRouting().path(mesh, src, dst)
        numbers = [
            xyx_channel_number(8, 8, path[i], path[i + 1])
            for i in range(len(path) - 1)
        ]
        assert all(a < b for a, b in zip(numbers, numbers[1:]))

    def test_channel_number_rejects_non_channel(self):
        with pytest.raises(RoutingError):
            xyx_channel_number(4, 4, (0, 0), (2, 2))

    def test_channel_numbers_unique(self):
        mesh = MeshTopology(4, 4)
        numbers = [
            xyx_channel_number(4, 4, c.src, c.dst) for c in mesh.channels()
        ]
        assert len(numbers) == len(set(numbers))


class TestSpikeRouting:
    def test_hub_to_spike(self):
        halo = HaloTopology(4, 4)
        path = SpikeRouting().path(halo, HUB, spike_node(2, 3))
        assert path == [HUB] + [spike_node(2, i) for i in range(4)]

    def test_spike_to_hub(self):
        halo = HaloTopology(4, 4)
        path = SpikeRouting().path(halo, spike_node(1, 2), HUB)
        assert path == [spike_node(1, 2), spike_node(1, 1), spike_node(1, 0), HUB]

    def test_cross_spike_via_hub(self):
        halo = HaloTopology(4, 4)
        path = SpikeRouting().path(halo, spike_node(0, 1), spike_node(3, 0))
        assert HUB in path

    def test_within_spike_down(self):
        halo = HaloTopology(4, 4)
        assert SpikeRouting().hops(halo, spike_node(0, 0), spike_node(0, 3)) == 3


class TestDeadlockFreedom:
    def test_xy_on_mesh(self):
        assert is_deadlock_free(MeshTopology(4, 4), XYRouting())

    def test_xyx_on_full_mesh(self):
        assert is_deadlock_free(MeshTopology(4, 4), XYXRouting())

    def test_xyx_on_simplified_mesh_cache_traffic(self):
        mesh = SimplifiedMeshTopology(5, 5)
        endpoints = (mesh.core_attach, mesh.memory_attach)
        pairs = []
        for node in sorted(mesh.nodes):
            for endpoint in endpoints:
                if node != endpoint:
                    pairs.append((endpoint, node))
                    pairs.append((node, endpoint))
        # plus in-column replacement traffic
        for x in range(5):
            for y in range(4):
                pairs.append(((x, y), (x, y + 1)))
                pairs.append(((x, y + 1), (x, y)))
        assert is_deadlock_free(mesh, XYXRouting(), pairs)

    def test_spike_routing_on_halo(self):
        assert is_deadlock_free(HaloTopology(4, 4), SpikeRouting())

    def test_cdg_has_edges(self):
        mesh = MeshTopology(3, 3)
        graph = channel_dependency_graph(mesh, XYRouting())
        assert len(graph) == len(mesh.channels())
        assert any(graph.values())

    def test_clockwise_ring_routing_is_cyclic(self):
        # Every path turns the same way round the 2x2 ring, so its four
        # clockwise channels wait on each other in a cycle.
        ring = [(0, 0), (1, 0), (1, 1), (0, 1)]

        class ClockwiseRouting(RouteComputer):
            name = "clockwise"

            def next_hop(self, topology, current, destination):
                if current == destination:
                    return None
                return ring[(ring.index(current) + 1) % len(ring)]

        assert not is_deadlock_free(MeshTopology(2, 2), ClockwiseRouting())


class TestRoutingFor:
    def test_defaults(self):
        assert isinstance(routing_for(MeshTopology(4, 4)), XYRouting)
        assert isinstance(routing_for(SimplifiedMeshTopology(4, 4)), XYXRouting)
        assert isinstance(routing_for(HaloTopology(4, 4)), SpikeRouting)

    def test_unknown_topology_rejected(self):
        from repro.noc.topology import Topology

        with pytest.raises(RoutingError):
            routing_for(Topology())
