"""Degraded routing: U-route detours, declared unroutability, proof checks."""

import pytest

from repro.errors import ValidationError
from repro.faults import DegradedRouting, alive_nodes, verify_degraded
from repro.noc.routing import routing_for
from repro.noc.topology import MeshTopology, SimplifiedMeshTopology


def _degraded(topology, cuts=()):
    """DegradedRouting with both directions of each cut pair dead."""
    dead = set()
    for src, dst in cuts:
        dead.add((src, dst))
        dead.add((dst, src))
    return DegradedRouting(topology, routing_for(topology), frozenset(dead))


class TestZeroFault:
    def test_paths_identical_to_base(self):
        topology = MeshTopology(3, 3)
        base = routing_for(topology)
        degraded = _degraded(topology)
        nodes = sorted(topology.nodes)
        for src in nodes:
            for dst in nodes:
                if src != dst:
                    assert degraded.path(topology, src, dst) == base.path(
                        topology, src, dst
                    )
        assert degraded.detour_hops == 0

    def test_verify_reports_nothing_degraded(self):
        topology = MeshTopology(3, 3)
        report = verify_degraded(topology, _degraded(topology))
        assert report["rerouted_pairs"] == 0
        assert report["unroutable_pairs"] == 0


class TestUDetours:
    def test_horizontal_cut_takes_u_route(self):
        topology = MeshTopology(4, 4)
        routing = _degraded(topology, [((1, 2), (2, 2))])
        path = routing.path(topology, (1, 2), (3, 2))
        # Ascend to row 1, cross, descend: the U-route of the docstring.
        assert path == [(1, 2), (1, 1), (2, 1), (3, 1), (3, 2)]
        assert routing.detour_hops > 0
        assert routing.is_rerouted((1, 2), (3, 2))

    def test_verify_passes_with_reroutes(self):
        topology = MeshTopology(4, 4)
        routing = _degraded(topology, [((1, 2), (2, 2))])
        report = verify_degraded(topology, routing)
        assert report["rerouted_pairs"] > 0
        assert report["unroutable_pairs"] == 0
        assert routing.detour_hops == 0  # verification walks don't count

    def test_vertical_cut_truncates_column_below(self):
        topology = MeshTopology(4, 4)
        routing = _degraded(topology, [((1, 1), (1, 2))])
        # Below the cut the descent reuses the dead channel: unroutable.
        assert not routing.can_route((0, 0), (1, 2))
        assert not routing.can_route((0, 0), (1, 3))
        assert routing.can_route((0, 0), (1, 1))
        report = verify_degraded(topology, routing)
        assert report["unroutable_pairs"] > 0

    def test_strict_pairs_raise_on_unroutable(self):
        topology = MeshTopology(4, 4)
        routing = _degraded(topology, [((1, 1), (1, 2))])
        with pytest.raises(ValidationError):
            verify_degraded(topology, routing, pairs=[((0, 0), (1, 3))])

    def test_can_route_leaves_detour_count_untouched(self):
        topology = MeshTopology(4, 4)
        routing = _degraded(topology, [((1, 2), (2, 2))])
        assert routing.can_route((1, 2), (3, 2))
        assert routing.detour_hops == 0


class TestSimplifiedMesh:
    def test_base_dead_is_unroutable(self):
        topology = SimplifiedMeshTopology(4, 4)
        routing = _degraded(topology, [((1, 1), (1, 2))])
        # On the simplified mesh the only XYX-legal descent is the base
        # path itself, so a cut column truncates: base-or-nothing.
        assert not routing.can_route((1, 0), (1, 2))
        assert routing.can_route((1, 0), (1, 1))

    def test_verify_checks_channel_enumeration(self):
        topology = SimplifiedMeshTopology(4, 4)
        report = verify_degraded(topology, _degraded(topology))
        assert report["xyx_checked"] is True
        assert report["pairs_checked"] > 0


class TestAliveAndFallback:
    def test_alive_excludes_cutoff_suffix(self):
        topology = SimplifiedMeshTopology(4, 4)
        dead = frozenset({((1, 1), (1, 2)), ((1, 2), (1, 1))})
        alive = alive_nodes(topology, dead)
        assert (1, 2) not in alive
        assert (1, 3) not in alive
        assert (1, 1) in alive
