"""Unit tests for the resource-aware cache geometry."""

import pytest

from repro.core.designs import design_a, design_e, design_f
from repro.core.geometry import CacheGeometry
from repro.errors import ConfigurationError
from repro.noc.topology import HUB


@pytest.fixture
def mesh_geometry() -> CacheGeometry:
    return design_a.build()


@pytest.fixture
def halo_geometry() -> CacheGeometry:
    return design_e.build()


class TestLayout:
    def test_mesh_bank_nodes(self, mesh_geometry):
        assert mesh_geometry.bank_node(3, 7) == (3, 7)
        assert mesh_geometry.num_columns == 16
        assert mesh_geometry.banks_per_column(0) == 16

    def test_halo_bank_nodes(self, halo_geometry):
        assert halo_geometry.bank_node(2, 5) == ("spike", 2, 5)
        assert halo_geometry.core_node == HUB

    def test_attach_points(self, mesh_geometry):
        assert mesh_geometry.core_node == (8, 0)
        assert mesh_geometry.memory_node == (8, 15)

    def test_memory_pin_delay(self):
        assert design_e.build().memory_pin_delay == 16
        assert design_f.build().memory_pin_delay == 9


class TestTraverse:
    def test_single_hop_head_cost(self, mesh_geometry):
        arrival, _ = mesh_geometry.traverse((0, 0), (0, 1), 0, flits=1)
        assert arrival == 2  # router 1 + wire 1

    def test_serialization_tail(self, mesh_geometry):
        arrival, _ = mesh_geometry.traverse((0, 0), (0, 1), 0, flits=5)
        assert arrival == 2 + 4

    def test_multi_hop(self, mesh_geometry):
        arrival, _ = mesh_geometry.traverse((0, 0), (0, 4), 0, flits=1)
        assert arrival == 4 * 2

    def test_same_node_is_free(self, mesh_geometry):
        arrival, waypoints = mesh_geometry.traverse((3, 3), (3, 3), 17, flits=5)
        assert arrival == 17 and waypoints == {}

    def test_waypoints_record_head_arrivals(self, mesh_geometry):
        arrival, waypoints = mesh_geometry.traverse(
            (0, 3), (0, 0), 0, flits=1, record_waypoints=True
        )
        assert waypoints[(0, 2)] == 2
        assert waypoints[(0, 1)] == 4
        assert (0, 0) not in waypoints  # destination is not a waypoint

    def test_contention_queues_second_packet(self, mesh_geometry):
        first, _ = mesh_geometry.traverse((0, 0), (0, 1), 0, flits=5)
        second, _ = mesh_geometry.traverse((0, 0), (0, 1), 0, flits=5)
        assert second == first + 5  # waits 5 flit cycles on the channel

    def test_reset_contention(self, mesh_geometry):
        mesh_geometry.traverse((0, 0), (0, 1), 0, flits=5)
        mesh_geometry.reset_contention()
        arrival, _ = mesh_geometry.traverse((0, 0), (0, 1), 0, flits=5)
        assert arrival == 6


class TestMulticastColumn:
    def test_arrivals_monotone(self, mesh_geometry):
        arrivals, _ = mesh_geometry.multicast_column(4, 0)
        assert len(arrivals) == 16
        assert all(a < b for a, b in zip(arrivals, arrivals[1:]))

    def test_first_arrival_includes_row_traversal(self, mesh_geometry):
        arrivals, _ = mesh_geometry.multicast_column(4, 0)
        # core (8,0) -> (4,0): 4 horizontal hops at 2 cycles each.
        assert arrivals[0] == 8

    def test_halo_spike_arrival_one_hop(self, halo_geometry):
        arrivals, _ = halo_geometry.multicast_column(7, 0)
        assert arrivals[0] == 2  # hub -> MRU bank: one hop


class TestMemoryPaths:
    def test_mesh_core_to_memory(self, mesh_geometry):
        arrival = mesh_geometry.core_to_memory(0, flits=1)
        assert arrival == 15 * 2  # straight down column 8

    def test_halo_core_to_memory_pays_pin_delay(self, halo_geometry):
        assert halo_geometry.core_to_memory(0, flits=1) == 16

    def test_halo_fill_pays_pin_delay(self, halo_geometry):
        arrival = halo_geometry.memory_to_bank(3, 0, 0, flits=1)
        assert arrival == 16 + 2


class TestSpikeQueues:
    def test_mesh_admission_is_immediate(self, mesh_geometry):
        assert mesh_geometry.enter_column(0, 5) == 5

    def test_spike_queue_allows_two(self, halo_geometry):
        assert halo_geometry.enter_column(0, 0) == 1
        assert halo_geometry.enter_column(0, 0) == 1
        assert halo_geometry.enter_column(0, 0) == 2

    def test_mesh_has_no_spike_queue(self, mesh_geometry):
        with pytest.raises(ConfigurationError):
            mesh_geometry.spike_queue(0)
