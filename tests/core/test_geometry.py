"""Unit tests for the resource-aware cache geometry."""

import pytest

from repro.cache.address import AddressMapper
from repro.cache.bank import bank_descriptors_for_column
from repro.core.designs import NUM_COLUMNS, design_a, design_e, design_f
from repro.core.geometry import CacheGeometry
from repro.core.system import NetworkedCacheSystem
from repro.errors import ConfigurationError
from repro.noc.topology import HUB
from repro.telemetry.registry import SPAN_CYCLE_EDGES

MAPPER = AddressMapper()


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


def _geometry(spec, spike_queue_entries: int) -> CacheGeometry:
    columns = [
        bank_descriptors_for_column(list(spec.bank_capacities))
        for _ in range(NUM_COLUMNS)
    ]
    return CacheGeometry(
        spec.topology_factory(), columns,
        spike_queue_entries=spike_queue_entries,
    )


def _system(spec, spike_queue_entries: int = 2) -> NetworkedCacheSystem:
    return NetworkedCacheSystem(
        design=spec.key, geometry=_geometry(spec, spike_queue_entries)
    )


def _issue(system, *tags, at=0):
    """Access column 5 once per tag (set index = tag), all at cycle *at*.

    Returns each access's timing and the cycles from its issue to its
    request leaving the core (its ``injection_queueing`` leg).
    """
    leg = system.engine.metrics.histogram(
        "cache.span.injection_queueing", SPAN_CYCLE_EDGES
    )
    runs = []
    for tag in tags:
        before = leg.total
        timing = system.access(MAPPER.encode(tag=tag, index=tag, column=5), at=at)
        runs.append((timing, leg.total - before))
    return runs


def _forget_contention(system) -> None:
    system.geometry.reset_contention()
    system.memory.reset()
    system.engine.reset()


class TestSpikeQueues:
    """A halo spike's issue queue is its column's transaction slots."""

    def test_mesh_admission_is_immediate(self):
        [(_, admission)] = _issue(_system(design_a), 1, at=7)
        assert admission == 0

    def test_spike_queue_allows_two(self):
        (first, wait1), (second, wait2) = _issue(_system(design_f, 2), 1, 2)
        # Each request spends its one admission cycle, and the second
        # overlaps the first instead of waiting for it to settle.
        assert wait1 == wait2 == 1
        assert second.data_at_core == 254
        assert second.data_at_core < first.settled + first.latency

    def test_two_entries_admit_two_concurrent(self):
        (first, wait1), (_, wait2), (_, wait3) = _issue(
            _system(design_f, 2), 1, 2, 3
        )
        # Two requests hold both entries at once; a third waits until
        # the first settles and frees its entry.
        assert wait1 == wait2 == 1
        assert wait3 == first.settled + 1

    def test_one_entry_serializes_the_spike(self):
        (first, _), (second, wait) = _issue(_system(design_f, 1), 1, 2)
        assert first.settled == 223
        # The second request enters the queue only when the first
        # settles, then replays the first one's uncontended flow.
        assert wait == first.settled + 1
        assert second.data_at_core == first.settled + first.latency == 445

    def test_earliest_free_entry_wins(self):
        system = _system(design_f, 2)
        _issue(system, 1)  # tag 1 now sits in the MRU bank
        _forget_contention(system)
        (miss, _), (hit, _), (_, wait) = _issue(system, 2, 1, 3)
        assert not miss.hit and hit.hit
        assert hit.settled < miss.settled
        # Both entries are taken; the hit's frees first.
        assert wait == hit.settled + 1

    def test_reset_frees_every_entry(self):
        system = _system(design_f, 1)
        [(first, _)] = _issue(system, 1)
        _forget_contention(system)
        [(second, wait)] = _issue(system, 2)
        assert wait == 1
        assert second.latency == first.latency

    def test_depth_is_the_halo_column_slots(self):
        assert _geometry(design_f, 4).column_slots == 4
        assert design_f.build().column_slots == 2

    def test_mesh_column_admits_one_transaction(self):
        # A mesh column admits one transaction whatever the depth knob.
        assert _geometry(design_a, 4).column_slots == 1

    @pytest.mark.parametrize("spec", [design_a, design_f], ids=["mesh", "halo"])
    def test_zero_entries_is_a_configuration_error(self, spec):
        with pytest.raises(ConfigurationError):
            _geometry(spec, 0)
