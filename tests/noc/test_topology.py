"""Unit tests for mesh, simplified mesh, and halo topologies."""

from collections import Counter

import pytest

from repro.errors import TopologyError
from repro.noc import HaloTopology, MeshTopology, SimplifiedMeshTopology
from repro.noc.topology import HUB, Channel, Topology, spike_node


class TestChannel:
    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError):
            Channel(src=(0, 0), dst=(0, 0))

    def test_negative_delay_rejected(self):
        with pytest.raises(TopologyError):
            Channel(src=(0, 0), dst=(0, 1), wire_delay=-1)


class TestTopologyBase:
    def test_channel_endpoints_must_exist(self):
        topology = Topology()
        topology.add_node((0, 0))
        with pytest.raises(TopologyError):
            topology.add_channel((0, 0), (1, 1))

    def test_duplicate_channel_rejected(self):
        topology = Topology()
        topology.add_node(1)
        topology.add_node(2)
        topology.add_channel(1, 2)
        with pytest.raises(TopologyError, match="duplicate"):
            topology.add_channel(1, 2)

    def test_missing_channel_lookup_raises(self):
        topology = Topology()
        topology.add_node(1)
        topology.add_node(2)
        with pytest.raises(TopologyError):
            topology.channel(1, 2)

    def test_bidirectional_counts_one_link(self):
        topology = Topology()
        topology.add_node(1)
        topology.add_node(2)
        topology.add_bidirectional(1, 2)
        assert len(topology.channels()) == 2
        assert topology.num_links == 1

    def test_scale_wire_delays_multiplies_every_channel(self):
        halo = HaloTopology(2, 5, position_bank_capacities=[
            64 * 1024, 64 * 1024, 128 * 1024, 256 * 1024, 512 * 1024,
        ])
        before = halo.channels()
        halo.scale_wire_delays(3)
        assert [(c.src, c.dst, c.orientation) for c in halo.channels()] == [
            (c.src, c.dst, c.orientation) for c in before
        ]
        assert [c.wire_delay for c in halo.channels()] == [
            3 * c.wire_delay for c in before
        ]

    def test_scale_below_one_rejected(self):
        with pytest.raises(TopologyError, match="factor"):
            MeshTopology(2, 2).scale_wire_delays(0)


class TestMesh:
    def test_node_count(self):
        assert MeshTopology(4, 4).num_nodes == 16
        assert MeshTopology(16, 16).num_nodes == 256

    def test_link_count(self):
        # n x m mesh: m(n-1) horizontal + n(m-1) vertical bidirectional links
        mesh = MeshTopology(4, 4)
        assert mesh.num_links == 2 * 4 * 3
        assert MeshTopology(16, 16).num_links == 480

    def test_interior_node_degree(self):
        mesh = MeshTopology(4, 4)
        assert len(mesh.successors((1, 1))) == 4
        assert len(mesh.successors((0, 0))) == 2
        assert len(mesh.successors((0, 1))) == 3

    def test_default_attach_points(self):
        mesh = MeshTopology(16, 16)
        assert mesh.core_attach == (8, 0)
        assert mesh.memory_attach == (8, 15)

    def test_uniform_wire_delay(self):
        mesh = MeshTopology(4, 4, uniform_wire_delay=2)
        assert mesh.channel((0, 0), (0, 1)).wire_delay == 2

    def test_non_uniform_rows_set_vertical_delays(self):
        capacities = [64 * 1024, 64 * 1024, 128 * 1024, 256 * 1024, 512 * 1024]
        mesh = MeshTopology(4, 5, row_bank_capacities=capacities,
                            horizontal_wire_delay=3)
        # Entering row 1 (64KB) costs 1; entering row 4 (512KB) costs 3.
        assert mesh.channel((0, 0), (0, 1)).wire_delay == 1
        assert mesh.channel((0, 3), (0, 4)).wire_delay == 3
        assert mesh.channel((0, 4), (0, 3)).wire_delay == 3
        assert mesh.channel((0, 0), (1, 0)).wire_delay == 3

    def test_row_capacities_length_checked(self):
        with pytest.raises(TopologyError):
            MeshTopology(4, 4, row_bank_capacities=[64 * 1024] * 3)

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(TopologyError):
            MeshTopology(0, 4)

    def test_attach_columns_validated(self):
        with pytest.raises(TopologyError):
            MeshTopology(4, 4, core_column=9)

    def test_paper_formulas(self):
        assert MeshTopology.paper_total_links(16) == 900
        assert MeshTopology.paper_removable_links(16) == 196
        assert MeshTopology.paper_underutilized_links(16) == 254


class TestSimplifiedMesh:
    def test_keeps_only_first_row_horizontals(self):
        mesh = SimplifiedMeshTopology(4, 4)
        assert mesh.has_channel((0, 0), (1, 0))
        assert not mesh.has_channel((0, 1), (1, 1))
        assert not mesh.has_channel((0, 3), (1, 3))

    def test_keeps_all_verticals(self):
        mesh = SimplifiedMeshTopology(4, 4)
        for x in range(4):
            for y in range(3):
                assert mesh.has_channel((x, y), (x, y + 1))
                assert mesh.has_channel((x, y + 1), (x, y))

    def test_link_count(self):
        # verticals: cols * (rows-1); first-row horizontals: cols-1
        mesh = SimplifiedMeshTopology(16, 16)
        assert mesh.num_links == 16 * 15 + 15

    def test_memory_moves_next_to_core(self):
        mesh = SimplifiedMeshTopology(16, 16, core_column=8)
        assert mesh.memory_attach == (9, 0)

    def test_link_inventory_orientation(self):
        inventory = Counter(
            channel.orientation
            for channel in SimplifiedMeshTopology(4, 4).channels()
        )
        assert inventory["horizontal"] == 2 * 3
        assert inventory["vertical"] == 2 * 4 * 3
        assert sum(inventory.values()) == 2 * 3 + 2 * 4 * 3


class TestHalo:
    def test_node_count(self):
        halo = HaloTopology(16, 16)
        assert halo.num_nodes == 1 + 16 * 16

    def test_every_mru_bank_one_hop_from_hub(self):
        halo = HaloTopology(16, 5)
        for spike in range(16):
            assert halo.has_channel(HUB, spike_node(spike, 0))
            assert halo.has_channel(spike_node(spike, 0), HUB)

    def test_spike_chain_connectivity(self):
        halo = HaloTopology(4, 4)
        for i in range(3):
            assert halo.has_channel(spike_node(2, i), spike_node(2, i + 1))
        assert not halo.has_channel(spike_node(0, 0), spike_node(1, 0))

    def test_link_count(self):
        assert HaloTopology(16, 16).num_links == 16 * 16
        assert HaloTopology(16, 5).num_links == 16 * 5

    def test_non_uniform_wire_delays(self):
        capacities = [64 * 1024, 64 * 1024, 128 * 1024, 256 * 1024, 512 * 1024]
        halo = HaloTopology(4, 5, position_bank_capacities=capacities)
        assert halo.channel(HUB, spike_node(0, 0)).wire_delay == 1
        assert halo.channel(spike_node(0, 3), spike_node(0, 4)).wire_delay == 3

    def test_memory_pin_delay(self):
        assert HaloTopology(4, 4, memory_pin_delay=16).memory_pin_delay == 16

    def test_capacities_length_checked(self):
        with pytest.raises(TopologyError):
            HaloTopology(4, 5, position_bank_capacities=[64 * 1024] * 3)

    def test_degenerate_rejected(self):
        with pytest.raises(TopologyError):
            HaloTopology(0, 4)

    def test_attach_points_at_hub(self):
        halo = HaloTopology(4, 4)
        assert halo.core_attach == HUB
        assert halo.memory_attach == HUB
