"""Integration tests for the flit-level network simulator."""

import random

import pytest

from repro.config import RouterConfig
from repro.errors import SimulationError
from repro.noc import (
    HaloTopology,
    MeshTopology,
    MessageType,
    Network,
    Packet,
    SimplifiedMeshTopology,
)
from repro.noc.topology import HUB, spike_node


def _drain(network, max_cycles=50_000):
    return network.run_until_drained(max_cycles=max_cycles)


class TestUnicastDelivery:
    def test_single_flit_latency(self):
        # hop time = router (1) + wire (1); plus 1 ejection cycle.
        net = Network(MeshTopology(4, 4))
        net.inject(Packet(MessageType.READ_REQUEST, source=(0, 0),
                          destinations=((3, 0),)))
        _drain(net)
        delivery = net.stats.deliveries[0]
        assert delivery.latency == 3 * 2 + 1

    def test_five_flit_serialization(self):
        net = Network(MeshTopology(4, 4))
        net.inject(Packet(MessageType.REPLACEMENT, source=(0, 0),
                          destinations=((0, 1),)))
        _drain(net)
        # 1 hop x 2 cycles + 4 extra flits + ejection
        assert net.stats.deliveries[0].latency == 2 + 4 + 1

    def test_wire_delay_respected(self):
        net = Network(MeshTopology(4, 4, uniform_wire_delay=3))
        net.inject(Packet(MessageType.READ_REQUEST, source=(0, 0),
                          destinations=((0, 2),)))
        _drain(net)
        assert net.stats.deliveries[0].latency == 2 * (1 + 3) + 1

    def test_pipelined_router_slower(self):
        def latency(single_cycle):
            net = Network(
                MeshTopology(4, 4),
                router_config=RouterConfig(single_cycle=single_cycle),
            )
            net.inject(Packet(MessageType.READ_REQUEST, source=(0, 0),
                              destinations=((3, 3),)))
            _drain(net)
            return net.stats.deliveries[0].latency

        assert latency(False) > latency(True)

    def test_injection_node_validated(self):
        net = Network(MeshTopology(2, 2))
        with pytest.raises(SimulationError):
            net.inject(Packet(MessageType.READ_REQUEST, source=(9, 9),
                              destinations=((0, 0),)))


class TestMulticast:
    def test_column_chain_delivers_all(self):
        net = Network(MeshTopology(4, 4))
        destinations = tuple((1, y) for y in range(4))
        net.inject(Packet(MessageType.READ_REQUEST, source=(1, 0),
                          destinations=destinations))
        _drain(net)
        delivered = {d.destination for d in net.stats.deliveries}
        assert delivered == set(destinations)

    def test_chain_arrival_times_monotone_down_column(self):
        net = Network(MeshTopology(4, 4))
        destinations = tuple((2, y) for y in range(4))
        net.inject(Packet(MessageType.READ_REQUEST, source=(2, 0),
                          destinations=destinations))
        _drain(net)
        by_row = sorted(net.stats.deliveries, key=lambda d: d.destination[1])
        times = [d.delivered_at for d in by_row]
        assert times == sorted(times)

    def test_replication_count(self):
        net = Network(MeshTopology(4, 4))
        net.inject(Packet(MessageType.READ_REQUEST, source=(0, 0),
                          destinations=tuple((0, y) for y in range(4))))
        _drain(net)
        # One split per router that both ejects and forwards: rows 0..2.
        assert net.total_replications() == 3

    def test_multicast_faster_than_unicast_storm(self):
        destinations = tuple((1, y) for y in range(4))
        mc = Network(MeshTopology(4, 4))
        mc.inject(Packet(MessageType.READ_REQUEST, source=(1, 0),
                         destinations=destinations))
        mc_cycles = _drain(mc)
        uc = Network(MeshTopology(4, 4))
        for destination in destinations:
            uc.inject(Packet(MessageType.READ_REQUEST, source=(1, 0),
                             destinations=(destination,)))
        uc_cycles = _drain(uc)
        assert mc_cycles <= uc_cycles


class TestStress:
    @pytest.mark.parametrize("topology_factory", [
        lambda: MeshTopology(4, 4),
        lambda: SimplifiedMeshTopology(4, 4),
        lambda: HaloTopology(4, 4),
    ])
    def test_random_traffic_drains(self, topology_factory):
        topology = topology_factory()
        net = Network(topology)
        rng = random.Random(7)
        if isinstance(topology, SimplifiedMeshTopology):
            # Domain traffic only: core/memory row <-> banks, in-column moves.
            nodes = sorted(topology.nodes)
            core = topology.core_attach
            pairs = [(core, n) for n in nodes if n != core]
            pairs += [(n, core) for n in nodes if n != core]
        elif isinstance(topology, HaloTopology):
            nodes = [spike_node(s, i) for s in range(4) for i in range(4)]
            pairs = [(HUB, n) for n in nodes] + [(n, HUB) for n in nodes]
        else:
            nodes = sorted(topology.nodes)
            pairs = [(a, b) for a in nodes for b in nodes if a != b]
        for i in range(150):
            src, dst = rng.choice(pairs)
            message = (MessageType.REPLACEMENT if i % 3 == 0
                       else MessageType.READ_REQUEST)
            net.inject(Packet(message, source=src, destinations=(dst,)))
        _drain(net)
        assert net.stats.packets_delivered == 150
        assert net.total_buffered_flits() == 0
        assert not net.pending_work() and net.in_flight_flits() == 0

    def test_sustained_multicast_load_drains(self):
        net = Network(MeshTopology(4, 4))
        for col in range(4):
            for _ in range(10):
                net.inject(Packet(
                    MessageType.READ_REQUEST,
                    source=(col, 0),
                    destinations=tuple((col, y) for y in range(4)),
                ))
        _drain(net)
        assert net.stats.packets_delivered == 160  # 40 packets x 4 dests

    def test_undrained_network_raises(self):
        net = Network(MeshTopology(2, 2))
        net.inject(Packet(MessageType.READ_REQUEST, source=(0, 0),
                          destinations=((1, 1),)))
        with pytest.raises(SimulationError, match="did not drain"):
            net.run_until_drained(max_cycles=1)


class TestStatsAccounting:
    def test_flits_injected_counted(self):
        net = Network(MeshTopology(2, 2))
        net.inject(Packet(MessageType.REPLACEMENT, source=(0, 0),
                          destinations=((1, 1),)))
        _drain(net)
        assert net.stats.flits_injected == 5
        assert net.stats.packets_injected == 1

    def test_average_and_max_latency(self):
        net = Network(MeshTopology(3, 3))
        net.inject(Packet(MessageType.READ_REQUEST, source=(0, 0),
                          destinations=((2, 2),)))
        net.inject(Packet(MessageType.READ_REQUEST, source=(0, 0),
                          destinations=((1, 0),)))
        _drain(net)
        stats = net.stats
        assert stats.max_latency >= stats.average_latency > 0
        assert stats.average_hops > 0

    def test_delivery_callback_fires(self):
        net = Network(MeshTopology(2, 2))
        seen = []
        net.on_delivery(lambda d: seen.append(d.destination))
        net.inject(Packet(MessageType.READ_REQUEST, source=(0, 0),
                          destinations=((1, 1),)))
        _drain(net)
        assert seen == [(1, 1)]
