"""Property tests: flit conservation and ordering under random traffic.

The flit-level simulator must neither lose nor duplicate traffic, and a
wormhole's flits must arrive in order -- for any topology and any traffic
pattern hypothesis can produce.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc import MeshTopology, MessageType, Network, Packet

MESH = 3  # small meshes keep hypothesis examples fast


@st.composite
def traffic(draw):
    nodes = [(x, y) for x in range(MESH) for y in range(MESH)]
    count = draw(st.integers(1, 12))
    packets = []
    for _ in range(count):
        src = draw(st.sampled_from(nodes))
        dst = draw(st.sampled_from([n for n in nodes if n != src]))
        block = draw(st.booleans())
        packets.append((src, dst, block))
    return packets


class TestConservation:
    @given(packets=traffic())
    @settings(max_examples=50, deadline=None)
    def test_every_packet_delivered_exactly_once(self, packets):
        network = Network(MeshTopology(MESH, MESH))
        for src, dst, block in packets:
            message = (MessageType.REPLACEMENT if block
                       else MessageType.READ_REQUEST)
            network.inject(Packet(message, source=src, destinations=(dst,)))
        network.run_until_drained(max_cycles=20_000)
        assert network.stats.packets_delivered == len(packets)
        assert network.total_buffered_flits() == 0

    @given(packets=traffic())
    @settings(max_examples=30, deadline=None)
    def test_flit_count_conserved(self, packets):
        network = Network(MeshTopology(MESH, MESH))
        expected_flits = 0
        for src, dst, block in packets:
            message = (MessageType.REPLACEMENT if block
                       else MessageType.READ_REQUEST)
            network.inject(Packet(message, source=src, destinations=(dst,)))
            expected_flits += 5 if block else 1
        network.run_until_drained(max_cycles=20_000)
        assert network.stats.flits_injected == expected_flits
        ejected = sum(
            r.stats.flits_ejected for r in network.routers.values()
        )
        assert ejected == expected_flits

    @given(
        column=st.integers(0, MESH - 1),
        fanout=st.integers(2, MESH),
    )
    @settings(max_examples=30, deadline=None)
    def test_multicast_delivers_every_destination_once(self, column, fanout):
        network = Network(MeshTopology(MESH, MESH))
        destinations = tuple((column, y) for y in range(fanout))
        network.inject(Packet(MessageType.READ_REQUEST, source=(column, 0),
                              destinations=destinations))
        network.run_until_drained(max_cycles=20_000)
        delivered = [d.destination for d in network.stats.deliveries]
        assert sorted(delivered) == sorted(destinations)

    def test_wormhole_flits_arrive_in_order(self):
        network = Network(MeshTopology(MESH, MESH))
        seen = []

        # Spy on ejections via the pending-eject bookkeeping: record the
        # flit index order at the destination router.
        original = network._eject

        def spying_eject(node, flit, cycle):
            seen.append(flit.index)
            original(node, flit, cycle)

        network._eject = spying_eject
        network.inject(Packet(MessageType.REPLACEMENT, source=(0, 0),
                              destinations=((2, 2),)))
        network.run_until_drained(max_cycles=5_000)
        assert seen == sorted(seen)
