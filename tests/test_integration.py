"""Cross-cutting integration tests.

The most important one validates the transaction-level timing model
against the flit-level NoC simulator: for a single uncontended request the
two must agree exactly on the network traversal time.
"""

import pytest

from repro.config import RouterConfig
from repro.core.designs import design_a
from repro.noc import MeshTopology, MessageType, Network, Packet


class TestFidelityCrossValidation:
    @pytest.mark.parametrize(
        "src, dst",
        [((8, 0), (3, 0)), ((8, 0), (8, 10)), ((2, 0), (2, 15)),
         ((0, 5), (0, 9))],
    )
    def test_control_packet_traversal_matches_flit_level(self, src, dst):
        geometry = design_a.build()
        transaction_arrival, _ = geometry.traverse(src, dst, 0, flits=1)

        network = Network(MeshTopology(16, 16))
        network.inject(Packet(MessageType.READ_REQUEST, source=src,
                              destinations=(dst,)))
        network.run_until_drained()
        flit_arrival = network.stats.deliveries[0].delivered_at

        # The flit-level simulator adds one ejection-channel cycle that the
        # transaction model folds into the next component's start.
        assert flit_arrival == transaction_arrival + 1

    @pytest.mark.parametrize("src, dst", [((8, 0), (5, 0)), ((4, 0), (4, 6))])
    def test_data_packet_traversal_matches_flit_level(self, src, dst):
        geometry = design_a.build()
        transaction_arrival, _ = geometry.traverse(src, dst, 0, flits=5)

        network = Network(MeshTopology(16, 16))
        network.inject(Packet(MessageType.REPLACEMENT, source=src,
                              destinations=(dst,)))
        network.run_until_drained()
        flit_arrival = network.stats.deliveries[0].delivered_at

        assert flit_arrival == transaction_arrival + 1

    def test_multicast_column_matches_flit_level(self):
        geometry = design_a.build()
        column = 8  # the core's own column: no row hops in either model
        arrivals, _ = geometry.multicast_column(column, 0)

        network = Network(MeshTopology(16, 16))
        destinations = tuple((column, y) for y in range(16))
        network.inject(Packet(MessageType.READ_REQUEST, source=(column, 0),
                              destinations=destinations))
        network.run_until_drained()
        flit_arrivals = {
            d.destination[1]: d.delivered_at for d in network.stats.deliveries
        }
        # Same chain: monotone down the column at ~2 cycles/hop. The
        # flit-level run adds the injection + ejection channel cycles the
        # transaction model folds into adjacent components (a constant
        # 2-cycle offset; 1 at the chain's end where no replica splits off).
        for position in range(16):
            diff = flit_arrivals[position] - arrivals[position]
            assert 0 <= diff <= 2

    def test_pipelined_router_slows_both_models(self):
        geometry_fast = design_a.build()
        spec_slow = design_a.build()
        spec_slow.router_config = RouterConfig(single_cycle=False)
        fast, _ = geometry_fast.traverse((0, 0), (0, 8), 0, flits=1)
        slow, _ = spec_slow.traverse((0, 0), (0, 8), 0, flits=1)
        assert slow > fast


class TestEndToEndShapes:
    def test_all_scheme_design_pairs_run(self):
        from repro import NetworkedCacheSystem, profile_by_name
        from repro.workloads import TraceGenerator

        profile = profile_by_name("vpr")
        trace, warmup = TraceGenerator(profile, seed=5).generate_with_warmup(
            measure=150
        )
        for design in "ABCDEF":
            for scheme in ("unicast+lru", "multicast+fast_lru"):
                system = NetworkedCacheSystem(design=design, scheme=scheme)
                result = system.run(trace, profile, warmup=warmup)
                assert result.accesses == 150
                assert result.ipc > 0
