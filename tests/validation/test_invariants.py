"""Unit tests for the live invariant checkers."""

import pytest

from repro.errors import ValidationError
from repro.noc.network import Network
from repro.noc.packet import MessageType, Packet
from repro.noc.router import Router
from repro.noc.topology import (
    HaloTopology,
    MeshTopology,
    SimplifiedMeshTopology,
    spike_node,
)
from repro.validation import (
    BlockConservationChecker,
    ChannelOrderChecker,
    MulticastDeliveryChecker,
    TransactionTimingChecker,
    default_network_checkers,
    run_with_checkers,
)


def checked_network(topology) -> Network:
    network = Network(topology)
    for checker in default_network_checkers(topology):
        network.install_checker(checker)
    return network


class TestCleanTrafficPasses:
    def test_simplified_mesh_multicast_and_unicast(self):
        topology = SimplifiedMeshTopology(4, 4)
        network = checked_network(topology)
        network.inject(
            Packet(MessageType.READ_REQUEST, (0, 0),
                   tuple((2, y) for y in range(4)))
        )
        network.inject(Packet(MessageType.HIT_DATA, (2, 3), ((2, 0),)))
        run_with_checkers(network)
        assert len(network.stats.deliveries) == 5

    def test_full_mesh_wormholes(self):
        network = checked_network(MeshTopology(3, 3))
        network.inject(Packet(MessageType.MEMORY_FILL, (0, 0), ((2, 2),)))
        network.schedule_injection(
            Packet(MessageType.WRITEBACK, (2, 0), ((0, 2),)), at_cycle=4
        )
        run_with_checkers(network)
        assert len(network.stats.deliveries) == 2

    def test_halo_multicast_down_a_spike(self):
        topology = HaloTopology(4, 4)
        network = checked_network(topology)
        network.inject(
            Packet(MessageType.READ_REQUEST, topology.core_attach,
                   tuple(spike_node(0, i) for i in range(4)))
        )
        run_with_checkers(network)
        assert len(network.stats.deliveries) == 4

    def test_channel_order_checker_saw_grants(self):
        topology = SimplifiedMeshTopology(4, 3)
        network = checked_network(topology)
        order = next(
            c for c in network.checkers if isinstance(c, ChannelOrderChecker)
        )
        network.inject(Packet(MessageType.READ_REQUEST, (0, 0), ((3, 2),)))
        run_with_checkers(network)
        assert order.grants_checked > 0

    def test_returns_cycles_consumed(self):
        network = checked_network(SimplifiedMeshTopology(3, 3))
        network.inject(Packet(MessageType.READ_REQUEST, (0, 0), ((2, 2),)))
        cycles = run_with_checkers(network)
        assert cycles > 0
        assert not network.pending_work() and network.in_flight_flits() == 0


class TestCheckersCatchBreakage:
    def test_flit_conservation_catches_a_vanished_flit(self):
        from repro.config import RouterConfig

        # A pipelined router holds flits in VC buffers across cycle
        # boundaries (the single-cycle router forwards them the same
        # cycle, so buffers are always empty when the checker runs).
        topology = MeshTopology(3, 3)
        network = Network(topology, router_config=RouterConfig(single_cycle=False))
        for checker in default_network_checkers(topology):
            network.install_checker(checker)
        network.inject(Packet(MessageType.READ_REQUEST, (0, 0), ((2, 2),)))
        for _ in range(10):
            network.step()
            if network.total_buffered_flits():
                break
        assert network.total_buffered_flits()  # flit rests in a router VC
        # Reach into the routers and drop the buffered flit on the floor.
        for router in network.routers.values():
            for unit in router.inputs.values():
                for vc in unit:
                    if vc.fifo:
                        vc.fifo.clear()
        with pytest.raises(ValidationError, match="flit conservation"):
            network.step()

    def test_credit_conservation_catches_a_leaked_credit(self):
        network = checked_network(MeshTopology(3, 3))
        network.inject(Packet(MessageType.READ_REQUEST, (0, 0), ((2, 2),)))
        router = network.routers[(0, 0)]
        key = next(iter(router.credits))
        router.credits[key] -= 1  # a slot the downstream never consumed
        with pytest.raises(ValidationError, match="credit conservation"):
            run_with_checkers(network)

    def test_channel_order_rejects_descending_grant(self):
        from repro.noc.router import _Forward

        topology = SimplifiedMeshTopology(4, 4)
        network = checked_network(topology)
        order = next(
            c for c in network.checkers if isinstance(c, ChannelOrderChecker)
        )
        packet = Packet(MessageType.READ_REQUEST, (1, 0), ((3, 0),))
        flit = packet.flits()[0]
        router = network.routers[(2, 0)]
        # Legal grant: X+ out of (2, 0) -- an X-class channel...
        order.on_switch(
            router, (1, 0), _Forward(flit, (3, 0), 0, router.inputs[(1, 0)][0]),
            cycle=0,
        )
        # ...then a Y- grant, whose class enumerates *below* every X
        # channel: descending, so the dependency cycle check must fire.
        up = network.routers[(3, 1)]
        with pytest.raises(ValidationError, match="channel-order"):
            order.on_switch(
                up, (3, 2), _Forward(flit, (3, 0), 0, up.inputs[(3, 2)][0]),
                cycle=1,
            )

    def test_channel_order_requires_simplified_mesh(self):
        with pytest.raises(ValidationError, match="simplified"):
            ChannelOrderChecker(MeshTopology(3, 3))

    def test_multicast_delivery_checker_flags_missing_replicas(self):
        checker = MulticastDeliveryChecker()
        packet = Packet(MessageType.READ_REQUEST, (0, 0), ((1, 0), (2, 0)))
        checker.on_inject(None, packet)
        assert len(checker.missing()) == 2
        with pytest.raises(ValidationError, match="never completed"):
            checker.final_check(None)

    def test_stall_watchdog_catches_lost_delivery(self, monkeypatch):
        # Drop every multicast replica: the borrowed destinations starve
        # and the checked run must abort at the stall limit, not at
        # max_cycles.
        original = Router._split_multicast

        def buggy(self, port, vc, flit, groups, cycle):
            before = self.stats.replications
            original(self, port, vc, flit, groups, cycle)
            if self.stats.replications > before:
                # Undo the replica's buffer occupancy: it vanishes.
                for unit in self.inputs.values():
                    for bvc in unit:
                        if bvc.fifo and bvc.head().packet is flit.packet \
                                and bvc.head() is not flit:
                            bvc.fifo.clear()
                            bvc.active_packet = None

        monkeypatch.setattr(Router, "_split_multicast", buggy)
        topology = SimplifiedMeshTopology(3, 3)
        network = Network(topology)  # no conservation checkers: isolate stall
        network.inject(
            Packet(MessageType.READ_REQUEST, (0, 0), ((2, 0), (0, 2)))
        )
        with pytest.raises(ValidationError, match="no forward progress"):
            run_with_checkers(network, stall_limit=50)


class TestBlockConservation:
    def test_clean_lru_sequence_passes(self):
        from repro.cache.bankset import BankSetState
        from repro.cache.replacement import policy_by_name

        policy = policy_by_name("lru")
        state = BankSetState([0, 0, 1, 1])
        checker = BlockConservationChecker(shadow_lru=True)
        for tag in (1, 2, 3, 4, 5, 2, 1, 6):
            before = state.resident_tags()
            outcome = policy.access(state, tag, False)
            checker.check(tag, before, state, outcome, key="t")
        assert checker.checked == 8

    def test_duplicate_block_detected(self):
        from repro.cache.bankset import BankSetState, BlockState

        state = BankSetState([0, 1])
        state.ways[0] = BlockState(tag=3)
        state.ways[1] = BlockState(tag=3)
        checker = BlockConservationChecker()
        from repro.cache.bankset import AccessOutcome

        with pytest.raises(ValidationError, match="duplicated"):
            checker.check(3, [3, 3], state, AccessOutcome(hit=True, way=0, bank=0))

    def test_dropped_block_detected(self):
        from repro.cache.bankset import AccessOutcome, BankSetState, BlockState

        state = BankSetState([0, 1])
        state.ways[0] = BlockState(tag=7)
        # Claimed miss-fill of tag 5, but tag 5 never landed and tag 2
        # silently vanished from the before-state.
        checker = BlockConservationChecker()
        with pytest.raises(ValidationError, match="conservation broken"):
            checker.check(5, [7, 2], state, AccessOutcome(hit=False))

    def test_shadow_lru_catches_wrong_victim(self):
        from repro.cache.bankset import BankSetState
        from repro.cache.replacement import LRUPolicy

        class WrongVictimLRU(LRUPolicy):
            def _miss(self, state, tag, is_write):
                outcome = super()._miss(state, tag, is_write)
                if outcome.victim is not None:
                    # Misreport which block left.
                    return type(outcome)(
                        hit=False,
                        moved_boundaries=outcome.moved_boundaries,
                        victim=None,
                    )
                return outcome

        policy = WrongVictimLRU()
        state = BankSetState([0, 1])
        checker = BlockConservationChecker(shadow_lru=True)
        with pytest.raises(ValidationError):
            for tag in (1, 2, 3):
                before = state.resident_tags()
                outcome = policy.access(state, tag, False)
                checker.check(tag, before, state, outcome, key="t")

    def test_installs_on_cache_array(self):
        from repro.cache.address import AddressMapper
        from repro.cache.array import CacheArray
        from repro.cache.bank import bank_descriptors_for_column
        from repro.cache.replacement import policy_by_name

        mapper = AddressMapper()
        columns = [
            bank_descriptors_for_column([64 * 1024, 64 * 1024])
            for _ in range(mapper.num_columns)
        ]
        array = CacheArray(columns, policy_by_name("fast_lru"), mapper)
        checker = BlockConservationChecker(shadow_lru=True)
        array.validator = checker
        for tag in range(6):
            array.access(0, 0, tag)
        assert checker.checked == 6


class TestTransactionTiming:
    def test_clean_system_run_passes(self):
        from repro.core.system import NetworkedCacheSystem
        from repro.workloads import TraceGenerator, profile_by_name

        profile = profile_by_name("twolf")
        trace, warmup = TraceGenerator(profile, seed=3).generate_with_warmup(
            measure=120
        )
        system = NetworkedCacheSystem(design="B", scheme="multicast+fast_lru")
        checker = TransactionTimingChecker()
        system.engine.validators.append(checker)
        system.run(trace, profile, warmup=warmup)
        assert checker.checked == 120

    def test_rejects_acausal_timing(self):
        from repro.cache.bankset import AccessOutcome
        from repro.core.flows import AccessTiming

        checker = TransactionTimingChecker()
        timing = AccessTiming(
            issued=10, data_at_core=5, completion=4, hit=True,
            bank_position=0, settled=5,
        )
        with pytest.raises(ValidationError, match="before issue"):
            checker.on_transaction(0, AccessOutcome(hit=True, bank=0), timing)

    @pytest.mark.parametrize("scheme", ["multicast+fast_lru", "unicast+promotion"])
    def test_rejects_a_flow_that_reports_the_wrong_hit_bank(
        self, monkeypatch, scheme
    ):
        # The checked timing takes its hit bank from the flow's own hit
        # path, never from the contents outcome it is checked against.
        from repro.core.flows import TransactionEngine
        from repro.core.system import NetworkedCacheSystem
        from repro.workloads import TraceGenerator, profile_by_name

        finish_hit = TransactionEngine._finish_hit

        def wrong_bank(self, column, hit_pos, hit_done, is_write):
            *times, hit_bank = finish_hit(self, column, hit_pos, hit_done, is_write)
            return (*times, hit_bank + 1)

        monkeypatch.setattr(TransactionEngine, "_finish_hit", wrong_bank)
        profile = profile_by_name("twolf")
        trace, warmup = TraceGenerator(profile, seed=3).generate_with_warmup(
            measure=120
        )
        system = NetworkedCacheSystem(design="B", scheme=scheme)
        system.engine.validators.append(TransactionTimingChecker())
        with pytest.raises(ValidationError, match="hit bank mismatch"):
            system.run(trace, profile, warmup=warmup)

    def test_rejects_outcome_mismatch(self):
        from repro.cache.bankset import AccessOutcome
        from repro.core.flows import AccessTiming

        checker = TransactionTimingChecker()
        timing = AccessTiming(
            issued=0, data_at_core=5, completion=6, hit=True,
            bank_position=0, settled=6,
        )
        with pytest.raises(ValidationError, match="hit"):
            checker.on_transaction(0, AccessOutcome(hit=False), timing)
