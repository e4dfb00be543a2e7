"""Degraded operation: retry policy, reroute delivery, column truncation."""

import pytest

from repro.cache.bank import bank_descriptors_for_column
from repro.errors import ConfigurationError
from repro.faults import (
    DegradedRouting,
    FaultPlan,
    LinkFault,
    RetryPolicy,
    truncate_columns,
)
from repro.noc.network import Network
from repro.noc.packet import MessageType, Packet
from repro.noc.routing import routing_for
from repro.noc.topology import MeshTopology
from repro.validation.invariants import (
    default_network_checkers,
    run_with_checkers,
)


class TestRetryPolicy:
    def test_backoff_growth_and_cap(self):
        policy = RetryPolicy(backoff_base=4, backoff_cap=32)
        assert [policy.backoff(k) for k in range(5)] == [4, 8, 16, 32, 32]

    def test_invalid_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(timeout=0)


class TestLinkCutReroute:
    def test_all_delivered_around_the_cut(self):
        topology = MeshTopology(4, 4)
        plan = FaultPlan(
            links=(LinkFault((1, 2), (2, 2)), LinkFault((2, 2), (1, 2)))
        )
        dead = plan.dead_channels()
        network = Network(
            topology,
            routing=DegradedRouting(topology, routing_for(topology), dead),
        )
        for checker in default_network_checkers(topology):
            network.install_checker(checker)
        traffic = [((0, 2), (3, 2)), ((1, 2), (2, 2)), ((3, 2), (0, 2))]
        for i, (src, dst) in enumerate(traffic):
            network.schedule_injection(
                Packet(MessageType.READ_REQUEST, src, (dst,)), at_cycle=i
            )
        run_with_checkers(network, max_cycles=20_000)
        assert network.stats.packets_delivered == len(traffic)
        assert network.routing.detour_hops > 0
        assert not dead & set(network._link_flits)


class TestTruncateColumns:
    @staticmethod
    def _columns(cols, rows):
        return [
            bank_descriptors_for_column([64 * 1024] * rows)
            for _ in range(cols)
        ]

    def test_vertical_cut_truncates_to_live_prefix(self):
        topology = MeshTopology(3, 3, core_column=1, memory_column=1)
        plan = FaultPlan(
            links=(LinkFault((0, 1), (0, 2)), LinkFault((0, 2), (0, 1)))
        )
        live = truncate_columns(topology, self._columns(3, 3), plan)
        assert [len(column) for column in live] == [2, 3, 3]
        assert [d.position for d in live[0]] == [0, 1]

    def test_emptied_column_rejected(self):
        # Cutting both links of bank (0, 0) leaves column 0 no live bank.
        topology = MeshTopology(3, 3, core_column=1, memory_column=1)
        plan = FaultPlan(links=tuple(
            LinkFault(src, dst)
            for a, b in (((0, 0), (1, 0)), ((0, 0), (0, 1)))
            for src, dst in ((a, b), (b, a))
        ))
        with pytest.raises(ConfigurationError):
            truncate_columns(topology, self._columns(3, 3), plan)


class TestDrainDiagnostic:
    def test_snapshot_names_outstanding_packets(self):
        topology = MeshTopology(4, 4)
        network = Network(topology)
        network.schedule_injection(
            Packet(MessageType.WRITEBACK, (0, 0), ((3, 3),)), at_cycle=0
        )
        network.run(3)
        text = network.drain_diagnostic()
        assert "drain diagnostic" in text
        assert "undelivered" in text
