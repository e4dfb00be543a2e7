"""Fault model tests: sampling determinism, protection, rate bounds."""

import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultPlan, TransientFaults, protected_nodes
from repro.noc.topology import (
    HUB,
    HaloTopology,
    MeshTopology,
    SimplifiedMeshTopology,
)


class TestProtectedNodes:
    def test_mesh_protects_row0_and_memory_column(self):
        topology = MeshTopology(4, 4)
        protected = protected_nodes(topology)
        for x in range(4):
            assert (x, 0) in protected
        mx, my = topology.memory_attach
        assert my == 3
        for y in range(4):
            assert (mx, y) in protected
        assert (0, 1) not in protected

    def test_simplified_mesh_protects_row0(self):
        protected = protected_nodes(SimplifiedMeshTopology(4, 4))
        for x in range(4):
            assert (x, 0) in protected
        assert (0, 2) not in protected

    def test_halo_protects_hub_and_position0(self):
        topology = HaloTopology(8, 4)
        protected = protected_nodes(topology)
        assert HUB in protected
        for s in range(topology.num_spikes):
            assert ("spike", s, 0) in protected


class TestFaultPlanSample:
    def test_same_seed_same_plan(self):
        topology = MeshTopology(4, 4)
        kwargs = dict(
            link_rate=0.4, bank_rate=0.3,
            transient_rate=0.05, seed=3,
        )
        assert FaultPlan.sample(topology, **kwargs) == FaultPlan.sample(
            topology, **kwargs
        )

    def test_different_seeds_differ(self):
        topology = MeshTopology(5, 5)
        plans = {
            FaultPlan.sample(topology, link_rate=0.5, seed=s).links
            for s in range(6)
        }
        assert len(plans) > 1

    def test_protected_links_spared(self):
        topology = MeshTopology(4, 4)
        protected = protected_nodes(topology)
        plan = FaultPlan.sample(topology, link_rate=1.0, seed=0)
        assert plan.links
        for fault in plan.links:
            assert fault.src not in protected
            assert fault.dst not in protected

    def test_link_failures_are_bidirectional(self):
        plan = FaultPlan.sample(MeshTopology(4, 4), link_rate=1.0, seed=1)
        channels = plan.dead_channels()
        for src, dst in channels:
            assert (dst, src) in channels

    def test_zero_rates_null_plan(self):
        plan = FaultPlan.sample(MeshTopology(3, 3), seed=9)
        assert not plan.links and not plan.banks
        assert plan.transients is None or plan.transients.drop_rate == 0.0
        assert plan.describe() == "no faults"


class TestTransientFaults:
    def test_rate_bounds_enforced(self):
        with pytest.raises(ConfigurationError):
            TransientFaults(drop_rate=1.5)
