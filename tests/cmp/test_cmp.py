"""Tests for the CMP shared-NUCA extension."""

import pytest

from repro.cmp import CMPCacheSystem, core_attach_points
from repro.core.designs import design_a, design_e, design_spec
from repro.core.system import NetworkedCacheSystem
from repro.errors import ConfigurationError
from repro.workloads import TraceGenerator, profile_by_name


def _workload(name, seed, measure=250):
    profile = profile_by_name(name)
    trace, warmup = TraceGenerator(profile, seed=seed).generate_with_warmup(
        measure=measure
    )
    return (profile, trace, warmup)


class TestAttachPoints:
    def test_mesh_cores_spread_across_top_row(self):
        points = core_attach_points(design_a, 4)
        assert points == [(2, 0), (6, 0), (10, 0), (14, 0)]
        assert all(y == 0 for _, y in points)

    def test_two_cores(self):
        assert core_attach_points(design_a, 2) == [(4, 0), (12, 0)]

    def test_halo_cores_share_hub(self):
        points = core_attach_points(design_e, 3)
        assert points == [("hub",)] * 3

    def test_limits(self):
        with pytest.raises(ConfigurationError):
            core_attach_points(design_a, 0)
        with pytest.raises(ConfigurationError):
            core_attach_points(design_a, 17)


class TestCMPRun:
    def test_two_core_run(self):
        system = CMPCacheSystem(design="A", num_cores=2)
        result = system.run([_workload("twolf", 1), _workload("vpr", 2)])
        assert result.num_cores == 2
        assert len(result.cores) == 2
        assert result.aggregate_ipc > max(c.ipc for c in result.cores)
        assert 0 < result.fairness <= 1

    def test_workload_count_checked(self):
        system = CMPCacheSystem(design="A", num_cores=2)
        with pytest.raises(ConfigurationError):
            system.run([_workload("twolf", 1)])

    @pytest.mark.parametrize(
        "warmup, match", [(-5, "non-negative"), (300, "leave accesses")]
    )
    def test_bad_warmup_rejected(self, warmup, match):
        # A core warmed over its whole trace would report 0 accesses at
        # the perfect-L2 IPC; a negative warm-up would measure everything.
        profile = profile_by_name("art")
        trace = TraceGenerator(profile, seed=1).generate(300)
        system = CMPCacheSystem(design="A", num_cores=2)
        with pytest.raises(ConfigurationError, match=match):
            system.run([_workload("twolf", 1), (profile, trace, warmup)])

    def test_per_core_results_isolated(self):
        system = CMPCacheSystem(design="F", num_cores=2)
        result = system.run([_workload("art", 1), _workload("mcf", 2)])
        by_name = {c.benchmark: c for c in result.cores}
        # art fits the cache; mcf overflows it: their hit rates must differ.
        assert by_name["art"].hit_rate > by_name["mcf"].hit_rate

    def test_contention_hurts_vs_single_core(self):
        single = CMPCacheSystem(design="A", num_cores=1)
        r1 = single.run([_workload("art", 1, measure=400)])
        quad = CMPCacheSystem(design="A", num_cores=4)
        r4 = quad.run([
            _workload("art", 1, measure=400),
            _workload("art", 2, measure=400),
            _workload("art", 3, measure=400),
            _workload("art", 4, measure=400),
        ])
        art_alone = r1.cores[0].ipc
        art_shared = [c for c in r4.cores if c.core == 0][0].ipc
        # Sharing the cache cannot help a cache-fitting workload.
        assert art_shared <= art_alone * 1.05

    def test_deterministic(self):
        results = []
        for _ in range(2):
            system = CMPCacheSystem(design="A", num_cores=2)
            result = system.run([_workload("twolf", 1), _workload("vpr", 2)])
            results.append(result.aggregate_ipc)
        assert results[0] == results[1]


@pytest.mark.parametrize(
    "design, name, scheme",
    [
        ("A", "mcf", "multicast+fast_lru"),
        ("F", "art", "unicast+lru"),
        ("C", "twolf", "multicast+promotion"),
        ("D", "gcc", "unicast+fast_lru"),
    ],
)
def test_one_core_cell_is_a_single_core_run(design, name, scheme):
    """A one-core CMP run and a plain run replay the same trace through
    the same loop, so every observable of the two agrees exactly."""
    profile, trace, warmup = _workload(name, 3, measure=1500)
    run = NetworkedCacheSystem(design=design, scheme=scheme).run(
        trace, profile, warmup=warmup
    )
    cmp = CMPCacheSystem(design=design, scheme=scheme, num_cores=1).run(
        [(profile, trace, warmup)]
    )
    (core,) = cmp.cores
    assert core.accesses == run.accesses == 1500
    assert core.ipc == run.ipc
    assert core.average_latency == run.average_latency
    assert core.hit_rate == run.hit_rate
    assert cmp.aggregate_ipc == run.ipc
    assert cmp.metrics == run.metrics
