"""End-to-end tests for NetworkedCacheSystem."""

import pytest

from repro import DESIGN_NAMES, FIGURE8_SCHEMES, NetworkedCacheSystem, profile_by_name
from repro.errors import ConfigurationError
from repro.workloads import TraceGenerator


@pytest.fixture(scope="module")
def small_trace():
    profile = profile_by_name("twolf")
    trace, warmup = TraceGenerator(profile, seed=11).generate_with_warmup(
        measure=300
    )
    return profile, trace, warmup


class TestRun:
    @pytest.mark.parametrize("scheme", FIGURE8_SCHEMES)
    def test_every_scheme_runs(self, small_trace, scheme):
        profile, trace, warmup = small_trace
        system = NetworkedCacheSystem(design="A", scheme=scheme)
        result = system.run(trace, profile, warmup=warmup)
        assert result.accesses == 300
        assert 0 < result.ipc <= profile.perfect_l2_ipc
        assert result.average_latency > 0

    @pytest.mark.parametrize("design", DESIGN_NAMES)
    def test_every_design_runs(self, small_trace, design):
        profile, trace, warmup = small_trace
        system = NetworkedCacheSystem(design=design, scheme="multicast+fast_lru")
        result = system.run(trace, profile, warmup=warmup)
        assert result.design == design
        assert result.hit_rate > 0.5

    def test_deterministic(self, small_trace):
        profile, trace, warmup = small_trace
        results = [
            NetworkedCacheSystem(design="B", scheme="multicast+fast_lru")
            .run(trace, profile, warmup=warmup)
            for _ in range(2)
        ]
        assert results[0].ipc == results[1].ipc
        assert results[0].average_latency == results[1].average_latency
        assert results[0].cycles == results[1].cycles

    def test_needs_ipc_source(self, small_trace):
        _, trace, warmup = small_trace
        system = NetworkedCacheSystem()
        with pytest.raises(ConfigurationError):
            system.run(trace, warmup=warmup)

    def test_perfect_ipc_override(self, small_trace):
        _, trace, warmup = small_trace
        system = NetworkedCacheSystem()
        result = system.run(trace, perfect_ipc=1.0, warmup=warmup)
        assert result.ipc <= 1.0

    def test_warmup_must_leave_measurement(self, small_trace):
        profile, trace, _ = small_trace
        system = NetworkedCacheSystem()
        with pytest.raises(ConfigurationError):
            system.run(trace, profile, warmup=len(trace))

    def test_negative_warmup_rejected(self, small_trace):
        profile, trace, _ = small_trace
        with pytest.raises(ConfigurationError, match="non-negative"):
            NetworkedCacheSystem().run(trace, profile, warmup=-1)

    def test_breakdown_fractions_sum_to_one(self, small_trace):
        profile, trace, warmup = small_trace
        system = NetworkedCacheSystem(design="A", scheme="unicast+lru")
        result = system.run(trace, profile, warmup=warmup)
        shares = result.breakdown_fractions()
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_memory_traffic_counted(self, small_trace):
        profile, trace, warmup = small_trace
        system = NetworkedCacheSystem(design="A", scheme="multicast+fast_lru")
        result = system.run(trace, profile, warmup=warmup)
        assert result.memory_reads == result.latency.miss_count

    def test_scheme_and_design_objects_accepted(self):
        from repro.core.designs import design_b
        from repro.core.flows import make_scheme

        system = NetworkedCacheSystem(
            design=design_b, scheme=make_scheme("unicast+lru")
        )
        assert system.spec.key == "B"
        assert system.scheme.name == "unicast+lru"


class TestSingleAccess:
    def test_first_access_misses(self):
        system = NetworkedCacheSystem()
        timing = system.access(0x1234_0040, at=0)
        assert not timing.hit

    def test_second_access_hits(self):
        system = NetworkedCacheSystem()
        system.access(0x1234_0040, at=0)
        timing = system.access(0x1234_0040, at=10_000)
        assert timing.hit and timing.bank_position == 0
