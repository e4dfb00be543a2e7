"""Unit tests for the S-NUCA baseline."""

import pytest

from repro.cache.address import AddressMapper
from repro.cache.static_nuca import StaticNUCAArray
from repro.core.designs import design_a
from repro.errors import ConfigurationError

MAPPER = AddressMapper()


def _array():
    return StaticNUCAArray(design_a.build().columns)


def _addr(tag, index=3, column=2):
    """``(column, index, tag)`` of an encoded-then-decoded address."""
    address = MAPPER.decode(MAPPER.encode(tag=tag, index=index, column=column))
    return address.column, address.index, address.tag


def _home(array, tag, index=3, column=2):
    column, index, _ = _addr(tag, index, column)
    return array.home_bank(column, index)


class TestStaticNUCAArray:
    def test_home_bank_is_stable(self):
        array = _array()
        assert _home(array, 5) == _home(array, 99)  # same set

    def test_home_banks_cover_all_rows(self):
        array = _array()
        banks = {
            _home(array, 0, index=i, column=c)
            for i in range(16)
            for c in range(16)
        }
        assert banks == set(range(16))

    def test_hit_after_fill(self):
        array = _array()
        assert not array.access(*_addr(7)).hit
        outcome = array.access(*_addr(7))
        assert outcome.hit
        assert outcome.bank == _home(array, 7)

    def test_no_migration_ever(self):
        array = _array()
        for _ in range(5):
            outcome = array.access(*_addr(7))
        assert outcome.bank == _home(array, 7)
        assert outcome.moved_boundaries == 0

    def test_lru_within_home_bank(self):
        array = _array()
        ways = array.associativity(2)
        for tag in range(1, ways + 1):
            array.access(*_addr(tag))
        array.access(*_addr(1))      # touch 1: now MRU, 2 is the LRU
        outcome = array.access(*_addr(ways + 1))  # evicts 2
        assert outcome.victim.tag == 2
        assert outcome.moved_boundaries == 0

    def test_hit_rate(self):
        array = _array()
        array.access(*_addr(1))
        array.access(*_addr(1))
        assert array.stats.hit_rate == 0.5

    def test_invalid_dimensions(self):
        with pytest.raises(ConfigurationError):
            StaticNUCAArray([])


class TestStaticNUCASystem:
    def test_runs_and_reports(self):
        from repro.core.system import NetworkedCacheSystem
        from repro.workloads import TraceGenerator, profile_by_name

        profile = profile_by_name("vpr")
        trace, warmup = TraceGenerator(profile, seed=9).generate_with_warmup(
            measure=200
        )
        system = NetworkedCacheSystem(design="A", scheme="static-nuca")
        result = system.run(trace, profile, warmup=warmup)
        assert result.scheme == "static-nuca"
        assert result.accesses == 200
        assert result.average_latency > 0
        assert 0 < result.ipc <= profile.perfect_l2_ipc

    def test_deterministic(self):
        from repro.core.system import NetworkedCacheSystem
        from repro.workloads import TraceGenerator, profile_by_name

        profile = profile_by_name("vpr")
        trace, warmup = TraceGenerator(profile, seed=9).generate_with_warmup(
            measure=150
        )
        a = NetworkedCacheSystem(design="A", scheme="static-nuca").run(
            trace, profile, warmup=warmup
        )
        b = NetworkedCacheSystem(design="A", scheme="static-nuca").run(
            trace, profile, warmup=warmup
        )
        assert a.ipc == b.ipc and a.average_latency == b.average_latency

    @pytest.mark.parametrize(
        "warmup, match", [(-5, "non-negative"), (300, "leave accesses")]
    )
    def test_bad_warmup_rejected(self, warmup, match):
        # The same check as the D-NUCA loop: a negative warm-up must not
        # silently measure the whole trace.
        from repro.core.system import NetworkedCacheSystem
        from repro.workloads import TraceGenerator, profile_by_name

        profile = profile_by_name("art")
        trace = TraceGenerator(profile, seed=1).generate(300)
        system = NetworkedCacheSystem(design="A", scheme="static-nuca")
        with pytest.raises(ConfigurationError, match=match):
            system.run(trace, profile, warmup=warmup)
