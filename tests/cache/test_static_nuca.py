"""Unit tests for the S-NUCA baseline."""

import pytest

from repro.cache.address import AddressMapper
from repro.cache.static_nuca import StaticNUCAArray
from repro.errors import ConfigurationError

MAPPER = AddressMapper()


def _addr(tag, index=3, column=2):
    """``(column, index, tag)`` of an encoded-then-decoded address."""
    address = MAPPER.decode(MAPPER.encode(tag=tag, index=index, column=column))
    return address.column, address.index, address.tag


def _home(array, tag, index=3, column=2):
    column, index, _ = _addr(tag, index, column)
    return array.home_bank(column, index)


class TestStaticNUCAArray:
    def test_home_bank_is_stable(self):
        array = StaticNUCAArray()
        assert _home(array, 5) == _home(array, 99)  # same set

    def test_home_banks_cover_all_rows(self):
        array = StaticNUCAArray()
        banks = {
            _home(array, 0, index=i, column=c)
            for i in range(16)
            for c in range(16)
        }
        assert banks == set(range(16))

    def test_hit_after_fill(self):
        array = StaticNUCAArray()
        assert not array.access(*_addr(7)).hit
        outcome = array.access(*_addr(7))
        assert outcome.hit
        assert outcome.bank == _home(array, 7)

    def test_no_migration_ever(self):
        array = StaticNUCAArray()
        for _ in range(5):
            outcome = array.access(*_addr(7))
        assert outcome.bank == _home(array, 7)

    def test_lru_within_home_bank(self):
        array = StaticNUCAArray(associativity=2)
        array.access(*_addr(1))
        array.access(*_addr(2))
        array.access(*_addr(1))      # touch 1: now MRU
        outcome = array.access(*_addr(3))  # evicts 2
        assert outcome.victim.tag == 2

    def test_hit_rate(self):
        array = StaticNUCAArray()
        array.access(*_addr(1))
        array.access(*_addr(1))
        assert array.hit_rate == 0.5

    def test_invalid_dimensions(self):
        with pytest.raises(ConfigurationError):
            StaticNUCAArray(columns=0)


class TestStaticNUCASystem:
    def test_runs_and_reports(self):
        from repro.core.static_system import StaticNUCASystem
        from repro.workloads import TraceGenerator, profile_by_name

        profile = profile_by_name("vpr")
        trace, warmup = TraceGenerator(profile, seed=9).generate_with_warmup(
            measure=200
        )
        result = StaticNUCASystem(design="A").run(trace, profile, warmup=warmup)
        assert result.scheme == "static-nuca"
        assert result.accesses == 200
        assert result.average_latency > 0
        assert 0 < result.ipc <= profile.perfect_l2_ipc

    def test_deterministic(self):
        from repro.core.static_system import StaticNUCASystem
        from repro.workloads import TraceGenerator, profile_by_name

        profile = profile_by_name("vpr")
        trace, warmup = TraceGenerator(profile, seed=9).generate_with_warmup(
            measure=150
        )
        a = StaticNUCASystem(design="A").run(trace, profile, warmup=warmup)
        b = StaticNUCASystem(design="A").run(trace, profile, warmup=warmup)
        assert a.ipc == b.ipc and a.average_latency == b.average_latency
