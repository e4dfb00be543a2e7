"""Behavioral tests for the transaction flows (Figures 2 and 3)."""

import pytest

from repro.cache.address import AddressMapper
from repro.core.flows import FIGURE8_SCHEMES, Scheme, make_scheme
from repro.core.system import NetworkedCacheSystem

MAPPER = AddressMapper()


def _system(scheme: str, design: str = "A") -> NetworkedCacheSystem:
    return NetworkedCacheSystem(design=design, scheme=scheme)


def _fill_set(system, column=3, index=5, ways=16):
    """Install tags 0..ways-1; tag (ways-1) ends at the MRU way."""
    for tag in range(ways):
        system.access(MAPPER.encode(tag=tag, index=index, column=column), at=0)
    system.geometry.reset_contention()
    system.memory.reset()
    system.engine.reset()


def _probe_hit(scheme, depth, column=3, design="A"):
    system = _system(scheme, design)
    _fill_set(system, column=column)
    timing = system.access(
        MAPPER.encode(tag=15 - depth, index=5, column=column), at=50_000
    )
    assert timing.hit and timing.bank_position == depth
    return timing


def _probe_miss(scheme, column=3, design="A"):
    system = _system(scheme, design)
    _fill_set(system, column=column)
    timing = system.access(
        MAPPER.encode(tag=500, index=5, column=column), at=50_000
    )
    assert not timing.hit
    return timing


class TestSchemeParsing:
    def test_names(self):
        scheme = make_scheme("multicast+fast_lru")
        assert scheme.multicast and scheme.is_fast
        assert scheme.name == "multicast+fast_lru"

    @pytest.mark.parametrize("bad", ["lru", "broadcast+lru", "unicast+mru"])
    def test_bad_names_rejected(self, bad):
        with pytest.raises(Exception):
            make_scheme(bad)

    def test_figure8_scheme_list(self):
        assert len(FIGURE8_SCHEMES) == 5
        for name in FIGURE8_SCHEMES:
            assert isinstance(make_scheme(name), Scheme)


class TestHitTiming:
    @pytest.mark.parametrize("scheme", FIGURE8_SCHEMES)
    def test_mru_hit_is_fast(self, scheme):
        timing = _probe_hit(scheme, depth=0)
        assert timing.latency < 40
        assert timing.transaction_latency >= timing.latency

    @pytest.mark.parametrize("scheme", FIGURE8_SCHEMES)
    def test_latency_grows_with_depth(self, scheme):
        shallow = _probe_hit(scheme, depth=1)
        deep = _probe_hit(scheme, depth=12)
        assert deep.latency > shallow.latency

    def test_multicast_data_latency_beats_unicast_at_depth(self):
        unicast = _probe_hit("unicast+fast_lru", depth=8)
        multicast = _probe_hit("multicast+fast_lru", depth=8)
        assert multicast.latency < unicast.latency

    def test_fast_lru_transaction_beats_lru(self):
        lru = _probe_hit("unicast+lru", depth=8)
        fast = _probe_hit("unicast+fast_lru", depth=8)
        assert fast.transaction_latency < lru.transaction_latency

    def test_promotion_swaps_only_one_bank(self):
        promo = _probe_hit("unicast+promotion", depth=8)
        lru = _probe_hit("unicast+lru", depth=8)
        # Promotion's post-hit movement is one swap, LRU's is a full chain.
        assert promo.transaction_latency < lru.transaction_latency

    def test_settled_never_before_data(self):
        for scheme in FIGURE8_SCHEMES:
            timing = _probe_hit(scheme, depth=4)
            assert timing.settled >= timing.data_at_core

    def test_bank_cycles_on_spine(self):
        timing = _probe_hit("unicast+lru", depth=3)
        # Sequential walk: 4 tag matches at 2 cycles each on the spine.
        assert timing.bank_cycles >= 8

    def test_decomposition_sums_to_transaction(self):
        for scheme in FIGURE8_SCHEMES:
            timing = _probe_hit(scheme, depth=5)
            assert timing.network_cycles == (
                timing.transaction_latency - timing.bank_cycles
                - timing.memory_cycles
            )


class TestMissTiming:
    @pytest.mark.parametrize("scheme", FIGURE8_SCHEMES)
    def test_miss_includes_memory_latency(self, scheme):
        timing = _probe_miss(scheme)
        assert timing.memory_cycles >= 162
        assert timing.latency > 162

    def test_fast_lru_miss_transaction_beats_lru(self):
        lru = _probe_miss("unicast+lru")
        fast = _probe_miss("unicast+fast_lru")
        assert fast.transaction_latency < lru.transaction_latency

    def test_multicast_fast_miss_beats_multicast_promotion(self):
        promo = _probe_miss("multicast+promotion")
        fast = _probe_miss("multicast+fast_lru")
        assert fast.transaction_latency < promo.transaction_latency

    def test_dirty_victim_triggers_writeback(self):
        system = _system("multicast+fast_lru")
        # Fill with writes so the eventual victim is dirty.
        for tag in range(16):
            system.access(
                MAPPER.encode(tag=tag, index=5, column=3), at=0, is_write=True
            )
        system.memory.reset()
        system.access(MAPPER.encode(tag=99, index=5, column=3), at=50_000)
        assert system.memory.writebacks == 1

    def test_clean_victim_no_writeback(self):
        timing = _probe_miss("multicast+fast_lru")
        assert not timing.hit


class TestColumnAdmission:
    def test_mesh_serializes_same_column(self):
        system = _system("unicast+lru")
        _fill_set(system, column=3)
        first = system.access(MAPPER.encode(tag=15, index=5, column=3), at=1000)
        second = system.access(MAPPER.encode(tag=14, index=5, column=3), at=1000)
        # The second transaction waits for the first to settle.
        assert second.data_at_core >= first.settled

    def test_different_columns_proceed_in_parallel(self):
        system = _system("unicast+lru")
        _fill_set(system, column=3)
        _fill_set(system, column=4)
        first = system.access(MAPPER.encode(tag=15, index=5, column=3), at=1000)
        second = system.access(MAPPER.encode(tag=15, index=5, column=4), at=1000)
        assert second.latency <= first.latency + 8  # only row-0 sharing

    def test_halo_admits_two_per_spike(self):
        system = _system("multicast+fast_lru", design="E")
        _fill_set(system, column=3)
        t1 = system.access(MAPPER.encode(tag=15, index=5, column=3), at=1000)
        t2 = system.access(MAPPER.encode(tag=14, index=5, column=3), at=1000)
        t3 = system.access(MAPPER.encode(tag=13, index=5, column=3), at=1000)
        # Two concurrent transactions allowed; the third queues.
        assert t2.issued == t1.issued
        assert t3.data_at_core > t2.data_at_core


class TestDesignTimingContrasts:
    def test_halo_mru_hit_beats_mesh_edge_column(self):
        mesh = _probe_hit("multicast+fast_lru", depth=0, column=0, design="A")
        halo = _probe_hit("multicast+fast_lru", depth=0, column=0, design="E")
        assert halo.latency < mesh.latency

    def test_design_c_mru_hit_pays_big_bank_tag(self):
        a = _probe_hit("multicast+fast_lru", depth=0, column=0, design="A")
        c_sys = _system("multicast+fast_lru", "C")
        _fill_set(c_sys, column=0, ways=16)
        c = c_sys.access(MAPPER.encode(tag=15, index=5, column=0), at=50_000)
        assert c.hit and c.bank_position == 0
        assert c.bank_cycles > a.bank_cycles

    def test_halo_memory_pin_delay_visible_on_miss(self):
        e = _probe_miss("multicast+fast_lru", design="E")
        f = _probe_miss("multicast+fast_lru", design="F")
        # E pays 2 x 16 pin cycles, F only 2 x 9.
        assert e.memory_cycles >= f.memory_cycles
