"""Unit and property tests for the synthetic trace generator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.address import AddressMapper
from repro.errors import TraceError
from repro.workloads import TraceGenerator, generate_trace, profile_by_name
from repro.workloads.generator import DEFAULT_INDEX_SPACE


@pytest.fixture(scope="module")
def art():
    return profile_by_name("art")


class TestDeterminism:
    def test_same_seed_same_trace(self, art):
        a = generate_trace(art, 500, seed=3)
        b = generate_trace(art, 500, seed=3)
        assert [x.address for x in a] == [x.address for x in b]
        assert [x.is_write for x in a] == [x.is_write for x in b]

    def test_different_seed_differs(self, art):
        a = generate_trace(art, 500, seed=3)
        b = generate_trace(art, 500, seed=4)
        assert [x.address for x in a] != [x.address for x in b]

    def test_different_benchmarks_differ(self):
        a = generate_trace(profile_by_name("art"), 500, seed=3)
        b = generate_trace(profile_by_name("mcf"), 500, seed=3)
        assert [x.address for x in a] != [x.address for x in b]


class TestStatisticalFidelity:
    def test_write_fraction_tracks_profile(self, art):
        trace = generate_trace(art, 5000, seed=1)
        assert trace.write_count / len(trace) == pytest.approx(
            art.write_fraction, abs=0.03
        )

    def test_access_rate_tracks_profile(self, art):
        trace = generate_trace(art, 5000, seed=1)
        rate = len(trace) / trace.total_instructions
        assert rate == pytest.approx(art.l2_access_per_instr, rel=0.1)

    def test_footprint_bounded(self, art):
        trace = generate_trace(art, 5000, seed=1)
        assert trace.distinct_blocks() <= art.footprint_blocks + art.band_blocks

    def test_streaming_grows_footprint(self):
        applu = profile_by_name("applu")
        trace = generate_trace(applu, 5000, seed=1)
        resident = applu.footprint_blocks + applu.band_blocks
        assert trace.distinct_blocks() > min(resident, 1000)


class TestAddressSpace:
    def test_indexes_confined_to_sampled_space(self, art):
        mapper = AddressMapper()
        trace = generate_trace(art, 2000, seed=1)
        for access in trace:
            decoded = mapper.decode(access.address)
            assert decoded.index < DEFAULT_INDEX_SPACE
            assert decoded.offset == 0

    def test_all_columns_used(self, art):
        mapper = AddressMapper()
        trace = generate_trace(art, 2000, seed=1)
        columns = {mapper.decode(a.address).column for a in trace}
        assert columns == set(range(16))

    def test_custom_index_space(self, art):
        mapper = AddressMapper()
        generator = TraceGenerator(art, seed=1, index_space=4)
        trace = generator.generate(500)
        assert all(mapper.decode(a.address).index < 4 for a in trace)

    def test_invalid_index_space(self, art):
        with pytest.raises(TraceError):
            TraceGenerator(art, index_space=3)
        with pytest.raises(TraceError):
            TraceGenerator(art, index_space=2048)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_addresses_always_valid_32bit(self, seed):
        profile = profile_by_name("mcf")
        trace = generate_trace(profile, 200, seed=seed)
        for access in trace:
            assert 0 <= access.address < (1 << 32)
            assert access.gap_instructions >= 1


class TestWarmupCover:
    def test_cover_touches_every_resident_block(self, art):
        generator = TraceGenerator(art, seed=1)
        trace, warmup = generator.generate_with_warmup(measure=100)
        resident = art.footprint_blocks + art.band_blocks
        cover = trace.slice(0, resident)
        assert cover.distinct_blocks() == resident

    def test_warmup_length(self, art):
        generator = TraceGenerator(art, seed=1)
        trace, warmup = generator.generate_with_warmup(
            measure=100, mix_factor=0.5
        )
        resident = art.footprint_blocks + art.band_blocks
        assert warmup == resident + resident // 2
        assert len(trace) == warmup + 100

    def test_invalid_measure(self, art):
        with pytest.raises(TraceError):
            TraceGenerator(art, seed=1).generate_with_warmup(measure=0)


class TestErrors:
    def test_zero_length(self, art):
        with pytest.raises(TraceError):
            TraceGenerator(art, seed=1).generate(0)


def _loop_address(generator, block):
    """One block's address the loop way: scatter, split the fields, encode."""
    layout = generator.mapper.layout
    index_bits = generator.index_space.bit_length() - 1
    space_bits = layout.tag_bits + index_bits + layout.column_bits
    block = (block * 0x9E3779B1) & ((1 << space_bits) - 1)
    column = block & (layout.num_columns - 1)
    block >>= layout.column_bits
    index = block & (generator.index_space - 1)
    tag = block >> index_bits
    return generator.mapper.encode(tag=tag, index=index, column=column)


class TestArrayAddresses:
    """The array scatter and composition against the per-block loop."""

    @given(
        fields=st.sampled_from([(12, 10, 4, 6), (14, 8, 4, 6), (8, 12, 5, 7),
                                (16, 9, 6, 1)]),
        index_log=st.integers(0, 9),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_the_loop_reference(self, fields, index_log, data):
        import numpy as np

        from repro.config import AddressLayout

        layout = AddressLayout(*fields)
        index_space = 1 << min(index_log, layout.index_bits)
        generator = TraceGenerator(
            profile_by_name("art"), index_space=index_space,
            mapper=AddressMapper(layout),
        )
        space = 1 << (layout.tag_bits + index_space.bit_length() - 1
                      + layout.column_bits)
        blocks = data.draw(st.lists(st.integers(0, space - 1), min_size=1,
                                    max_size=40))
        addresses = generator._addresses(np.array(blocks, dtype=np.int64))
        assert addresses == [_loop_address(generator, b) for b in blocks]
        assert all(type(a) is int for a in addresses)
