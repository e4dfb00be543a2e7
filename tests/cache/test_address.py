"""Unit and property tests for address decomposition (Section 5)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.address import AddressMapper
from repro.config import AddressLayout
from repro.errors import ConfigurationError


class TestDecode:
    def test_field_extraction(self, mapper):
        raw = mapper.encode(tag=0xABC, index=0x155, column=0x9, offset=0x2A)
        decoded = mapper.decode(raw)
        assert decoded.tag == 0xABC
        assert decoded.index == 0x155
        assert decoded.column == 0x9
        assert decoded.offset == 0x2A

    def test_block_address_clears_offset(self, mapper):
        raw = mapper.encode(tag=1, index=2, column=3, offset=17)
        decoded = mapper.decode(raw)
        assert decoded.block_address == raw - 17
        assert decoded.block_address % 64 == 0

    def test_set_key(self, mapper):
        decoded = mapper.decode(mapper.encode(tag=5, index=7, column=11))
        assert decoded.set_key == (11, 7)

    def test_out_of_range_raw_rejected(self, mapper):
        with pytest.raises(ConfigurationError):
            mapper.decode(1 << 32)
        with pytest.raises(ConfigurationError):
            mapper.decode(-1)

    def test_block_number(self, mapper):
        raw = mapper.encode(tag=1, index=0, column=0, offset=63)
        assert mapper.block_number(raw) == raw >> 6


class TestDecodeColumns:
    @given(raws=st.lists(st.integers(0, (1 << 32) - 1), max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_matches_scalar_decode(self, raws):
        mapper = AddressMapper()
        columns, indexes, tags = mapper.decode_columns(raws)
        decoded = [mapper.decode(raw) for raw in raws]
        assert columns == [d.column for d in decoded]
        assert indexes == [d.index for d in decoded]
        assert tags == [d.tag for d in decoded]
        assert all(type(v) is int for v in columns + indexes + tags)

    @pytest.mark.parametrize("bad", [1 << 32, -1, 1 << 70, -(1 << 70)])
    def test_out_of_range_raw_rejected(self, mapper, bad):
        with pytest.raises(ConfigurationError, match="not a 32-bit"):
            mapper.decode_columns([0x40, bad])


class TestEncode:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tag": 1 << 12, "index": 0, "column": 0},
            {"tag": 0, "index": 1 << 10, "column": 0},
            {"tag": 0, "index": 0, "column": 16},
            {"tag": 0, "index": 0, "column": 0, "offset": 64},
            {"tag": -1, "index": 0, "column": 0},
        ],
    )
    def test_out_of_range_fields_rejected(self, mapper, kwargs):
        with pytest.raises(ConfigurationError):
            mapper.encode(**kwargs)

    def test_layout_properties(self, mapper):
        assert mapper.num_columns == 16
        assert mapper.sets_per_bank == 1024


class TestRoundTrip:
    @given(
        tag=st.integers(0, (1 << 12) - 1),
        index=st.integers(0, (1 << 10) - 1),
        column=st.integers(0, 15),
        offset=st.integers(0, 63),
    )
    @settings(max_examples=200, deadline=None)
    def test_encode_decode_roundtrip(self, tag, index, column, offset):
        mapper = AddressMapper()
        raw = mapper.encode(tag=tag, index=index, column=column, offset=offset)
        decoded = mapper.decode(raw)
        assert (decoded.tag, decoded.index, decoded.column, decoded.offset) \
            == (tag, index, column, offset)

    @given(raw=st.integers(0, (1 << 32) - 1))
    @settings(max_examples=200, deadline=None)
    def test_decode_encode_roundtrip(self, raw):
        mapper = AddressMapper()
        decoded = mapper.decode(raw)
        assert mapper.encode(decoded.tag, decoded.index, decoded.column,
                             decoded.offset) == raw


class TestCustomLayout:
    def test_alternate_layout(self):
        layout = AddressLayout(tag_bits=14, index_bits=8, column_bits=4,
                               offset_bits=6)
        mapper = AddressMapper(layout)
        assert mapper.sets_per_bank == 256
        raw = mapper.encode(tag=(1 << 14) - 1, index=255, column=15, offset=63)
        decoded = mapper.decode(raw)
        assert decoded.tag == (1 << 14) - 1
