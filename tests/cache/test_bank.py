"""Unit tests for bank descriptors and column construction."""

import pytest

from repro.cache.bank import (
    NON_UNIFORM_COLUMN,
    bank_descriptors_for_column,
    bank_of_way,
)
from repro.errors import ConfigurationError

KB = 1024


class TestUniformColumn:
    def test_sixteen_direct_mapped_banks(self):
        descriptors = bank_descriptors_for_column([64 * KB] * 16)
        assert len(descriptors) == 16
        assert all(d.ways == 1 for d in descriptors)
        assert sum(d.ways for d in descriptors) == 16

    def test_way_ranges_are_contiguous(self):
        descriptors = bank_descriptors_for_column([64 * KB] * 4)
        assert bank_of_way(descriptors) == [0, 1, 2, 3]


class TestNonUniformColumn:
    def test_paper_column(self):
        descriptors = bank_descriptors_for_column(list(NON_UNIFORM_COLUMN))
        assert [d.ways for d in descriptors] == [1, 1, 2, 4, 8]
        assert sum(d.ways for d in descriptors) == 16

    def test_bank_of_way_mapping(self):
        descriptors = bank_descriptors_for_column(list(NON_UNIFORM_COLUMN))
        mapping = bank_of_way(descriptors)
        assert mapping == [0, 1, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4]

    def test_timing_follows_capacity(self):
        descriptors = bank_descriptors_for_column(list(NON_UNIFORM_COLUMN))
        assert descriptors[0].timing.tag_latency == 2
        assert descriptors[-1].timing.tag_latency == 5

    def test_256kb_column(self):
        descriptors = bank_descriptors_for_column([256 * KB] * 4)
        assert [d.ways for d in descriptors] == [4, 4, 4, 4]


class TestValidation:
    def test_non_divisible_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            bank_descriptors_for_column([100 * KB])

    def test_too_small_bank_rejected(self):
        with pytest.raises(ConfigurationError):
            bank_descriptors_for_column([KB], sets_per_bank=1024)
