"""Unit tests for the full cache-contents array."""

import pytest

from repro.cache.array import CacheArray
from repro.cache.bank import bank_descriptors_for_column
from repro.cache.replacement import LRUPolicy
from repro.errors import ConfigurationError

KB = 1024


def _array():
    columns = [bank_descriptors_for_column([64 * KB] * 16) for _ in range(16)]
    return CacheArray(columns, LRUPolicy())


class TestCacheArray:
    def test_sets_materialize_lazily(self):
        array = _array()
        assert array.touched_sets == 0
        array.access(0, 0, 0)
        assert array.touched_sets == 1

    def test_same_set_key_reuses_state(self):
        array = _array()
        array.access(3, 5, 1)
        array.access(3, 5, 2)
        assert array.touched_sets == 1
        assert array.set_state(3, 5).find(1) is not None

    def test_hit_after_fill(self):
        array = _array()
        assert not array.access(1, 1, 9).hit
        assert array.access(1, 1, 9).hit

    def test_stats_recorded(self):
        array = _array()
        array.access(1, 1, 9)
        array.access(1, 1, 9)
        assert array.stats.accesses == 2
        assert array.stats.hits == 1

    def test_occupancy(self):
        array = _array()
        for tag in range(5):
            array.access(0, 0, tag)
        assert array.occupancy() == 5

    def test_column_count_must_match_layout(self):
        columns = [bank_descriptors_for_column([64 * KB] * 16)] * 4
        with pytest.raises(ConfigurationError):
            CacheArray(columns, LRUPolicy())

    def test_associativity_per_column(self):
        array = _array()
        assert array.associativity(0) == 16

    def test_empty_columns_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheArray([], LRUPolicy())
