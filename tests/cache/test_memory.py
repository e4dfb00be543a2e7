"""Unit tests for the off-chip memory model."""

import pytest

from repro.cache.memory import MemoryModel
from repro.errors import ConfigurationError


class TestMemoryModel:
    def test_block_read_latency(self):
        memory = MemoryModel()
        start, ready = memory.read(100)
        assert start == 100
        assert ready == 100 + 162

    def test_transfer_cycles(self):
        assert MemoryModel().transfer_cycles == 32

    def test_pipelining_limits_bandwidth(self):
        memory = MemoryModel()
        first_start, _ = memory.read(0)
        second_start, second_ready = memory.read(0)
        assert first_start == 0
        assert second_start == 32
        assert second_ready == 32 + 162

    def test_writeback_occupies_channel(self):
        memory = MemoryModel()
        memory.writeback(0)
        start, _ = memory.read(0)
        assert start == 32

    def test_writeback_completion(self):
        memory = MemoryModel()
        start, done = memory.writeback(10)
        assert done == start + 32

    def test_counters_and_reset(self):
        memory = MemoryModel()
        memory.read(0)
        memory.writeback(0)
        assert memory.reads == 1 and memory.writebacks == 1
        memory.reset()
        assert memory.reads == 0
        assert memory.read(0)[0] == 0

    def test_smaller_blocks(self):
        memory = MemoryModel(block_size=8)
        assert memory.transfer_cycles == 4
        assert memory.access_latency == 134

    def test_zero_base_latency_is_the_transfer_alone(self):
        assert MemoryModel(base_latency=0).access_latency == 32

    def test_negative_base_latency_rejected(self):
        with pytest.raises(ConfigurationError, match="base latency"):
            MemoryModel(base_latency=-500)
