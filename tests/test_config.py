"""Unit tests for the Table-1 configuration module."""

import pytest

from repro import config
from repro.errors import ConfigurationError


class TestMemoryLatency:
    def test_block_access_is_162_cycles(self):
        assert config.memory_access_latency(64) == 162

    def test_base_latency_for_zero_bytes(self):
        assert config.memory_access_latency(0) == 130

    def test_partial_chunk_rounds_up(self):
        assert config.memory_access_latency(1) == 134
        assert config.memory_access_latency(8) == 134
        assert config.memory_access_latency(9) == 138

    def test_negative_bytes_rejected(self):
        with pytest.raises(ConfigurationError):
            config.memory_access_latency(-1)


class TestBankTiming:
    @pytest.mark.parametrize(
        "capacity_kb, wire, tag, tag_repl",
        [(64, 1, 2, 3), (128, 2, 4, 4), (256, 2, 4, 5), (512, 3, 5, 6)],
    )
    def test_table1_entries(self, capacity_kb, wire, tag, tag_repl):
        timing = config.BankTiming.for_capacity(capacity_kb * 1024)
        assert timing.wire_delay == wire
        assert timing.tag_latency == tag
        assert timing.tag_replace_latency == tag_repl

    def test_unsupported_capacity_rejected(self):
        with pytest.raises(ConfigurationError, match="unsupported bank capacity"):
            config.BankTiming.for_capacity(96 * 1024)

    def test_supported_capacities_sorted(self):
        caps = config.supported_bank_capacities()
        assert list(caps) == sorted(caps)
        assert 64 * 1024 in caps and 512 * 1024 in caps

    def test_replacement_never_faster_than_tag(self):
        for capacity in config.supported_bank_capacities():
            timing = config.BankTiming.for_capacity(capacity)
            assert timing.tag_replace_latency >= timing.tag_latency


class TestAddressLayout:
    def test_default_fields_sum_to_32(self):
        layout = config.AddressLayout()
        assert layout.tag_bits + layout.index_bits + layout.column_bits \
            + layout.offset_bits == 32

    def test_sixteen_columns(self):
        assert config.AddressLayout().num_columns == 16

    def test_1024_sets_per_bank(self):
        assert config.AddressLayout().sets_per_bank == 1024

    def test_wrong_total_rejected(self):
        with pytest.raises(ConfigurationError):
            config.AddressLayout(tag_bits=13)

    def test_zero_field_rejected(self):
        with pytest.raises(ConfigurationError):
            config.AddressLayout(tag_bits=22, index_bits=0, column_bits=4,
                                 offset_bits=6)


class TestRouterConfig:
    def test_single_cycle_hop_latency(self):
        assert config.RouterConfig(single_cycle=True).hop_latency == 1

    def test_pipelined_hop_latency(self):
        assert config.RouterConfig(single_cycle=False).hop_latency == 5

    def test_defaults_match_table1(self):
        router = config.RouterConfig()
        assert router.num_vcs == 4
        assert router.buffer_depth == 4

    @pytest.mark.parametrize("field", ["num_vcs", "buffer_depth",
                                       "stage_latency"])
    def test_non_positive_rejected(self, field):
        with pytest.raises(ConfigurationError):
            config.RouterConfig(**{field: 0})


class TestPacketFlits:
    def test_control_packet_is_one_flit(self):
        assert config.packet_flits(carries_block=False) == 1

    def test_block_packet_is_five_flits(self):
        assert config.packet_flits(carries_block=True) == 5
