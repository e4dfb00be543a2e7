"""Unit tests for the trace container."""

import pytest

from repro.errors import TraceError
from repro.workloads import Trace, TraceAccess


def _one(address=0x40, is_write=False, gap=3):
    """A one-access trace."""
    return Trace([address], [is_write], [gap])


class TestTraceAccess:
    def test_valid(self):
        access = _one()[0]
        assert access == TraceAccess(address=0x40, is_write=False, gap_instructions=3)
        assert access.address == 0x40

    def test_address_range_checked(self):
        with pytest.raises(TraceError):
            _one(address=1 << 32)

    def test_negative_gap_rejected(self):
        with pytest.raises(TraceError):
            _one(gap=-1)


class TestTrace:
    def _trace(self):
        return Trace([0x40, 0x80, 0x40], [False, True, False], [2, 3, 5], name="t")

    def test_len_and_iteration(self):
        trace = self._trace()
        assert len(trace) == 3
        assert [a.address for a in trace] == [0x40, 0x80, 0x40]

    def test_counts(self):
        trace = self._trace()
        assert trace.write_count == 1

    def test_total_instructions(self):
        assert self._trace().total_instructions == 10

    def test_distinct_blocks(self):
        assert self._trace().distinct_blocks() == 2

    def test_slice(self):
        trace = self._trace()
        part = Trace(trace.addresses[1:], trace.writes[1:], trace.gaps[1:])
        assert len(part) == 2
        assert part[0].address == 0x80

    def test_indexing(self):
        assert self._trace()[2].gap_instructions == 5


class TestColumnChecks:
    """Each column is checked at construction; errors name the first bad row."""

    @pytest.mark.parametrize("address", [1 << 32, -1, 64.0, True])
    def test_bad_address_names_its_row(self, address):
        with pytest.raises(TraceError, match=r"trace row 1: address") as error:
            Trace([0x40, address, 1 << 40], [False] * 3, [1] * 3)
        assert error.value.row == 1
        assert repr(address) in str(error.value)

    @pytest.mark.parametrize("gap", [-1, 2.0, None])
    def test_bad_gap_names_its_row(self, gap):
        with pytest.raises(TraceError, match=r"trace row 2: gap") as error:
            Trace([0x40] * 3, [False] * 3, [1, 0, gap])
        assert error.value.row == 2
        assert repr(gap) in str(error.value)

    @pytest.mark.parametrize("flag", [1, 0, "w", None])
    def test_non_bool_write_flag_names_its_row(self, flag):
        with pytest.raises(TraceError, match=r"trace row 0: write flag") as error:
            Trace([0x40] * 2, [flag, True], [1, 1])
        assert error.value.row == 0
        assert repr(flag) in str(error.value)

    def test_unequal_columns_name_the_first_missing_row(self):
        with pytest.raises(TraceError, match=r"trace row 2: columns differ") as error:
            Trace([0x40] * 3, [False] * 3, [1, 1])
        assert error.value.row == 2

    def test_empty_trace_is_valid(self):
        assert len(Trace([], [], [])) == 0


class TestGeneratedColumns:
    """Generated traces hold plain Python values, never NumPy scalars."""

    def test_columns_hold_only_int_and_bool(self):
        from repro.workloads import TraceGenerator, profile_by_name

        trace, _ = TraceGenerator(profile_by_name("mcf"), seed=2).generate_with_warmup(
            measure=200
        )
        assert {type(a) for a in trace.addresses} == {int}
        assert {type(w) for w in trace.writes} == {bool}
        assert {type(g) for g in trace.gaps} == {int}

    def test_run_result_counts_are_int(self):
        from repro.core.system import NetworkedCacheSystem
        from repro.workloads import TraceGenerator, profile_by_name

        profile = profile_by_name("art")
        trace, warmup = TraceGenerator(profile, seed=2).generate_with_warmup(
            measure=100
        )
        result = NetworkedCacheSystem().run(trace, profile, warmup=warmup)
        assert type(result.instructions) is int
        assert type(result.cycles) is int
