"""Unit tests for trace file I/O."""

import pytest

from repro.errors import TraceError
from repro.workloads import Trace, TraceGenerator, generate_trace, profile_by_name
from repro.workloads.traceio import dumps_trace, load_trace, loads_trace, save_trace


def _trace():
    return Trace([0x12340040, 0x00000080], [False, True], [7, 1], name="mini")


class TestRoundTrip:
    def test_string_round_trip(self):
        original = _trace()
        restored = loads_trace(dumps_trace(original))
        assert restored.name == "mini"
        assert len(restored) == 2
        assert [a.address for a in restored] == [a.address for a in original]
        assert [a.is_write for a in restored] == [False, True]
        assert [a.gap_instructions for a in restored] == [7, 1]

    def test_file_round_trip(self, tmp_path):
        original = generate_trace(profile_by_name("art"), 300, seed=5)
        path = tmp_path / "art.trace"
        save_trace(original, path)
        restored = load_trace(path)
        assert len(restored) == 300
        assert [a.address for a in restored] == [a.address for a in original]

    def test_warmup_trace_round_trips_column_for_column(self, tmp_path):
        original, _ = TraceGenerator(
            profile_by_name("mcf"), seed=4
        ).generate_with_warmup(measure=200)
        path = tmp_path / "mcf.trace"
        save_trace(original, path)
        restored = load_trace(path)
        assert restored.name == original.name
        assert restored.addresses == original.addresses
        assert restored.writes == original.writes
        assert restored.gaps == original.gaps
        assert dumps_trace(restored) == dumps_trace(original)

    def test_generated_trace_survives_simulation(self, tmp_path):
        from repro import NetworkedCacheSystem

        profile = profile_by_name("twolf")
        original = generate_trace(profile, 300, seed=6)
        path = tmp_path / "t.trace"
        save_trace(original, path)
        restored = load_trace(path)
        a = NetworkedCacheSystem().run(original, profile, warmup=100)
        b = NetworkedCacheSystem().run(restored, profile, warmup=100)
        assert a.average_latency == b.average_latency


class TestFormat:
    def test_header_required(self):
        with pytest.raises(TraceError, match="not a repro-trace"):
            loads_trace("12340040 r 1\n")

    def test_comments_and_blanks_ignored(self):
        text = ("# repro-trace v1 name=x\n\n# comment\n00000040 r 3\n")
        assert len(loads_trace(text)) == 1

    def test_malformed_line_rejected(self):
        with pytest.raises(TraceError, match="malformed"):
            loads_trace("# repro-trace v1 name=x\n00000040 q 3\n")

    def test_bad_numbers_rejected(self):
        with pytest.raises(TraceError, match="malformed"):
            loads_trace("# repro-trace v1 name=x\nzzz r 3\n")

    def test_address_out_of_range_names_the_file_line(self):
        text = "# repro-trace v1 name=x\n# comment\n00000040 r 3\n\n100000000 w 1\n"
        with pytest.raises(TraceError, match=r"trace line 5: .*address 4294967296"):
            loads_trace(text)

    def test_negative_gap_names_the_file_line(self):
        text = "# repro-trace v1 name=x\n00000040 r 3\n00000080 r -2\n"
        with pytest.raises(TraceError, match=r"trace line 3: .*gap -2"):
            loads_trace(text)

    def test_empty_trace_rejected(self):
        with pytest.raises(TraceError, match="no accesses"):
            loads_trace("# repro-trace v1 name=x\n")

    def test_default_name_from_file(self, tmp_path):
        path = tmp_path / "fancy.trace"
        path.write_text("# repro-trace v1 name=\n00000040 r 3\n")
        assert load_trace(path).name == "fancy"
