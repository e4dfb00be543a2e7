"""Unit tests for the Table-2 benchmark profiles."""

import pytest

from repro.errors import ConfigurationError
from repro.workloads import BENCHMARKS, profile_by_name
from repro.workloads.profiles import BenchmarkProfile


class TestTable2:
    def test_twelve_benchmarks(self):
        assert len(BENCHMARKS) == 12

    def test_paper_order(self):
        names = [p.name for p in BENCHMARKS]
        assert names == ["applu", "apsi", "art", "galgel", "lucas", "mesa",
                         "bzip2", "gcc", "mcf", "parser", "twolf", "vpr"]

    def test_suites(self):
        fp = [p.name for p in BENCHMARKS if p.suite == "FP"]
        assert fp == ["applu", "apsi", "art", "galgel", "lucas", "mesa"]

    @pytest.mark.parametrize("name, ipc, api", [
        ("art", 0.40, 0.155),
        ("mcf", 0.34, 0.181),
        ("mesa", 0.40, 0.003),
        ("gcc", 0.29, 0.082),
    ])
    def test_spot_values(self, name, ipc, api):
        profile = profile_by_name(name)
        assert profile.perfect_l2_ipc == ipc
        assert profile.l2_access_per_instr == api

    def test_derived_quantities(self):
        art = profile_by_name("art")
        assert art.l2_accesses == art.l2_reads + art.l2_writes
        assert 0 < art.write_fraction < 0.5

    def test_unknown_benchmark(self):
        with pytest.raises(ConfigurationError):
            profile_by_name("gzip")

    def test_art_has_no_streaming(self):
        # art exhibits only compulsory misses in the paper's simulation.
        assert profile_by_name("art").stream_fraction == 0.0

    def test_low_hit_rate_benchmarks_stream(self):
        for name in ("applu", "lucas"):
            assert profile_by_name(name).stream_fraction > 0.2

    def test_mcf_overflows_effective_cache(self):
        assert profile_by_name("mcf").footprint_blocks > 2048


class TestValidation:
    def _profile(self, **overrides):
        base = dict(
            name="x", suite="INT", instructions=1000, perfect_l2_ipc=0.4,
            l2_reads=100, l2_writes=50, l2_access_per_instr=0.1,
            footprint_blocks=100, zipf_alpha=1.0, stream_fraction=0.1,
        )
        base.update(overrides)
        return BenchmarkProfile(**base)

    def test_bad_suite(self):
        with pytest.raises(ConfigurationError):
            self._profile(suite="SPEC")

    def test_bad_stream_fraction(self):
        with pytest.raises(ConfigurationError):
            self._profile(stream_fraction=1.0)

    def test_band_requires_blocks(self):
        with pytest.raises(ConfigurationError):
            self._profile(band_fraction=0.2, band_blocks=0)

    def test_fractions_must_leave_zipf_mass(self):
        with pytest.raises(ConfigurationError):
            self._profile(stream_fraction=0.6, band_fraction=0.4,
                          band_blocks=10)

    def test_zero_footprint(self):
        with pytest.raises(ConfigurationError):
            self._profile(footprint_blocks=0)
