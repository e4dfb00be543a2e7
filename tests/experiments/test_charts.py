"""Unit tests for the ASCII chart renderers."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.charts import (
    horizontal_bars,
    sparkline,
    stacked_bars,
)


class TestHorizontalBars:
    def test_bars_scale_to_maximum(self):
        out = horizontal_bars({"a": 1.0, "b": 2.0}, width=10)
        lines = out.splitlines()
        assert lines[0].count("#") == 5
        assert lines[1].count("#") == 10

    def test_baseline_marker(self):
        out = horizontal_bars({"a": 0.5, "b": 2.0}, width=10, baseline=1.0)
        assert "|" in out.splitlines()[0]

    def test_unit_suffix(self):
        out = horizontal_bars({"a": 1.5}, unit="x")
        assert "1.50x" in out

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            horizontal_bars({})

    def test_non_positive_rejected(self):
        with pytest.raises(ConfigurationError):
            horizontal_bars({"a": 0.0})


class TestStackedBars:
    def test_normalized_width(self):
        out = stacked_bars(
            {"x": {"a": 30.0, "b": 70.0}, "y": {"a": 50.0, "b": 50.0}},
            width=20,
        )
        lines = out.splitlines()
        for line in lines[:2]:
            bar = line.split(" ", 1)[1]
            assert len(bar.rstrip()) == 20

    def test_legend_lists_series(self):
        out = stacked_bars({"x": {"bank": 1.0, "net": 2.0}})
        assert "#=bank" in out and "==net" in out.replace("=net", "=net")

    def test_mismatched_series_rejected(self):
        with pytest.raises(ConfigurationError):
            stacked_bars({"x": {"a": 1.0}, "y": {"b": 1.0}})

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            stacked_bars({})


class TestSparkline:
    def test_monotone_values(self):
        line = sparkline([1, 2, 3, 4, 5])
        assert len(line) == 5
        assert line[0] == " " and line[-1] == "@"

    def test_flat_values(self):
        assert len(sparkline([2, 2, 2])) == 3

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            sparkline([])


class TestReportFormatting:
    def test_format_table_alignment(self):
        from repro.experiments.report import format_table

        out = format_table(["a", "long_header"], [(1, 2.5), ("xy", 3)],
                           title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "long_header" in lines[2]
        widths = {len(line) for line in lines[2:]}
        assert len(widths) <= 2  # uniform column alignment

    def test_format_ratio(self):
        from repro.experiments.report import format_ratio

        assert format_ratio(1.38) == "+38%"
        assert format_ratio(0.7) == "-30%"


class TestFullReport:
    def test_artifact_registry(self):
        from repro.experiments.full_report import _ARTIFACTS

        names = [title for title, _, _ in _ARTIFACTS]
        assert len(names) == 11
        assert any("Figure 9" in n for n in names)
