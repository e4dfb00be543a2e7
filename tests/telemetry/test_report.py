"""The ``repro report <metrics.json>`` explorer (repro.telemetry.report).

Everything is a pure function of the snapshot dict, so these tests build
tiny synthetic snapshots and assert on exact extracted structures; the
CLI round-trip over a real sweep lives in tests/test_cli.py.
"""

import json

import pytest

from repro.errors import TelemetryError
from repro.telemetry import report


def _counter(value):
    return {"type": "counter", "value": value}


def _mesh_snapshot():
    """A 2x2 mesh with one hot corner plus a series and a span leg."""
    return {
        "noc.link.flits.(0, 0)->(0, 1)": _counter(30),
        "noc.link.flits.(0, 1)->(1, 1)": _counter(10),
        "noc.link.flits.(1, 0)->(0, 0)": _counter(5),
        "cache.series.accesses": {
            "type": "series", "window": 16, "agg": "sum",
            "windows": [[0, 4], [2, 9]],
        },
        "cache.series.latency": {
            "type": "series", "window": 16, "agg": "hist",
            "edges": [10, 20], "windows": [[0, [3, 1, 0]]],
        },
        "cache.span.bank_service": {
            "type": "histogram", "edges": [4, 8],
            "counts": [2, 1, 1], "total": 24, "count": 4,
        },
    }


class TestLoadMetrics:
    def test_accepts_cli_payload_and_bare_snapshot(self, tmp_path):
        snapshot = _mesh_snapshot()
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(snapshot))
        wrapped = tmp_path / "wrapped.json"
        wrapped.write_text(json.dumps({"metrics": snapshot, "journal": []}))
        assert report.load_metrics(bare) == snapshot
        assert report.load_metrics(wrapped) == snapshot

    def test_directory_uses_last_parseable_json(self, tmp_path):
        (tmp_path / "a.json").write_text(json.dumps(_mesh_snapshot()))
        (tmp_path / "b.json").write_text(json.dumps({"not": "a snapshot"}))
        loaded = report.load_metrics(tmp_path)
        assert "cache.series.accesses" in loaded

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(TelemetryError, match="no metrics JSON"):
            report.load_metrics(tmp_path)

    def test_non_snapshot_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(TelemetryError, match="not a metrics snapshot"):
            report.load_metrics(bad)


class TestExtraction:
    def test_series_rows_carry_start_cycles_and_quantiles(self):
        series = report.extract_series(_mesh_snapshot())
        assert set(series) == {"cache.series.accesses", "cache.series.latency"}
        sums = series["cache.series.accesses"]["windows"]
        assert sums == [
            {"index": 0, "start": 0, "value": 4},
            {"index": 2, "start": 32, "value": 9},
        ]
        hist = series["cache.series.latency"]["windows"][0]
        assert hist["count"] == 4
        assert hist["p50"] == 10.0

    def test_heatmap_node_load_is_outgoing_sum(self):
        heatmap = report.extract_heatmap(_mesh_snapshot())
        assert heatmap["metric"] == "noc.link.flits"
        assert heatmap["links"][0]["value"] == 30
        assert heatmap["node_load"] == {
            "(0, 0)": 30, "(0, 1)": 10, "(1, 0)": 5,
        }
        assert heatmap["grid"] == {
            "rows": 2, "cols": 2, "values": [[30, 10], [5, 0]],
        }

    def test_heatmap_prefers_busy_cycles_over_flits(self):
        metrics = dict(_mesh_snapshot())
        metrics["noc.link.busy_cycles.(0, 0)->(0, 1)"] = _counter(7)
        heatmap = report.extract_heatmap(metrics)
        assert heatmap["metric"] == "noc.link.busy_cycles"
        assert len(heatmap["links"]) == 1

    def test_heatmap_without_link_counters_is_none(self):
        assert report.extract_heatmap({"x": _counter(1)}) is None

    def test_non_mesh_nodes_skip_the_grid(self):
        metrics = {
            "noc.link.flits.('hub',)->('spike', 0)": _counter(4),
        }
        heatmap = report.extract_heatmap(metrics)
        assert heatmap["links"]
        assert "grid" not in heatmap

    def test_breakdown_means_and_quantiles(self):
        breakdown = report.extract_breakdown(_mesh_snapshot())
        assert breakdown == {
            "bank_service": {
                "count": 4, "total": 24, "mean": 6.0,
                "p50": 4.0, "p95": 8.0, "p99": 8.0,
            },
        }


class TestRendering:
    def test_render_text_has_all_three_sections(self):
        text = report.render_text(report.explore(_mesh_snapshot()))
        assert "Windowed series" in text
        assert "Congestion heatmap" in text
        assert "Latency breakdown (cycles)" in text
        assert "2x2 mesh" in text
        assert "(0, 0)->(0, 1)  30" in text
        assert "bank_service" in text

    def test_render_text_degrades_gracefully_when_empty(self):
        text = report.render_text(report.explore({"x": _counter(1)}))
        assert "rerun with --window N" in text
        assert "no per-link counters" in text
        assert "no cache.span.*" in text

    def test_long_series_elide_the_middle(self):
        metrics = {
            "s": {
                "type": "series", "window": 4, "agg": "sum",
                "windows": [[i, i] for i in range(100)],
            },
        }
        text = report.render_text(report.explore(metrics))
        assert "windows elided" in text
        assert "@       0" in text and "@     396" in text
