"""The metrics registry: counters, gauges, fixed-edge histograms, merging.

The load-bearing property is determinism: snapshots are plain sorted-key
dicts, histogram edges are part of a metric's identity, and merging is
associative and commutative -- so serial, parallel, and cache-replayed
sweeps fold per-cell snapshots into identical totals.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TelemetryError
from repro.telemetry import (
    CHAIN_DEPTH_EDGES,
    Histogram,
    MetricsRegistry,
    Series,
    global_registry,
    quantiles_from_counts,
    reset_global_metrics,
)


class TestCounter:
    def test_inc_and_set(self):
        registry = MetricsRegistry()
        counter = registry.counter("a.b")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        counter.set(9)
        assert counter.value == 9

    def test_same_name_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TelemetryError, match="Counter"):
            registry.gauge("x")


class TestGauge:
    def test_update_max_is_high_water(self):
        gauge = MetricsRegistry().gauge("hw")
        for value in (3, 7, 2):
            gauge.update_max(value)
        assert gauge.value == 7

    def test_merge_keeps_max(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("hw").set(5)
        b.gauge("hw").set(9)
        a.merge(b.snapshot())
        assert a.gauge("hw").value == 9


class TestHistogram:
    def test_bucket_assignment_is_stable(self):
        hist = Histogram(edges=(0, 1, 2, 4))
        for value in (0, 1, 1, 3, 100):
            hist.record(value)
        # buckets: <=0, <=1, <=2, <=4, overflow
        assert hist.counts == [1, 2, 0, 1, 1]
        assert hist.count == 5
        assert hist.total == 105
        assert hist.mean == 21.0

    def test_edges_must_increase(self):
        with pytest.raises(TelemetryError, match="strictly increasing"):
            Histogram(edges=(1, 1, 2))
        with pytest.raises(TelemetryError, match="strictly increasing"):
            Histogram(edges=(2, 1))

    def test_reregistration_with_other_edges_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", (0, 1, 2))
        with pytest.raises(TelemetryError, match="already registered"):
            registry.histogram("h", (0, 1, 3))

    def test_merge_rejects_different_edges(self):
        a = Histogram(edges=(0, 1))
        with pytest.raises(TelemetryError, match="different edges"):
            a.merge({"edges": [0, 2], "counts": [0, 0, 0],
                     "total": 0, "count": 0})

    def test_chain_depth_edges_are_fixed_constants(self):
        # The figure drivers and the merge path both depend on these
        # exact edges; changing them silently breaks series comparability.
        assert CHAIN_DEPTH_EDGES == (0, 1, 2, 3, 4, 6, 8, 12, 16)


def _linear_record(edges, counts, value) -> None:
    """The linear edge scan ``Histogram.record`` used before bisecting."""
    for i, edge in enumerate(edges):
        if value <= edge:
            counts[i] += 1
            break
    else:
        counts[-1] += 1


_numbers = st.one_of(
    st.integers(-50, 50),
    st.floats(-50, 50, allow_nan=False, allow_infinity=False),
)
_edges = st.lists(_numbers, min_size=1, max_size=8, unique=True).map(
    lambda edges: tuple(sorted(edges))
)


@st.composite
def _edges_and_values(draw):
    """Edges plus values that hit every edge exactly, fall below the first
    and above the last, and land anywhere in between."""
    edges = draw(_edges)
    values = list(edges) + [edges[0] - 1, edges[0] - 0.5, edges[-1] + 0.5]
    values += draw(st.lists(_numbers, max_size=20))
    return edges, draw(st.permutations(values))


class TestBisectBuckets:
    @given(case=_edges_and_values())
    @settings(max_examples=200, deadline=None)
    def test_histogram_matches_linear_scan(self, case):
        edges, values = case
        hist = Histogram(edges)
        counts = [0] * (len(edges) + 1)
        total = 0
        for value in values:
            hist.record(value)
            _linear_record(edges, counts, value)
            total += value
        assert hist.counts == counts
        assert hist.total == total
        assert hist.count == len(values)

    @given(case=_edges_and_values())
    @settings(max_examples=200, deadline=None)
    def test_hist_series_matches_linear_scan(self, case):
        edges, values = case
        series = Series(3, "hist", edges)
        windows: dict[int, list[int]] = {}
        for cycle, value in enumerate(values):
            series.record(cycle, value)
            counts = windows.setdefault(cycle // 3, [0] * (len(edges) + 1))
            _linear_record(edges, counts, value)
        assert series.windows == windows


class TestSeries:
    def test_samples_bucket_by_sim_cycle_window(self):
        series = Series(10)
        for cycle in (0, 9, 10, 25):
            series.record(cycle, 2)
        # cycle // window: {0, 9} -> 0, 10 -> 1, 25 -> 2
        assert series.windows == {0: 4, 1: 2, 2: 2}

    def test_max_agg_keeps_window_high_water(self):
        series = Series(4, "max")
        for cycle, value in ((0, 3), (1, 7), (2, 5), (4, 1)):
            series.record(cycle, value)
        assert series.windows == {0: 7, 1: 1}

    def test_hist_agg_counts_per_window_bucket(self):
        series = Series(8, "hist", edges=(1, 2, 4))
        for value in (1, 2, 3, 100):
            series.record(0, value)
        series.record(8, 4)
        # per-window buckets: <=1, <=2, <=4, overflow
        assert series.windows == {0: [1, 1, 1, 1], 1: [0, 0, 1, 0]}
        quantiles = dict(series.window_quantiles())
        assert quantiles[0]["p50"] == 2.0
        assert quantiles[1] == {"p50": 4.0, "p95": 4.0, "p99": 4.0}

    def test_identity_is_validated(self):
        with pytest.raises(TelemetryError, match="positive int"):
            Series(0)
        with pytest.raises(TelemetryError, match="agg must be one of"):
            Series(8, "mean")
        with pytest.raises(TelemetryError, match="edges are required"):
            Series(8, "hist")
        with pytest.raises(TelemetryError, match="edges are required"):
            Series(8, "sum", edges=(1, 2))
        with pytest.raises(TelemetryError, match="strictly increasing"):
            Series(8, "hist", edges=(2, 1))
        with pytest.raises(TelemetryError, match="window_quantiles"):
            Series(8).window_quantiles()

    def test_registry_enforces_series_identity(self):
        registry = MetricsRegistry()
        first = registry.series("s", 16)
        assert registry.series("s", 16) is first
        with pytest.raises(TelemetryError, match="identity mismatch"):
            registry.series("s", 32)
        with pytest.raises(TelemetryError, match="identity mismatch"):
            registry.series("s", 16, "max")

    def test_snapshot_shape_and_sorted_windows(self):
        series = Series(10)
        series.record(25)
        series.record(3)
        snap = series.snapshot()
        assert snap == {
            "type": "series", "window": 10, "agg": "sum",
            "windows": [[0, 1], [2, 1]],
        }
        assert "edges" not in snap
        assert "edges" in Series(10, "hist", edges=(1, 2)).snapshot()

    def test_merge_is_order_independent_for_every_agg(self):
        def sample(window_index: int, agg: str) -> Series:
            edges = (1, 4) if agg == "hist" else None
            series = Series(8, agg, edges)
            for offset, value in ((0, 2), (3, 5)):
                series.record(window_index * 8 + offset, value)
            return series

        for agg in ("sum", "max", "hist"):
            parts = [sample(index, agg).snapshot() for index in (0, 0, 1)]

            def fold(order, agg=agg):
                edges = (1, 4) if agg == "hist" else None
                merged = Series(8, agg, edges)
                for part in order:
                    merged.merge(part)
                return merged.snapshot()

            forward = fold(parts)
            assert forward == fold(reversed(parts)), agg
            indexes = [index for index, _ in forward["windows"]]
            assert indexes == [0, 1], agg

    def test_merge_rejects_identity_mismatch(self):
        series = Series(8)
        with pytest.raises(TelemetryError, match="identity mismatch"):
            series.merge(Series(16).snapshot())

    def test_registry_merge_reconstructs_series(self):
        source = MetricsRegistry()
        source.series("s.hist", 8, "hist", (1, 2)).record(0, 2)
        source.series("s.sum", 8).record(9, 3)
        target = MetricsRegistry()
        target.merge(source.snapshot())
        target.merge(source.snapshot())
        snap = target.snapshot()
        assert snap["s.sum"]["windows"] == [[1, 6]]
        assert snap["s.hist"]["windows"] == [[0, [0, 2, 0]]]

    def test_reset_clears_windows_keeps_identity(self):
        registry = MetricsRegistry()
        registry.series("s", 8, "hist", (1, 2)).record(0, 1)
        registry.reset()
        snap = registry.snapshot()["s"]
        assert snap["windows"] == []
        assert snap["edges"] == [1, 2]


class TestQuantilesFromCounts:
    def test_upper_edge_estimate(self):
        # counts per bucket: <=1: 5, <=2: 4, <=4: 1, overflow: 0
        quantiles = quantiles_from_counts((1, 2, 4), [5, 4, 1, 0])
        assert quantiles == {"p50": 1.0, "p95": 4.0, "p99": 4.0}

    def test_overflow_reports_last_edge(self):
        assert quantiles_from_counts((1, 2), [0, 0, 3])["p50"] == 2.0

    def test_empty_reports_zero(self):
        assert quantiles_from_counts((1, 2), [0, 0, 0]) == {
            "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }

    def test_merging_counts_preserves_quantiles(self):
        # Exactness under merging: quantiles of summed counts equal the
        # quantiles of the union stream, by construction.
        a, b = [3, 1, 0, 0], [0, 4, 2, 0]
        union = [x + y for x, y in zip(a, b)]
        assert quantiles_from_counts((1, 2, 4), union)["p50"] == 2.0


class TestRegistrySnapshotMerge:
    def _sample(self, scale: int) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("c").inc(10 * scale)
        registry.gauge("g").set(scale)
        hist = registry.histogram("h", (1, 2))
        for _ in range(scale):
            hist.record(2)
        return registry

    def test_snapshot_is_json_stable(self):
        registry = self._sample(2)
        first = json.dumps(registry.snapshot(), sort_keys=True)
        second = json.dumps(self._sample(2).snapshot(), sort_keys=True)
        assert first == second
        assert list(registry.snapshot()) == sorted(registry.snapshot())

    def test_merge_is_associative_and_commutative(self):
        parts = [self._sample(scale).snapshot() for scale in (1, 2, 3)]

        def fold(order):
            registry = MetricsRegistry()
            for part in order:
                registry.merge(part)
            return registry.snapshot()

        forward = fold(parts)
        backward = fold(reversed(parts))
        assert forward == backward
        assert forward["c"]["value"] == 60
        assert forward["g"]["value"] == 3
        assert forward["h"]["counts"] == [0, 6, 0]

    def test_merge_unknown_type_raises(self):
        with pytest.raises(TelemetryError, match="unknown metric type"):
            MetricsRegistry().merge({"x": {"type": "bogus", "value": 1}})

    def test_reset_keeps_names_and_edges(self):
        registry = self._sample(3)
        registry.reset()
        snapshot = registry.snapshot()
        assert set(snapshot) == {"c", "g", "h"}
        assert snapshot["c"]["value"] == 0
        assert snapshot["h"]["edges"] == [1, 2]
        assert snapshot["h"]["counts"] == [0, 0, 0]

    def test_global_registry_reset(self):
        global_registry().counter("t").inc()
        assert "t" in global_registry()
        reset_global_metrics()
        assert "t" not in global_registry()
