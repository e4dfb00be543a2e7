"""Hierarchical metrics registry: counters, gauges, and fixed-bucket
histograms.

Every layer of the simulator (``noc.router``, ``noc.network``,
``cache.bankset``, ``stream.series``, ...) publishes into a
:class:`MetricsRegistry` under dot-separated hierarchical names. The
registry is deliberately boring so that it can be deterministic:

* **counters** are monotone integers (merge = sum);
* **gauges** are high-water marks (merge = max);
* **histograms** use *fixed bucket edges supplied at registration* --
  never data-dependent edges -- so two runs of the same workload always
  produce bucket-for-bucket comparable (and mergeable) series.

A registry serializes to a plain JSON-able :meth:`MetricsRegistry.snapshot`
dict with sorted keys; snapshots from different processes (the ``--jobs``
worker pool) merge associatively and commutatively, which is what makes
serial and parallel sweeps produce identical merged metrics.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, cast

from repro.errors import TelemetryError

#: A serialized metric: the plain JSON-able dict :meth:`snapshot` emits.
Snapshot = dict[str, Any]


class Counter:
    """A monotone event count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def set(self, value: int) -> None:
        """Publish an absolute count kept elsewhere (end-of-run exports)."""
        self.value = value

    def snapshot(self) -> Snapshot:
        return {"type": "counter", "value": self.value}

    def merge(self, other: Snapshot) -> None:
        self.value += other["value"]

    def reset(self) -> None:
        self.value = 0


class Gauge:
    """A high-water mark (merge keeps the maximum)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def update_max(self, value: float) -> None:
        if value > self.value:
            self.value = value

    def snapshot(self) -> Snapshot:
        return {"type": "gauge", "value": self.value}

    def merge(self, other: Snapshot) -> None:
        if other["value"] > self.value:
            self.value = other["value"]

    def reset(self) -> None:
        self.value = 0


class Histogram:
    """A fixed-edge histogram.

    ``edges`` are the *upper* bounds of the first ``len(edges)`` buckets;
    one overflow bucket catches everything above the last edge. Edges are
    part of the metric's identity: registering or merging the same name
    with different edges raises :class:`TelemetryError` instead of
    silently resampling, so series stay comparable across runs and code
    versions.
    """

    __slots__ = ("edges", "counts", "total", "count")

    def __init__(self, edges: tuple[float, ...]) -> None:
        if not edges or list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise TelemetryError(
                f"histogram edges must be strictly increasing, got {edges!r}"
            )
        self.edges = tuple(edges)
        self.counts = [0] * (len(edges) + 1)
        self.total: float = 0
        self.count = 0

    def record(self, value: float) -> None:
        # The first bucket whose upper edge is >= value; past the last
        # edge, the overflow bucket.
        self.counts[bisect_left(self.edges, value)] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Snapshot:
        return {
            "type": "histogram",
            "edges": list(self.edges),
            "counts": list(self.counts),
            "total": self.total,
            "count": self.count,
        }

    def merge(self, other: Snapshot) -> None:
        if tuple(other["edges"]) != self.edges:
            raise TelemetryError(
                f"cannot merge histograms with different edges: "
                f"{self.edges} vs {tuple(other['edges'])}"
            )
        for i, count in enumerate(other["counts"]):
            self.counts[i] += count
        self.total += other["total"]
        self.count += other["count"]

    def reset(self) -> None:
        self.counts = [0] * (len(self.edges) + 1)
        self.total = 0
        self.count = 0

    def quantile(self, q: float) -> float:
        """Upper-edge estimate of the ``q`` quantile (see
        :func:`quantiles_from_counts`)."""
        return quantiles_from_counts(self.edges, self.counts, (q,))[
            _quantile_key(q)
        ]


def _quantile_key(q: float) -> str:
    """``0.95`` -> ``"p95"``; ``0.5`` -> ``"p50"``."""
    scaled = q * 100
    if scaled == int(scaled):
        return f"p{int(scaled)}"
    return f"p{scaled:g}".replace(".", "_")


def quantiles_from_counts(
    edges: tuple[float, ...] | list[float],
    counts: list[int],
    qs: tuple[float, ...] = (0.5, 0.95, 0.99),
) -> dict[str, float]:
    """Mergeable streaming quantiles from fixed-edge bucket counts.

    Returns the smallest bucket upper edge whose cumulative count reaches
    ``q * total`` -- a conservative (upper-bound) estimate that is exact
    under merging because bucket counts sum exactly. Values landing in the
    overflow bucket report the last edge. An empty histogram reports 0.
    """
    total = sum(counts)
    out: dict[str, float] = {}
    for q in qs:
        key = _quantile_key(q)
        if total == 0:
            out[key] = 0.0
            continue
        target = q * total
        cumulative = 0
        value = float(edges[-1])
        for i, count in enumerate(counts):
            cumulative += count
            if cumulative >= target:
                value = float(edges[min(i, len(edges) - 1)])
                break
        out[key] = value
    return out


#: Aggregations a :class:`Series` supports per window.
SERIES_AGGS = ("sum", "max", "hist")


class Series:
    """A windowed time series keyed by *sim-cycle* windows.

    Samples are bucketed into fixed windows of ``window`` sim-cycles:
    sample at cycle ``c`` lands in window ``c // window``. Aggregation
    within a window is ``sum`` (counter-like), ``max`` (gauge-like), or
    ``hist`` (fixed-edge bucket counts per window, for rolling
    p50/p95/p99). All three merge associatively and commutatively --
    windows are combined index-wise with the scalar merge rule -- so
    serial, ``--jobs N``, and cache-replay sweeps produce byte-identical
    merged series. ``window``, ``agg``, and (for ``hist``) ``edges`` are
    part of the metric's identity, like histogram edges.

    Windows must be keyed by sim-cycles, never wall-clock: a host-clock
    stamp breaks the determinism triangle's ``--jobs 2`` leg, which
    recomputes every cell.
    """

    __slots__ = ("window", "agg", "edges", "windows")

    def __init__(
        self,
        window: int,
        agg: str = "sum",
        edges: tuple[float, ...] | None = None,
    ) -> None:
        if not isinstance(window, int) or window < 1:
            raise TelemetryError(
                f"series window must be a positive int, got {window!r}"
            )
        if agg not in SERIES_AGGS:
            raise TelemetryError(
                f"series agg must be one of {SERIES_AGGS}, got {agg!r}"
            )
        if (edges is not None) != (agg == "hist"):
            raise TelemetryError(
                "series edges are required for agg='hist' and forbidden "
                f"otherwise (agg={agg!r}, edges={edges!r})"
            )
        if edges is not None and (
            not edges
            or list(edges) != sorted(edges)
            or len(set(edges)) != len(edges)
        ):
            raise TelemetryError(
                f"series edges must be strictly increasing, got {edges!r}"
            )
        self.window = window
        self.agg = agg
        self.edges = tuple(edges) if edges is not None else None
        # window index -> float (sum/max) or bucket-count list (hist)
        self.windows: dict[int, Any] = {}

    def record(self, cycle: int, value: float = 1) -> None:
        index = cycle // self.window
        windows = self.windows
        if self.agg == "hist":
            edges = self.edges
            assert edges is not None
            counts = windows.get(index)
            if counts is None:
                counts = windows[index] = [0] * (len(edges) + 1)
            counts[bisect_left(edges, value)] += 1
        elif self.agg == "sum":
            windows[index] = windows.get(index, 0) + value
        else:  # max
            current = windows.get(index)
            if current is None or value > current:
                windows[index] = value

    def window_quantiles(
        self, qs: tuple[float, ...] = (0.5, 0.95, 0.99)
    ) -> list[tuple[int, dict[str, float]]]:
        """Per-window quantiles for a ``hist`` series, sorted by index."""
        if self.agg != "hist":
            raise TelemetryError(
                f"window_quantiles requires agg='hist', not {self.agg!r}"
            )
        assert self.edges is not None
        return [
            (index, quantiles_from_counts(self.edges, self.windows[index], qs))
            for index in sorted(self.windows)
        ]

    def snapshot(self) -> Snapshot:
        snap: Snapshot = {
            "type": "series",
            "window": self.window,
            "agg": self.agg,
            "windows": [
                [index, self.windows[index]] for index in sorted(self.windows)
            ],
        }
        if self.edges is not None:
            snap["edges"] = list(self.edges)
        return snap

    def _check_identity(
        self, window: int, agg: str, edges: tuple[float, ...] | None
    ) -> None:
        if (
            window != self.window
            or agg != self.agg
            or (tuple(edges) if edges is not None else None) != self.edges
        ):
            raise TelemetryError(
                "series identity mismatch: registered "
                f"(window={self.window}, agg={self.agg!r}, "
                f"edges={self.edges}), requested "
                f"(window={window}, agg={agg!r}, edges={edges})"
            )

    def merge(self, other: Snapshot) -> None:
        self._check_identity(
            other["window"],
            other["agg"],
            tuple(other["edges"]) if "edges" in other else None,
        )
        windows = self.windows
        if self.agg == "hist":
            width = len(cast(tuple[float, ...], self.edges)) + 1
            for index, counts in other["windows"]:
                mine = windows.get(index)
                if mine is None:
                    mine = windows[index] = [0] * width
                for i, count in enumerate(counts):
                    mine[i] += count
        elif self.agg == "sum":
            for index, value in other["windows"]:
                windows[index] = windows.get(index, 0) + value
        else:  # max
            for index, value in other["windows"]:
                current = windows.get(index)
                if current is None or value > current:
                    windows[index] = value

    def reset(self) -> None:
        self.windows.clear()


#: Any concrete metric a registry can hold.
Metric = Counter | Gauge | Histogram | Series


class MetricsRegistry:
    """A named collection of metrics, hierarchical by dot-separated name."""

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def _get(
        self,
        name: str,
        kind: type[Metric],
        factory: Callable[[], Metric],
    ) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif type(metric) is not kind:
            raise TelemetryError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return cast(Counter, self._get(name, Counter, Counter))

    def gauge(self, name: str) -> Gauge:
        return cast(Gauge, self._get(name, Gauge, Gauge))

    def histogram(self, name: str, edges: tuple[float, ...]) -> Histogram:
        histogram = cast(
            Histogram, self._get(name, Histogram, lambda: Histogram(edges))
        )
        if histogram.edges != tuple(edges):
            raise TelemetryError(
                f"histogram {name!r} already registered with edges "
                f"{histogram.edges}, requested {tuple(edges)}"
            )
        return histogram

    def series(
        self,
        name: str,
        window: int,
        agg: str = "sum",
        edges: tuple[float, ...] | None = None,
    ) -> Series:
        series = cast(
            Series,
            self._get(name, Series, lambda: Series(window, agg, edges)),
        )
        series._check_identity(window, agg, edges)
        return series

    # -- serialization and merging ---------------------------------------

    def snapshot(self) -> dict[str, Snapshot]:
        """Plain JSON-able dict of every metric, keys sorted."""
        return {
            name: self._metrics[name].snapshot()
            for name in sorted(self._metrics)
        }

    def merge(self, snapshot: dict[str, Snapshot] | None) -> None:
        """Fold a :meth:`snapshot` dict into this registry.

        Merging is associative and commutative (counters sum, gauges max,
        histograms add bucket-wise), so any grouping of per-cell snapshots
        -- serial, ``--jobs N``, or cache replay -- yields the same merged
        registry.
        """
        if not snapshot:
            return
        makers = {"counter": self.counter, "gauge": self.gauge}
        for name in sorted(snapshot):
            entry = snapshot[name]
            kind = entry["type"]
            if kind == "histogram":
                metric = self.histogram(name, tuple(entry["edges"]))
            elif kind == "series":
                metric = self.series(
                    name,
                    entry["window"],
                    entry["agg"],
                    tuple(entry["edges"]) if "edges" in entry else None,
                )
            else:
                try:
                    metric = makers[kind](name)
                except KeyError:
                    raise TelemetryError(
                        f"unknown metric type {kind!r} for {name!r}"
                    ) from None
            metric.merge(entry)

    def reset(self) -> None:
        """Zero every metric, keeping names and histogram edges."""
        for metric in self._metrics.values():
            metric.reset()

    def clear(self) -> None:
        """Forget every metric."""
        self._metrics.clear()


#: Fixed bucket edges for the per-access eviction-chain depth histogram
#: (in banks moved). Fixed here -- not derived from data -- so the series
#: diffs cleanly across runs and merges across processes (DESIGN.md §9).
CHAIN_DEPTH_EDGES = (0, 1, 2, 3, 4, 6, 8, 12, 16)

#: Fixed bucket edges for queueing/blocked-cycle histograms.
WAIT_CYCLE_EDGES = (0, 1, 2, 4, 8, 16, 32, 64, 128)

#: Fixed bucket edges for fault recovery-latency histograms (extra cycles
#: a message spent in timeout + backoff + retransmission before arriving).
RECOVERY_LATENCY_EDGES = (0, 16, 32, 64, 128, 256, 512, 1024, 2048)

#: Fixed bucket edges for rolling transaction-latency SLO series
#: (p50/p95/p99 per window). Spans protocol-paced hits (~tens of cycles)
#: through saturated chained misses; fixed so windows merge bucket-wise.
LATENCY_SLO_EDGES = (
    16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536,
    2048, 3072,
)

#: Fixed bucket edges for per-transaction latency-breakdown leg
#: histograms (injection-queueing / serialization / hop-traversal /
#: bank-service / memory cycles).
SPAN_CYCLE_EDGES = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


_global = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide registry that batch runs merge into."""
    return _global


def reset_global_metrics() -> None:
    """Forget every process-wide metric (tests; fresh CLI invocations)."""
    _global.clear()
