"""The static key catalog is a superset of what cells emit at runtime.

One figure-9 experiment cell with its flit-level protocol counterpart,
and one streaming-service cell, on each flit core, must emit only keys
the generated catalog covers, with the kind the catalog recorded. A
failure here means a new emit site dodged the extractor (fix the
extractor) or the catalog is stale (regenerate with
``repro lint --write-catalog``).
"""

import functools

import pytest

from repro.experiments.common import ExperimentConfig
from repro.experiments.runner import reset_memo, run_cells, spec_for
from repro.noc.protocol import FlitLevelCacheProtocol
from repro.stream.engine import execute_stream_cell, stream_spec_for
from repro.telemetry import MetricsRegistry, catalog, reset_global_metrics

CORES = ("object", "array")


@pytest.fixture(autouse=True)
def _fresh_engine():
    reset_memo()
    reset_global_metrics()
    yield
    reset_memo()
    reset_global_metrics()


def _assert_covered(snapshot: dict) -> None:
    assert snapshot, "smoke cell emitted no metrics"
    assert catalog.unknown_keys(snapshot) == []
    mismatched = {
        key: (payload["type"], catalog.covers(key))
        for key, payload in snapshot.items()
        if payload["type"] not in (catalog.covers(key) or ())
    }
    assert mismatched == {}


@functools.cache
def _figure9_cell_metrics() -> dict:
    # The cell runs on the transaction-level model, which has no flit
    # core, so both cases share one run.
    config = ExperimentConfig(measure=150, seed=1)
    spec = spec_for("A", "multicast+fast_lru", "art", config, window=64)
    (result,) = run_cells([spec], jobs=1, cache=None)
    return result.metrics


@pytest.mark.parametrize("core", CORES)
def test_figure9_cell_keys_are_cataloged(core):
    _assert_covered(_figure9_cell_metrics())
    # The same Multicast Fast-LRU accesses on design A's 16x16 mesh, flit
    # by flit on *core*.
    protocol = FlitLevelCacheProtocol(core=core)
    protocol.run_hit(4, 3)
    protocol.run_miss(5)
    registry = MetricsRegistry()
    protocol.network.publish_metrics(registry)
    _assert_covered(registry.snapshot())


@pytest.mark.parametrize("core", CORES)
def test_stream_cell_keys_are_cataloged(core):
    spec = stream_spec_for("C", "drop-tail", "duo-bursty",
                           seed=0, cycles=900, core=core)
    result = execute_stream_cell(spec)
    _assert_covered(result.metrics)


def test_wildcards_span_structured_fragments():
    # Port names contain dots and arrows; the wildcard regex must span
    # them, not stop at the first separator.
    assert catalog.covers("noc.link.flits.mem(0,0)->bank(1,2)") is not None
