"""``repro.telemetry.catalog`` matches what cells emit, in both directions.

Cells on every shipped path -- a windowed figure-9 cell, its flit-level
protocol counterpart and a serve cell on each flit core, a faulted cell,
an early-miss cell and a contended multicast workload -- must emit only
keys the catalog covers, with the kind it records. And every catalog
pattern must match a key one of them emits, so a pattern whose emit
site is gone fails here until it is deleted.
"""

import functools
import random

import pytest

from repro.experiments.common import ExperimentConfig
from repro.experiments.runner import CellSpec, reset_memo, run_cells, spec_for
from repro.noc.protocol import FlitLevelCacheProtocol
from repro.stream.engine import stream_spec_for
from repro.telemetry import MetricsRegistry, catalog, reset_global_metrics
from repro.validation.differential import FlitWorkload, PacketSpec, observe

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


def _cell_metrics(spec: CellSpec) -> dict:
    (result,) = run_cells([spec], jobs=1, cache=None)
    return result.metrics


@functools.cache
def _figure9_metrics() -> dict:
    config = ExperimentConfig(measure=150, seed=1)
    return _cell_metrics(
        spec_for("A", "multicast+fast_lru", "art", config, window=64)
    )


@functools.cache
def _protocol_metrics(core: str) -> dict:
    # The figure-9 cell's Multicast Fast-LRU accesses on design A's 16x16
    # mesh, flit by flit on *core*: one hit and one miss.
    protocol = FlitLevelCacheProtocol(core=core)
    protocol.run_hit(4, 3)
    protocol.run_miss(5)
    registry = MetricsRegistry()
    protocol.network.publish_metrics(registry)
    return registry.snapshot()


@functools.cache
def _stream_metrics(core: str) -> dict:
    spec = stream_spec_for("C", "drop-tail", "duo-bursty",
                           seed=0, cycles=900, core=core)
    return spec.execute().metrics


@functools.cache
def _faulted_metrics() -> dict:
    return _cell_metrics(CellSpec(
        design="F", scheme="multicast+fast_lru", benchmark="art",
        measure=150, seed=1, link_fault_rate=0.01,
        transient_fault_rate=0.01, fault_seed=7,
    ))


@functools.cache
def _early_miss_metrics() -> dict:
    return _cell_metrics(CellSpec(
        design="A", scheme="multicast+fast_lru", benchmark="art",
        measure=150, seed=1, early_miss_detection=True,
    ))


@functools.cache
def _contended_multicast_metrics(core: str) -> dict:
    # Multicasts among 5-flit writebacks on a 3x3 mesh: some replications
    # find no free VC and block.
    rng = random.Random(1)
    nodes = [(x, y) for x in range(3) for y in range(3)]
    packets = []
    for i in range(40):
        source = rng.choice(nodes)
        destinations = tuple(n for n in rng.sample(nodes, 4) if n != source)
        packets.append(PacketSpec("miss_notify", source, destinations, i // 2))
        writer, reader = rng.sample(nodes, 2)
        packets.append(PacketSpec("writeback", writer, (reader,), i // 2))
    workload = FlitWorkload("mesh", 3, 3, packets=tuple(packets))
    return observe(workload.run(core))["metrics"]


def test_figure9_cell_keys_are_cataloged():
    _assert_covered(_figure9_metrics())


@pytest.mark.parametrize("core", CORES)
def test_flit_protocol_keys_are_cataloged(core):
    _assert_covered(_protocol_metrics(core))


@pytest.mark.parametrize("core", CORES)
def test_stream_cell_keys_are_cataloged(core):
    _assert_covered(_stream_metrics(core))


def test_faulted_and_early_miss_cell_keys_are_cataloged():
    _assert_covered(_faulted_metrics())
    _assert_covered(_early_miss_metrics())


@pytest.mark.parametrize("core", CORES)
def test_contended_multicast_keys_are_cataloged(core):
    _assert_covered(_contended_multicast_metrics(core))


def test_every_pattern_matches_an_emitted_key():
    emitted = set(_figure9_metrics())
    emitted |= set(_faulted_metrics()) | set(_early_miss_metrics())
    for core in CORES:
        emitted |= set(_protocol_metrics(core)) | set(_stream_metrics(core))
        emitted |= set(_contended_multicast_metrics(core))
    assert catalog.unused_patterns(emitted) == []


def test_wildcards_span_structured_fragments():
    # Port names contain dots and arrows; the wildcard regex must span
    # them, not stop at the first separator.
    assert catalog.covers("noc.link.flits.mem(0,0)->bank(1,2)") is not None
