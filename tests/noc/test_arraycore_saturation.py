"""Saturation-grade cross-core parity: the regime the paper's figures live in.

The paper's headline results (figures 9-11) sit at and beyond the
saturation knee, where short equivalence sweeps barely tread. These
tests drive the object core and the array core through long-horizon
(>= 20k cycle) workloads at injection rates straddling the knee on
mesh / simplified-mesh / halo fabrics, and assert *byte* equality of
flit traces and windowed metric snapshots, not just digest equality.

Long runs are slow-marked; each fabric also gets a short tier-1 smoke
variant with the same structure so every CI run exercises the harness.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import tempfile

import pytest

from repro.noc import (
    HaloTopology,
    MeshTopology,
    MessageType,
    Network,
    Packet,
    SimplifiedMeshTopology,
)
import repro.noc.packet as packet_mod
from repro.noc.arraycore import ArrayNetwork
from repro.telemetry import MetricsRegistry
from repro.telemetry.trace import JsonlTraceSink
from repro.validation.fuzzer import _core_digest

#: Simulation cores under comparison; the object core is the reference.
CORE_CLASSES = {"object": Network, "array": ArrayNetwork}


def _inject_all(net, packets):
    for message, source, destinations, at_cycle in packets:
        net.schedule_injection(
            Packet(message, source, destinations), at_cycle=at_cycle
        )


def _parity_run(make_topology, packets, window=256, max_cycles=400_000):
    """Run every core; return {core: (digest, snapshot_bytes, cycles)}."""
    results = {}
    for core, cls in CORE_CLASSES.items():
        net = cls(make_topology(), window=window)
        _inject_all(net, packets)
        cycles = net.run_until_drained(max_cycles=max_cycles)
        registry = MetricsRegistry()
        net.publish_metrics(registry)
        snapshot = json.dumps(
            registry.snapshot(), sort_keys=True, default=str
        ).encode()
        results[core] = (_core_digest(net), snapshot, cycles)
    return results


def _assert_parity(results):
    reference = results["object"]
    for core, got in results.items():
        assert got[0] == reference[0], f"digest mismatch: {core}"
        assert got[1] == reference[1], f"snapshot mismatch: {core}"
        assert got[2] == reference[2], f"cycle count mismatch: {core}"


def _trace_bytes(core, make_topology, packets, max_cycles=400_000):
    """Run one core with a JSONL flit trace; return the trace bytes.

    Packet ids feed the trace, so the process-global id counter is reset
    before each run -- identical workloads then produce byte-identical
    traces if and only if the cores are bit-equivalent.
    """
    packet_mod._packet_ids = itertools.count()
    fd, path = tempfile.mkstemp(suffix=".jsonl")
    os.close(fd)
    try:
        net = CORE_CLASSES[core](make_topology())
        sink = JsonlTraceSink(path)
        net.set_trace_sink(sink)
        _inject_all(net, packets)
        net.run_until_drained(max_cycles=max_cycles)
        sink.close()
        with open(path, "rb") as handle:
            return handle.read()
    finally:
        os.unlink(path)


# -- workloads ----------------------------------------------------------


def _mesh_stream(seed, count, spacing, hotspot=0.0):
    """Uniform-random mesh traffic, optionally biased toward one corner.

    ``hotspot`` is the fraction of packets aimed at (0, 0): tree
    contention toward a single ejection port drives the fabric past its
    saturation knee even at one packet per cycle.
    """
    nodes = [(x, y) for x in range(4) for y in range(4)]
    rng = random.Random(seed)
    stream = []
    for i in range(count):
        source = rng.choice(nodes)
        if rng.random() < hotspot:
            destination = (0, 0) if source != (0, 0) else (3, 3)
        else:
            destination = rng.choice([n for n in nodes if n != source])
        message = rng.choice(
            (MessageType.READ_REQUEST, MessageType.REPLACEMENT)
        )
        stream.append((message, source, (destination,), i * spacing))
    return stream


def _simplified_stream(seed, count, spacing):
    """Column multicasts mixed with spine unicasts on the simplified mesh."""
    rng = random.Random(seed)
    stream = []
    for i in range(count):
        x = rng.randrange(4)
        if rng.random() < 0.7:
            column = tuple((x, y) for y in range(4))
            stream.append(
                (MessageType.READ_REQUEST, (x, 0), column, i * spacing)
            )
        else:
            other = rng.choice([c for c in range(4) if c != x])
            stream.append(
                (MessageType.REPLACEMENT, (x, 0), ((other, 0),), i * spacing)
            )
    return stream


def _halo_stream(seed, count, spacing):
    """Hub-to-spike multicasts over unicast background on the halo."""
    topology = HaloTopology(4, 4)
    nodes = sorted(topology.nodes, key=str)
    spikes = [n for n in nodes if n[0] == "spike"]
    rng = random.Random(seed)
    stream = []
    for i in range(count):
        if rng.random() < 0.5:
            destinations = tuple(rng.sample(spikes, 3))
            stream.append(
                (MessageType.MISS_NOTIFY, ("hub",), destinations, i * spacing)
            )
        else:
            source, destination = rng.sample(nodes, 2)
            stream.append(
                (MessageType.READ_REQUEST, source, (destination,),
                 i * spacing)
            )
    return stream


def _saturation_counters(net):
    """(vc allocation failures, credit-stall cycles) of the object core."""
    alloc = sum(r.stats.vc_alloc_failures for r in net.routers.values())
    stalls = sum(
        sum(r.credit_stalls.values()) for r in net.routers.values()
    )
    return alloc, stalls


# -- long-horizon parity (slow tier) ------------------------------------


@pytest.mark.slow
class TestMeshSaturationParity:
    """>= 20k-cycle mesh sweeps at rates straddling the saturation knee."""

    @pytest.mark.parametrize(
        "label, spacing, hotspot, count",
        [
            ("above_knee", 1, 0.35, 20_000),
            ("at_knee", 1, 0.0, 20_000),
            ("below_knee", 3, 0.0, 6_667),
        ],
    )
    def test_mesh_rate_parity(self, label, spacing, hotspot, count):
        packets = _mesh_stream(77, count, spacing, hotspot)
        results = _parity_run(lambda: MeshTopology(4, 4), packets)
        _assert_parity(results)
        assert results["object"][2] >= 20_000

    def test_above_knee_actually_saturates(self):
        # The harness must really straddle the knee: the hotspot load has
        # to show massive VC-allocation backpressure, the below-knee load
        # essentially none.
        evidence = {}
        for label, spacing, hotspot, count in (
            ("above", 1, 0.35, 20_000),
            ("below", 3, 0.0, 6_667),
        ):
            net = Network(MeshTopology(4, 4))
            _inject_all(net, _mesh_stream(77, count, spacing, hotspot))
            net.run_until_drained(max_cycles=400_000)
            evidence[label] = _saturation_counters(net)
        assert evidence["above"][0] > 100_000
        assert evidence["above"][1] > 10_000
        assert evidence["below"][0] == 0


@pytest.mark.slow
class TestMulticastSaturationParity:
    """Long-horizon replication-heavy fabrics: simplified mesh and halo."""

    def test_simplified_mesh_parity(self):
        packets = _simplified_stream(101, count=10_000, spacing=2)
        results = _parity_run(lambda: SimplifiedMeshTopology(4, 4), packets)
        _assert_parity(results)
        assert results["object"][2] >= 20_000

    def test_halo_parity(self):
        packets = _halo_stream(55, count=10_000, spacing=2)
        results = _parity_run(lambda: HaloTopology(4, 4), packets)
        _assert_parity(results)
        assert results["object"][2] >= 20_000


@pytest.mark.slow
class TestSaturatedTraceEquality:
    """Flit traces from a saturated run must match byte for byte."""

    def test_mesh_hotspot_traces_identical(self):
        packets = _mesh_stream(303, count=2_500, spacing=1, hotspot=0.35)
        traces = {
            core: _trace_bytes(core, lambda: MeshTopology(4, 4), packets)
            for core in CORE_CLASSES
        }
        reference = traces["object"]
        assert reference.count(b"\n") > 2_500
        for core, got in traces.items():
            assert got == reference, f"trace mismatch: {core}"


# -- tier-1 smoke (same harness, short horizon) -------------------------


class TestSaturationSmoke:
    """Short variants of the long sweeps that run on every tier-1 pass."""

    def test_mesh_hotspot_smoke(self):
        packets = _mesh_stream(7, count=400, spacing=1, hotspot=0.35)
        results = _parity_run(lambda: MeshTopology(4, 4), packets, window=64)
        _assert_parity(results)

    def test_simplified_smoke(self):
        packets = _simplified_stream(9, count=250, spacing=2)
        results = _parity_run(
            lambda: SimplifiedMeshTopology(4, 4), packets, window=64
        )
        _assert_parity(results)

    def test_halo_smoke(self):
        packets = _halo_stream(11, count=200, spacing=2)
        results = _parity_run(lambda: HaloTopology(4, 4), packets, window=64)
        _assert_parity(results)

    def test_trace_smoke(self):
        packets = _mesh_stream(13, count=150, spacing=1, hotspot=0.35)
        traces = {
            core: _trace_bytes(core, lambda: MeshTopology(4, 4), packets)
            for core in CORE_CLASSES
        }
        reference = traces["object"]
        assert reference.count(b"\n") > 150
        for core, got in traces.items():
            assert got == reference, f"trace mismatch: {core}"
