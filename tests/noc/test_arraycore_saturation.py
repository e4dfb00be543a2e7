"""Saturation-grade cross-core parity: the regime the paper's figures live in.

The paper's headline results (figures 9-11) sit at and beyond the
saturation knee, where short equivalence sweeps barely tread. These
tests drive the object core and the array core through long-horizon
(>= 20k cycle) workloads at injection rates straddling the knee on
mesh / simplified-mesh / halo fabrics and require
:func:`repro.validation.differential.compare` to find no divergence --
deliveries, drain cycles, and windowed metric snapshots alike -- and
flit traces to match byte for byte.

Long runs are slow-marked; each fabric also gets a short tier-1 smoke
variant with the same structure so every CI run exercises the harness,
and the three reference cells (:func:`cell`) run at small sizes.
"""

from __future__ import annotations

import itertools
import os
import random
import tempfile

import pytest

from repro.noc import HaloTopology
import repro.noc.packet as packet_mod
from repro.noc.network import CORES
from repro.telemetry import trace as trace_mod
from repro.telemetry.trace import JsonlTraceSink
from repro.validation.differential import FlitWorkload, PacketSpec, compare


def _trace_bytes(core, workload):
    """Run one core with a JSONL flit trace; return the trace bytes.

    Packet ids feed the trace, so the process-global id counter is reset
    before each run -- identical workloads then produce byte-identical
    traces if and only if the cores are bit-equivalent.
    """
    packet_mod._packet_ids = itertools.count()
    fd, path = tempfile.mkstemp(suffix=".jsonl")
    os.close(fd)
    try:
        sink = JsonlTraceSink(path)
        previous = trace_mod.set_sink(sink)
        try:
            workload.run(core)
        finally:
            trace_mod.set_sink(previous)
            sink.close()
        with open(path, "rb") as handle:
            return handle.read()
    finally:
        os.unlink(path)


# -- workloads ----------------------------------------------------------


#: Mesh cells: one random unicast every this many cycles on a 16x16 mesh.
_MESH_SPACING = {"protocol_paced": 130, "mesh16_saturated": 2}


def cell(name, packets):
    """The reference cell *name* carrying *packets* packets.

    ``mesh16_saturated`` injects a random unicast every 2 cycles, which
    saturates the mesh (the SoA core's worst case: every cycle busy).
    ``protocol_paced`` spaces the same stream 130 cycles apart, the
    cache-transaction pacing of
    :class:`repro.noc.protocol.FlitLevelCacheProtocol`, where long idle
    gaps between request/response legs dominate and the array core's
    idle fast-forward pays off. ``simplified_multicast`` sends
    spine-to-column multicasts on an 8x6 simplified mesh (Fig. 5(b)
    traffic): every packet starts on the row-0 spine, so it respects the
    legal-traffic enumeration while exercising the hybrid replication
    path on every column router.
    """
    if name == "simplified_multicast":
        cols, rows = 8, 6
        return FlitWorkload("simplified", cols, rows, packets=tuple(
            PacketSpec(
                "read_request",
                (i % cols, 0),
                tuple((i % cols, y) for y in range(rows)),
                i * 4,
            )
            for i in range(packets)
        ))
    rng = random.Random(20070212)
    nodes = [(x, y) for x in range(16) for y in range(16)]
    stream = []
    for i in range(packets):
        source, destination = rng.sample(nodes, 2)
        stream.append(PacketSpec(
            "read_request", source, (destination,), i * _MESH_SPACING[name]
        ))
    return FlitWorkload("mesh", 16, 16, packets=tuple(stream))


def _mesh_workload(seed, count, spacing, hotspot=0.0, window=0):
    """Uniform-random 4x4 mesh traffic, optionally biased toward one corner.

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
        message = rng.choice(("read_request", "replacement"))
        stream.append(PacketSpec(message, source, (destination,), i * spacing))
    return FlitWorkload("mesh", 4, 4, window=window, packets=tuple(stream))


def _simplified_workload(seed, count, spacing, window):
    """Column multicasts mixed with spine unicasts on the simplified mesh."""
    rng = random.Random(seed)
    stream = []
    for i in range(count):
        x = rng.randrange(4)
        if rng.random() < 0.7:
            column = tuple((x, y) for y in range(4))
            stream.append(
                PacketSpec("read_request", (x, 0), column, i * spacing)
            )
        else:
            other = rng.choice([c for c in range(4) if c != x])
            stream.append(
                PacketSpec("replacement", (x, 0), ((other, 0),), i * spacing)
            )
    return FlitWorkload("simplified", 4, 4, window=window, packets=tuple(stream))


def _halo_workload(seed, count, spacing, window):
    """Hub-to-spike multicasts over unicast background on the halo."""
    nodes = sorted(HaloTopology(4, 4).nodes, key=str)
    spikes = [n for n in nodes if n[0] == "spike"]
    rng = random.Random(seed)
    stream = []
    for i in range(count):
        if rng.random() < 0.5:
            destinations = tuple(rng.sample(spikes, 3))
            stream.append(
                PacketSpec("miss_notify", ("hub",), destinations, i * spacing)
            )
        else:
            source, destination = rng.sample(nodes, 2)
            stream.append(
                PacketSpec("read_request", source, (destination,), i * spacing)
            )
    return FlitWorkload("halo", 4, 4, window=window, packets=tuple(stream))


def _saturation_counters(net):
    """(vc allocation failures, credit-stall cycles) of the object core."""
    alloc = sum(r.stats.vc_alloc_failures for r in net.routers.values())
    stalls = sum(
        sum(r.credit_stalls.values()) for r in net.routers.values()
    )
    return alloc, stalls


def _assert_traces_identical(workload, min_lines):
    traces = {core: _trace_bytes(core, workload) for core in CORES}
    reference = traces["object"]
    assert reference.count(b"\n") > min_lines
    for core, got in traces.items():
        assert got == reference, f"trace mismatch: {core}"


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
        workload = _mesh_workload(77, count, spacing, hotspot, window=256)
        assert compare(workload) is None
        assert workload.run("array").stats.cycles >= 20_000

    def test_above_knee_actually_saturates(self):
        # The harness must really straddle the knee: the hotspot load has
        # to show massive VC-allocation backpressure, the below-knee load
        # essentially none.
        evidence = {}
        for label, spacing, hotspot, count in (
            ("above", 1, 0.35, 20_000),
            ("below", 3, 0.0, 6_667),
        ):
            workload = _mesh_workload(77, count, spacing, hotspot)
            evidence[label] = _saturation_counters(workload.run("object"))
        assert evidence["above"][0] > 100_000
        assert evidence["above"][1] > 10_000
        assert evidence["below"][0] == 0


@pytest.mark.slow
class TestMulticastSaturationParity:
    """Long-horizon replication-heavy fabrics: simplified mesh and halo."""

    def test_simplified_mesh_parity(self):
        workload = _simplified_workload(101, count=10_000, spacing=2, window=256)
        assert compare(workload) is None
        assert workload.run("array").stats.cycles >= 20_000

    def test_halo_parity(self):
        workload = _halo_workload(55, count=10_000, spacing=2, window=256)
        assert compare(workload) is None
        assert workload.run("array").stats.cycles >= 20_000


@pytest.mark.slow
class TestSaturatedTraceEquality:
    """Flit traces from a saturated run must match byte for byte."""

    def test_mesh_hotspot_traces_identical(self):
        _assert_traces_identical(
            _mesh_workload(303, count=2_500, spacing=1, hotspot=0.35), 2_500
        )


# -- tier-1 smoke (same harness, short horizon) -------------------------


class TestSaturationSmoke:
    """Short variants of the long sweeps that run on every tier-1 pass."""

    def test_mesh_hotspot_smoke(self):
        workload = _mesh_workload(7, count=400, spacing=1, hotspot=0.35, window=64)
        assert compare(workload) is None

    def test_simplified_smoke(self):
        workload = _simplified_workload(9, count=250, spacing=2, window=64)
        assert compare(workload) is None

    def test_halo_smoke(self):
        workload = _halo_workload(11, count=200, spacing=2, window=64)
        assert compare(workload) is None

    def test_trace_smoke(self):
        _assert_traces_identical(
            _mesh_workload(13, count=150, spacing=1, hotspot=0.35), 150
        )


class TestBenchCells:
    """The three reference cells at small sizes."""

    @pytest.mark.parametrize(
        "name, packets",
        [
            ("protocol_paced", 20),
            ("mesh16_saturated", 120),
            ("simplified_multicast", 40),
        ],
    )
    def test_bench_cell_agrees(self, name, packets):
        assert compare(cell(name, packets)) is None
