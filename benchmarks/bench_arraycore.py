"""Array-core benchmark: SoA wormhole core vs the object reference core.

Standalone (not collected by pytest)::

    PYTHONPATH=src python benchmarks/bench_arraycore.py [--packets N]

Runs the three :func:`cell` workloads through the object-model
``Network`` and the struct-of-arrays ``ArrayNetwork``
(``repro.noc.arraycore``) under
:func:`repro.validation.differential.compare`, which must find the two
cores bit-identical, then reports the per-cell speedup plus a per-phase
wall-time attribution from ``repro.perf.profiler`` (arrivals / inject /
replication / switch) for both cores. Human-readable output goes to
``benchmarks/out/arraycore.txt`` and the machine-readable ``array_core``
section is merged into ``BENCH_runtime.json`` at the repo root. The
tier-1 parity suite (``tests/noc/test_arraycore_saturation.py``) runs
the same cells at small sizes.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.perf import profiler
from repro.validation.differential import FlitWorkload, PacketSpec, compare

ROOT = pathlib.Path(__file__).resolve().parents[1]
OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"

#: Mesh cells: one random unicast every this many cycles on a 16x16 mesh.
_MESH_SPACING = {"protocol_paced": 130, "mesh16_saturated": 2}


def cell(name: str, packets: int) -> FlitWorkload:
    """The bench cell *name* carrying *packets* packets.

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


class _TimedRuns:
    """A workload whose ``run(core)`` times the drain alone.

    Construction and scheduling stay outside the timer, so the speedup
    table compares the cycle loops; ``compare`` drives the timed runs.
    """

    def __init__(self, workload: FlitWorkload) -> None:
        self.workload = workload
        self.seconds: dict[str, float] = {}
        self.stats: dict = {}

    def run(self, core: str):
        network = self.workload.build(core)
        t0 = time.perf_counter()
        network.run_until_drained(max_cycles=self.workload.drain_cycles)
        self.seconds[core] = time.perf_counter() - t0
        self.stats[core] = network.stats
        return network

    def __repr__(self) -> str:
        return repr(self.workload)


def _phases(workload: FlitWorkload, core: str) -> dict:
    """Per-phase seconds of a profiled rerun (the timed run stays bare)."""
    network = workload.build(core)
    profile = profiler.attach(network, core=core)
    network.run_until_drained(max_cycles=workload.drain_cycles)
    profiler.detach(network)
    return {
        phase: round(profile.seconds[phase], 4) for phase in profiler.PHASES
    }


def _bench_cell(name: str, packets: int) -> dict:
    workload = cell(name, packets)
    timed = _TimedRuns(workload)
    divergence = compare(timed)
    if divergence is not None:
        raise SystemExit(f"{name}: {divergence.render()}")
    object_s, array_s = timed.seconds["object"], timed.seconds["array"]
    return {
        "cell": name,
        "packets": packets,
        "cycles": timed.stats["object"].cycles,
        "deliveries": timed.stats["object"].packets_delivered,
        "object_s": round(object_s, 3),
        "array_s": round(array_s, 4),
        "speedup": round(object_s / array_s, 1),
        "phases": {core: _phases(workload, core) for core in timed.seconds},
    }


def bench_array_core(packets: int) -> dict:
    """The reference cells; returns the ``array_core`` payload section."""
    results = [
        _bench_cell("protocol_paced", max(packets // 4, 1)),
        _bench_cell("mesh16_saturated", packets),
        _bench_cell("simplified_multicast", max(packets // 2, 1)),
    ]
    return {
        "packets": packets,
        "cells": results,
        #: Headline number: the transaction-paced cell is how the engine
        #: actually exercises the flit core (sparse protocol legs).
        "per_cell_speedup": results[0]["speedup"],
        "min_speedup": min(cell["speedup"] for cell in results),
        "bit_identical": True,
    }


def render(section: dict) -> str:
    lines = [
        "Array-core benchmark (object vs SoA wormhole core)",
        "==================================================",
        f"{'cell':<22}  {'packets':>7}  {'cycles':>7}  "
        f"{'object':>8}  {'array':>8}  {'speedup':>7}",
    ]
    for cell in section["cells"]:
        lines.append(
            f"{cell['cell']:<22}  {cell['packets']:>7}  {cell['cycles']:>7}  "
            f"{cell['object_s']:>7.3f}s  {cell['array_s']:>7.4f}s  "
            f"x{cell['speedup']:>6.1f}"
        )
    lines.append("")
    lines.append("per-phase wall-time attribution (profiled rerun, seconds):")
    for cell in section["cells"]:
        for core in ("object", "array"):
            phases = cell["phases"][core]
            breakdown = "  ".join(
                f"{phase}={phases[phase]:.4f}" for phase in profiler.PHASES
            )
            lines.append(f"  {cell['cell']:<22} {core:<6} {breakdown}")
    lines.append("")
    lines.append(
        f"bit-identical across cores: {section['bit_identical']}, "
        f"per-cell (protocol-paced) speedup x{section['per_cell_speedup']:.1f}, "
        f"min speedup x{section['min_speedup']:.1f}"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--packets", type=int, default=400,
                        help="unicast packets in the mesh cell (default 400)")
    args = parser.parse_args(argv)

    section = bench_array_core(args.packets)
    text = render(section)
    print(text)

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "arraycore.txt").write_text(text + "\n", encoding="utf-8")

    bench_path = ROOT / "BENCH_runtime.json"
    payload = (
        json.loads(bench_path.read_text()) if bench_path.exists() else {}
    )
    payload["array_core"] = section
    bench_path.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
