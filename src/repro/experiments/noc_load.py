"""Load-latency characterization of the flit-level network.

The classic NoC evaluation the paper's router section implies: uniform
random traffic at increasing injection rates, measuring average packet
latency until saturation. Exercises the single-cycle multicast router
under real contention (VC backpressure, switch conflicts, credit stalls).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.noc import MeshTopology, MessageType, Packet, make_network


@dataclass(frozen=True)
class LoadPoint:
    injection_rate: float  # packets per node per cycle
    offered: int
    delivered: int
    average_latency: float
    max_latency: int


#: Cycles a load point may take to drain on top of 50 per injection cycle.
DRAIN_CYCLES = 4000


def offer_uniform_load(
    network: Any, injection_rate: float, cycles: int, seed: int
) -> int:
    """Offer uniform random traffic to *network* for *cycles* cycles.

    Every cycle, each node sends a 1-flit read request with probability
    *injection_rate* to a uniformly drawn node (drawing itself sends
    nothing); then the network steps. Returns the packets offered and
    leaves the drain to the caller.
    """
    rng = random.Random(seed)
    nodes = sorted(network.topology.nodes)
    offered = 0
    for _ in range(cycles):
        for node in nodes:
            if rng.random() < injection_rate:
                destination = rng.choice(nodes)
                if destination == node:
                    continue
                network.inject(
                    Packet(
                        MessageType.READ_REQUEST,
                        source=node,
                        destinations=(destination,),
                    )
                )
                offered += 1
        network.step()
    return offered


def run_load_point(
    injection_rate: float,
    mesh_size: int = 8,
    cycles: int = 600,
    seed: int = 1,
    core: str | None = None,
) -> LoadPoint:
    """Uniform random traffic at *injection_rate* for *cycles* cycles."""
    network = make_network(MeshTopology(mesh_size, mesh_size), core=core)
    offered = offer_uniform_load(network, injection_rate, cycles, seed)
    network.run_until_drained(max_cycles=DRAIN_CYCLES + cycles * 50)
    stats = network.stats
    return LoadPoint(
        injection_rate=injection_rate,
        offered=offered,
        delivered=stats.packets_delivered,
        average_latency=stats.average_latency,
        max_latency=stats.max_latency,
    )


def run(
    rates: tuple = (0.02, 0.15, 0.30, 0.50),
    mesh_size: int = 8,
    cycles: int = 400,
    seed: int = 1,
) -> list[LoadPoint]:
    return [
        run_load_point(rate, mesh_size=mesh_size, cycles=cycles, seed=seed)
        for rate in rates
    ]


def render(points: list[LoadPoint]) -> str:
    from repro.experiments.charts import sparkline

    lines = ["NoC load-latency curve (8x8 mesh, uniform random, 1-flit packets)",
             f"latency trend: [{sparkline(p.average_latency for p in points)}]"]
    for point in points:
        lines.append(
            f"  rate {point.injection_rate:5.3f} pkt/node/cyc: "
            f"avg {point.average_latency:7.1f} cyc, "
            f"max {point.max_latency:5d} cyc "
            f"({point.delivered} delivered)"
        )
    return "\n".join(lines)
