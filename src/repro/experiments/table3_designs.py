"""Table 3: the six evaluated network designs, with structural checks.

Echoes each design's network and bank organization and verifies the
invariants the paper relies on: identical 16 MB capacity, identical 16-way
associativity per bank set, and the expected topology families.
"""

from __future__ import annotations

from repro.core.designs import DESIGN_NAMES, design_spec
from repro.experiments.report import format_table
from repro.noc.topology import HaloTopology, SimplifiedMeshTopology


def run() -> list[dict]:
    rows = []
    for key in DESIGN_NAMES:
        spec = design_spec(key)
        geometry = spec.build()
        topology = geometry.topology
        associativity = sum(
            descriptor.ways for descriptor in geometry.columns[0]
        )
        rows.append(
            {
                "design": key,
                "network": spec.network,
                "banks": f"{len(spec.bank_capacities)} x "
                + "/".join(f"{c // 1024}KB" for c in sorted(set(spec.bank_capacities))),
                "capacity_mb": spec.total_capacity / (1024 * 1024),
                "associativity": associativity,
                "nodes": topology.num_nodes,
                "links": topology.num_links,
                "halo": isinstance(topology, HaloTopology),
                "simplified": isinstance(topology, SimplifiedMeshTopology),
                "memory_pin_delay": geometry.memory_pin_delay,
            }
        )
    return rows


def render(rows: list[dict]) -> str:
    return format_table(
        [
            "design",
            "network",
            "bank organization",
            "MB",
            "assoc",
            "nodes",
            "links",
            "mem pin cyc",
        ],
        [
            (
                r["design"],
                r["network"],
                r["banks"],
                r["capacity_mb"],
                r["associativity"],
                r["nodes"],
                r["links"],
                r["memory_pin_delay"],
            )
            for r in rows
        ],
        title="Table 3: different network designs",
    )
