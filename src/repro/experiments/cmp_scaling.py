"""CMP scaling study (the paper's future-work direction, Section 7).

Multiprogrammed workloads share the networked L2: throughput (sum of
per-core IPC) and average latency as the core count grows, mesh vs halo.
Each (design, core count) point is one
:class:`~repro.experiments.runner.CMPSpec` cell of the experiment engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.runner import CMPSpec, run_cells


@dataclass(frozen=True)
class ScalingPoint:
    design: str
    num_cores: int
    aggregate_ipc: float
    average_latency: float
    fairness: float


def run(
    designs: tuple = ("A", "F"),
    core_counts: tuple = (1, 2, 4),
    measure: int = 1500,
    seed: int = 10,
    window: int = 0,
) -> list[ScalingPoint]:
    specs = [
        CMPSpec(design, num_cores, measure, seed, window=window)
        for design in designs
        for num_cores in core_counts
    ]
    return [
        ScalingPoint(
            design=spec.design,
            num_cores=spec.num_cores,
            aggregate_ipc=result.aggregate_ipc,
            average_latency=result.average_latency,
            fairness=result.fairness,
        )
        for spec, result in zip(specs, run_cells(specs))
    ]


def render(points: list[ScalingPoint]) -> str:
    lines = ["CMP scaling: shared networked L2, multiprogrammed mix",
             f"{'design':>6} {'cores':>5} {'agg IPC':>8} {'avg lat':>8} {'fairness':>9}"]
    for point in points:
        lines.append(
            f"{point.design:>6} {point.num_cores:>5} "
            f"{point.aggregate_ipc:>8.3f} {point.average_latency:>8.1f} "
            f"{point.fairness:>9.2f}"
        )
    return "\n".join(lines)
