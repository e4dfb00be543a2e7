"""Technology sensitivity of the halo's advantage.

The halo wins because wires are slow relative to the core and the memory
is far; both are technology parameters. This experiment sweeps them:

* **memory latency** -- with much faster (or slower) off-chip memory, how
  does the Design-F-over-Design-A IPC ratio move? (Slower memory dilutes
  the on-chip advantage for miss-heavy mixes; faster memory amplifies
  the hit-path win.)
* **wire delay** -- scaling the wire delay of every channel by k models
  worse global wires; the halo's short MRU paths should matter
  *more* as wires get worse, which is the paper's underlying bet on
  technology scaling ("increasing wire delays ... lead to various
  technologies to minimize the impact of slow on-chip communication").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import ExperimentConfig, geometric_mean
from repro.experiments.runner import run_cells, spec_for

BENCHMARKS = ("art", "twolf", "mcf")
SCHEME = "multicast+fast_lru"


@dataclass(frozen=True)
class SensitivityPoint:
    parameter: str
    value: float
    ipc_a: float
    ipc_f: float

    @property
    def halo_ratio(self) -> float:
        return self.ipc_f / self.ipc_a


def _sweep(
    config: ExperimentConfig, parameter: str, values: tuple, overrides_of
) -> list[SensitivityPoint]:
    """One engine batch covering every (value, design, benchmark) cell.

    The model override travels inside each :class:`CellSpec`, which
    builds it into the cell's own topology or memory model.
    """
    specs = [
        spec_for(design, SCHEME, benchmark, config, **overrides_of(value))
        for value in values
        for design in ("A", "F")
        for benchmark in BENCHMARKS
    ]
    results = iter(run_cells(specs))
    points = []
    for value in values:
        ipc = {
            design: geometric_mean([next(results).ipc for _ in BENCHMARKS])
            for design in ("A", "F")
        }
        points.append(
            SensitivityPoint(
                parameter=parameter, value=value, ipc_a=ipc["A"], ipc_f=ipc["F"]
            )
        )
    return points


def memory_latency_sweep(
    config: ExperimentConfig | None = None,
    base_latencies: tuple = (60, 130, 300),
) -> list[SensitivityPoint]:
    """Sweep the off-chip base latency (Table 1 uses 130 cycles)."""
    config = config or ExperimentConfig()
    return _sweep(
        config,
        "memory_base_latency",
        base_latencies,
        lambda base: {"memory_base_latency": base},
    )


def wire_delay_sweep(
    config: ExperimentConfig | None = None,
    scales: tuple = (1, 2, 3),
) -> list[SensitivityPoint]:
    """Scale the wire delay of every channel by an integer factor."""
    config = config or ExperimentConfig()
    return _sweep(
        config,
        "wire_delay_scale",
        scales,
        lambda scale: {"wire_delay_scale": scale},
    )


def render(points: list[SensitivityPoint], title: str) -> str:
    lines = [title, "=" * len(title),
             f"{'value':>8} {'IPC A':>8} {'IPC F':>8} {'F / A':>7}"]
    for point in points:
        lines.append(
            f"{point.value:>8.0f} {point.ipc_a:>8.3f} {point.ipc_f:>8.3f} "
            f"{point.halo_ratio:>7.2f}"
        )
    return "\n".join(lines)
