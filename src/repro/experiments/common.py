"""Shared experiment infrastructure: configs, batch runs, summaries."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.system import RunResult
from repro.workloads.profiles import BENCHMARKS

#: Table-2 benchmark names in the paper's order.
BENCHMARK_NAMES = tuple(profile.name for profile in BENCHMARKS)


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all figure/table drivers.

    The defaults match the calibration documented in DESIGN.md; tests use
    smaller ``measure`` values for speed. Results are deterministic given
    a config.
    """

    measure: int = 10_000
    seed: int = 1
    benchmarks: tuple = BENCHMARK_NAMES
    #: Windowed-telemetry sample window in sim-cycles (0 = off); recorded
    #: on every CellSpec so windowed runs never share cache entries with
    #: unwindowed ones.
    window: int = 0

    def scaled(self, measure: int) -> "ExperimentConfig":
        """Same config at a different measurement length."""
        return ExperimentConfig(
            measure=measure,
            seed=self.seed,
            benchmarks=self.benchmarks,
            window=self.window,
        )


def run_systems(
    cells: list[tuple[str, str, str]],
    config: ExperimentConfig,
) -> dict[tuple[str, str, str], RunResult]:
    """Evaluate a batch of (design, scheme, benchmark) cells at once.

    Runs are deterministic given their arguments. Handing the whole cell
    list to the engine lets it fan independent cells over worker
    processes (``--jobs``), memoize them per process (the figure drivers
    share many cells) and consult the persistent result cache.
    """
    from repro.experiments import runner

    specs = [runner.spec_for(d, s, b, config) for d, s, b in cells]
    return dict(zip(cells, runner.run_cells(specs)))


def geometric_mean(values: list[float]) -> float:
    """Geometric mean (0 if any value is non-positive)."""
    if not values or any(v <= 0 for v in values):
        return 0.0
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


@dataclass
class SchemeSummary:
    """Per-scheme aggregate over all benchmarks (used by Fig. 7/8)."""

    scheme: str
    per_benchmark: dict[str, RunResult] = field(default_factory=dict)

    def mean_latency(self) -> float:
        values = [r.average_latency for r in self.per_benchmark.values()]
        return sum(values) / len(values) if values else 0.0

    def mean_hit_latency(self) -> float:
        values = [r.average_hit_latency for r in self.per_benchmark.values()]
        return sum(values) / len(values) if values else 0.0

    def mean_miss_latency(self) -> float:
        values = [
            r.average_miss_latency
            for r in self.per_benchmark.values()
            if r.latency.miss_count
        ]
        return sum(values) / len(values) if values else 0.0

    def geomean_ipc(self) -> float:
        return geometric_mean([r.ipc for r in self.per_benchmark.values()])
