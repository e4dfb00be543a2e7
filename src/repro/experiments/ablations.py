"""Ablations of the design choices DESIGN.md calls out.

Each ablation isolates one mechanism of the proposal and measures its
contribution on a fixed workload mix:

* ``router``      -- single-cycle router vs the classic 5-stage pipeline;
* ``spike_queue`` -- halo spike issue-queue depth (the paper uses 2);
* ``spiral``      -- straight vs spiral spikes, whose longer wires the
                     model takes as twice the wire delay (Design E);
* ``mechanism``   -- the proposal factored: unicast Promotion on the mesh,
                     then + Fast-LRU, + multicast, + the halo (Design F);
* ``sampling``    -- set-sampling sensitivity: the figure shapes must not
                     depend on the sampled index-space size;
* ``issue_model`` -- hide_cycles sensitivity of the blocking-read IPC
                     model (normalized comparisons must be stable).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import ExperimentConfig, geometric_mean
from repro.experiments.runner import run_cells, spec_for

DEFAULT_BENCHMARKS = ("art", "twolf", "mcf")
SCHEME = "multicast+fast_lru"


@dataclass(frozen=True)
class AblationPoint:
    """One configuration in an ablation sweep."""

    label: str
    geomean_ipc: float
    mean_latency: float


def _mix_specs(config: ExperimentConfig, design: str = "A",
               scheme: str = SCHEME, **overrides) -> list:
    """One engine cell per mix benchmark, with the sweep's overrides."""
    return [
        spec_for(design, scheme, benchmark, config, **overrides)
        for benchmark in DEFAULT_BENCHMARKS
    ]


def _points(config: ExperimentConfig, variants) -> list[AblationPoint]:
    """Run every (label, specs) variant through the engine in one batch.

    Handing the engine the flattened cell list lets ``--jobs`` spread the
    whole ablation, not just one variant, over workers.
    """
    all_specs = [spec for _, specs in variants for spec in specs]
    results = iter(run_cells(all_specs))
    points = []
    for label, specs in variants:
        cell_results = [next(results) for _ in specs]
        points.append(
            AblationPoint(
                label,
                geometric_mean([r.ipc for r in cell_results]),
                sum(r.average_latency for r in cell_results) / len(cell_results),
            )
        )
    return points


def router_ablation(config: ExperimentConfig | None = None) -> list[AblationPoint]:
    """Single-cycle vs pipelined router, Design A, Multicast Fast-LRU."""
    config = config or ExperimentConfig()
    return _points(config, [
        (label, _mix_specs(config, single_cycle_router=single))
        for label, single in (("single-cycle", True), ("pipelined (5-stage)", False))
    ])


def spike_queue_ablation(
    config: ExperimentConfig | None = None,
    depths: tuple = (1, 2, 4),
) -> list[AblationPoint]:
    """Spike issue-queue depth on Design F."""
    config = config or ExperimentConfig()
    return _points(config, [
        (f"{depth}-entry spike queue",
         _mix_specs(config, design="F", spike_queue_entries=depth))
        for depth in depths
    ])


def spiral_spike_ablation(
    config: ExperimentConfig | None = None,
) -> list[AblationPoint]:
    """Straight vs spiral (curved) spikes on Design E's uniform halo.

    Section 4: curving a spike packs the die better but lengthens its
    wires; we model the spiral as doubling every wire delay of the halo.
    """
    config = config or ExperimentConfig()
    return _points(config, [
        (label, _mix_specs(config, design="E", wire_delay_scale=scale))
        for label, scale in (("straight spikes", 1), ("spiral spikes (2x wire)", 2))
    ])


def mechanism_ablation(config: ExperimentConfig | None = None) -> list[AblationPoint]:
    """Factor the proposal: baseline -> +Fast-LRU -> +multicast -> +halo."""
    config = config or ExperimentConfig()
    steps = (
        ("unicast promotion on mesh (baseline)", "A", "unicast+promotion"),
        ("+ Fast-LRU", "A", "unicast+fast_lru"),
        ("+ multicast", "A", "multicast+fast_lru"),
        ("+ halo (Design F)", "F", "multicast+fast_lru"),
    )
    return _points(config, [
        (label, _mix_specs(config, design=design, scheme=scheme))
        for label, design, scheme in steps
    ])


def _halo_ratios(config: ExperimentConfig, values, overrides_of) -> dict:
    """Design F over Design A geomean-IPC ratio per swept value."""
    variants = []
    for value in values:
        for design in ("A", "F"):
            variants.append(
                ((value, design),
                 _mix_specs(config, design=design, **overrides_of(value)))
            )
    points = dict(zip((key for key, _ in variants),
                      _points(config, variants)))
    return {
        value: points[(value, "F")].geomean_ipc / points[(value, "A")].geomean_ipc
        for value in values
    }


def sampling_ablation(
    config: ExperimentConfig | None = None,
    index_spaces: tuple = (4, 8, 16),
) -> dict[int, float]:
    """Halo-vs-mesh IPC ratio across set-sampling factors.

    The ratio (Design F / Design A, same scheme) is the quantity Fig. 9
    reports; it must be stable under the sampling choice.
    """
    config = config or ExperimentConfig()
    return _halo_ratios(config, index_spaces, lambda v: {"index_space": v})


def issue_model_ablation(
    config: ExperimentConfig | None = None,
    hide_values: tuple = (0, 10, 20),
) -> dict[int, float]:
    """Halo-vs-mesh IPC ratio across the IPC model's hide_cycles knob."""
    config = config or ExperimentConfig()
    return _halo_ratios(config, hide_values, lambda v: {"hide_cycles": v})


def render(points: list[AblationPoint], title: str) -> str:
    lines = [title, "=" * len(title)]
    base = points[0].geomean_ipc
    for point in points:
        lines.append(
            f"  {point.label:38s} IPC {point.geomean_ipc:.3f} "
            f"({point.geomean_ipc / base - 1:+.1%} vs first)  "
            f"lat {point.mean_latency:.1f}"
        )
    return "\n".join(lines)
