"""Overload sweep: offered load x admission policy through the engine.

The streaming analogue of the fault campaigns: a grid of
:class:`~repro.stream.engine.StreamSpec` cells (every combination of
offered-load multiplier and admission policy on one design/mix) is
evaluated through :func:`~repro.experiments.runner.run_cells` -- so the
sweep dedups, memoizes, caches persistently, and fans out over worker
processes exactly like the figure drivers, and its merged telemetry is
bit-identical serial vs ``--jobs N`` vs warm cache replay.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.stream.engine import StreamResult, StreamSpec
from repro.stream.service import ADMISSION_POLICIES

#: Default offered-load multipliers: below the knee, near it, and past it.
DEFAULT_LOADS = (0.5, 1.0, 2.0, 4.0)


def sweep_specs(
    base: StreamSpec,
    loads: Sequence[float] = DEFAULT_LOADS,
    policies: Sequence[str] = ADMISSION_POLICIES,
) -> list[StreamSpec]:
    """The sweep's cells in deterministic (policy-major) order: *base*
    with each admission policy and offered-load multiplier."""
    return [
        dataclasses.replace(base, scheme=policy, load=load)
        for policy in policies
        for load in loads
    ]


def render(
    specs: Sequence[StreamSpec], results: Sequence[StreamResult]
) -> str:
    """ASCII overload table: one row per (policy, load) cell."""
    base = specs[0]
    header = (
        f"Overload sweep: design {base.design}, mix {base.benchmark}, "
        f"{base.cycles} cycles, seed {base.seed}\n"
    )
    columns = (
        f"{'policy':<14} {'load':>5} {'offered':>8} {'admit%':>7} "
        f"{'reject%':>8} {'goodput/kcyc':>13} {'p50':>6} {'p95':>6} "
        f"{'p99':>6}"
    )
    lines = [header, columns, "-" * len(columns)]
    for spec, result in zip(specs, results):
        lines.append(
            f"{spec.scheme:<14} {spec.load:>5.2f} {result.offered:>8} "
            f"{result.availability * 100:>6.1f}% "
            f"{result.rejection_rate * 100:>7.1f}% "
            f"{result.goodput_per_kcycle:>13.2f} "
            f"{result.quantiles['p50']:>6.0f} "
            f"{result.quantiles['p95']:>6.0f} "
            f"{result.quantiles['p99']:>6.0f}"
        )
    return "\n".join(lines)
