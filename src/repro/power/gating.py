"""On-demand bank power gating (the paper's proposed future extension).

Policy: a bank whose idle time exceeds ``idle_threshold`` cycles is put to
sleep (leakage ~eliminated for the gated fraction); the next access pays a
``wake_latency`` penalty and a wake energy.

Rather than re-simulating with per-bank timelines, the policy is
evaluated analytically from each bank's measured access count over the
run, treating inter-access gaps as exponential (memoryless). For mean gap
``mu`` and threshold ``t0``:

* fraction of time gated      = exp(-t0 / mu)
  (each gap contributes its tail beyond t0; for the exponential the
  expected tail mass E[(gap - t0)+] / E[gap] is exactly exp(-t0/mu));
* expected wake-ups           = accesses * exp(-t0 / mu)
  (a gap triggers a wake-up iff it exceeded the threshold).

Banks never accessed during the run are gated the whole time for free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.area.floorplan import FloorPlanner
from repro.core.system import NetworkedCacheSystem, RunResult
from repro.errors import ConfigurationError
from repro.power.params import EnergyParams


@dataclass(frozen=True)
class GatingPolicy:
    """Gate a bank after *idle_threshold* idle cycles."""

    idle_threshold: int = 2_000
    wake_latency: int = 3

    def __post_init__(self) -> None:
        if self.idle_threshold < 0:
            raise ConfigurationError("idle_threshold must be non-negative")
        if self.wake_latency < 0:
            raise ConfigurationError("wake_latency must be non-negative")


@dataclass(frozen=True)
class GatingReport:
    """Outcome of applying a gating policy to one run."""

    policy: GatingPolicy
    leakage_before_pj: float
    leakage_after_pj: float
    wake_energy_pj: float
    wakeups: float
    accesses: int
    gated_fraction: float

    @property
    def leakage_saved_pj(self) -> float:
        return self.leakage_before_pj - self.leakage_after_pj

    @property
    def net_saving_pj(self) -> float:
        return self.leakage_saved_pj - self.wake_energy_pj

    @property
    def average_latency_penalty(self) -> float:
        """Extra cycles per access from wake-ups."""
        if not self.accesses:
            return 0.0
        return self.wakeups * self.policy.wake_latency / self.accesses


def simulate_gating(
    system: NetworkedCacheSystem,
    result: RunResult,
    policy: GatingPolicy | None = None,
    params: EnergyParams | None = None,
    planner: FloorPlanner | None = None,
) -> GatingReport:
    """Evaluate *policy* against a finished run."""
    policy = policy or GatingPolicy()
    params = params or EnergyParams()
    planner = planner or FloorPlanner()
    geometry = system.geometry
    _, banks = geometry.resources()
    cycles = max(result.cycles, 1)

    bank_model = planner.bank_model
    total_weighted_off = 0.0  # sum of (bank area * gated fraction)
    total_bank_area = 0.0
    wakeups = 0.0
    for column in range(geometry.num_columns):
        for descriptor in geometry.columns[column]:
            area = bank_model.area_mm2(descriptor.capacity_bytes)
            total_bank_area += area
            key = (column, descriptor.position)
            resource = banks.get(key)
            accesses = resource.grants if resource is not None else 0
            if accesses == 0:
                total_weighted_off += area  # gated for the whole run
                continue
            mean_gap = cycles / accesses
            off_fraction = math.exp(-policy.idle_threshold / mean_gap)
            total_weighted_off += area * off_fraction
            wakeups += accesses * off_fraction

    leakage_before = params.leakage_pj(total_bank_area, cycles)
    gated_fraction = (
        total_weighted_off / total_bank_area if total_bank_area else 0.0
    )
    leakage_after = leakage_before * (1.0 - gated_fraction)
    return GatingReport(
        policy=policy,
        leakage_before_pj=leakage_before,
        leakage_after_pj=leakage_after,
        wake_energy_pj=wakeups * params.bank_wake_pj,
        wakeups=wakeups,
        accesses=result.accesses,
        gated_fraction=gated_fraction,
    )
