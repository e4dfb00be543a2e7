"""Seeded fault-injection campaigns over rate x scheme x topology.

A campaign sweeps a severity knob (the *fault rate*, driving both the
permanent-link sampling rate and the per-traversal transient rate)
across designs and schemes, running every cell through the standard
experiment engine -- so campaign cells parallelize, cache, and publish
telemetry exactly like figure cells. Each sweep always includes the
zero-rate baseline, which both anchors the latency-degradation curve
and (by construction) runs the pristine build path bit-identically.

Reported per point:

* **availability** -- fraction of accesses whose messages never
  exhausted the retry budget (1.0 means every access completed through
  reroute/retry alone);
* **goodput** -- completed accesses per kilocycle;
* **latency degradation** -- average access latency relative to the
  same (design, scheme) at rate zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CampaignConfig:
    """One fault campaign: the sweep axes and the workload pin."""

    designs: tuple = ("A", "C", "F")
    schemes: tuple = ("multicast+fast_lru",)
    benchmark: str = "art"
    #: Severity sweep; 0.0 is always added as the baseline point.
    rates: tuple = (0.0, 1e-3, 1e-2)
    measure: int = 600
    seed: int = 1
    #: Seed of the fault-plan sampler and transient streams.
    fault_seed: int = 7

    def __post_init__(self) -> None:
        if not self.rates:
            raise ConfigurationError("campaign needs at least one rate")
        for rate in self.rates:
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(f"fault rate {rate} outside [0, 1]")

    def sweep_rates(self) -> tuple:
        """Sorted unique rates with the 0.0 baseline always present."""
        return tuple(sorted(set(self.rates) | {0.0}))


@dataclass
class CampaignPoint:
    """One (design, scheme, rate) cell of a campaign."""

    design: str
    scheme: str
    rate: float
    accesses: int = 0
    completed: int = 0
    availability: float = 1.0
    #: Completed accesses per kilocycle.
    goodput: float = 0.0
    average_latency: float = 0.0
    #: Average latency relative to the zero-rate baseline (1.0 = none).
    latency_degradation: float = 1.0
    ipc: float = 0.0
    faults_injected: int = 0
    rerouted_packets: int = 0
    detour_hops: int = 0
    retries: int = 0
    exhausted_retries: int = 0
    degraded_accesses: int = 0

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class CampaignResult:
    config: CampaignConfig
    points: list = field(default_factory=list)

    def point(self, design: str, scheme: str, rate: float) -> CampaignPoint:
        for p in self.points:
            if (p.design, p.scheme) == (design, scheme) and p.rate == rate:
                return p
        raise KeyError((design, scheme, rate))


def _counter(metrics: dict, name: str) -> int:
    entry = metrics.get(name)
    return entry["value"] if entry else 0


def run_campaign(config: CampaignConfig | None = None) -> CampaignResult:
    """Run the sweep through the experiment engine; returns all points."""
    from repro.experiments.runner import CellSpec, run_cells

    config = config or CampaignConfig()
    rates = config.sweep_rates()
    coords = [
        (design, scheme, rate)
        for design in config.designs
        for scheme in config.schemes
        for rate in rates
    ]
    specs = [
        CellSpec(
            design=design,
            scheme=scheme,
            benchmark=config.benchmark,
            measure=config.measure,
            seed=config.seed,
            link_fault_rate=rate,
            transient_fault_rate=rate,
            fault_seed=config.fault_seed,
        )
        for design, scheme, rate in coords
    ]
    results = run_cells(specs)

    campaign = CampaignResult(config=config)
    baselines: dict[tuple, float] = {}
    for (design, scheme, rate), result in zip(coords, results):
        if rate == 0.0:
            baselines[(design, scheme)] = result.average_latency
    for (design, scheme, rate), result in zip(coords, results):
        metrics = result.metrics
        exhausted = _counter(metrics, "faults.exhausted_retries")
        completed = max(result.accesses - exhausted, 0)
        baseline = baselines[(design, scheme)]
        campaign.points.append(
            CampaignPoint(
                design=design,
                scheme=scheme,
                rate=rate,
                accesses=result.accesses,
                completed=completed,
                availability=(
                    completed / result.accesses if result.accesses else 1.0
                ),
                goodput=(
                    1000.0 * completed / result.cycles if result.cycles else 0.0
                ),
                average_latency=result.average_latency,
                latency_degradation=(
                    result.average_latency / baseline if baseline else 1.0
                ),
                ipc=result.ipc,
                faults_injected=_counter(metrics, "faults.injected"),
                rerouted_packets=_counter(metrics, "faults.rerouted_packets"),
                detour_hops=_counter(metrics, "noc.reroute.detour_hops"),
                retries=_counter(metrics, "faults.retries"),
                exhausted_retries=exhausted,
                degraded_accesses=_counter(
                    metrics, "cache.txn.degraded_accesses"
                ),
            )
        )
    return campaign
