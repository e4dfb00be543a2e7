"""Experiment-engine integration of the streaming service.

A :class:`StreamSpec` is the streaming analogue of
:class:`~repro.experiments.runner.CellSpec`: plain picklable data that
fully determines one open-loop serving run, keyed into the same
in-process memo and persistent result cache, and executable in worker
processes through its own :meth:`StreamSpec.execute`.

The engine's reporting coordinates map as: ``design`` is the Table-3
design letter, ``scheme`` the admission policy, ``benchmark`` the named
tenant mix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Any

from repro import telemetry
from repro.errors import ConfigurationError
from repro.noc.network import normalize_core
from repro.stream.arrivals import MIX_NAMES, generate_arrivals, tenant_mix
from repro.stream.service import ADMISSION_POLICIES, StreamService
from repro.telemetry.registry import MetricsRegistry


@dataclass(frozen=True, slots=True)
class StreamSpec:
    """One open-loop serving cell, as plain picklable data."""

    design: str
    #: Admission policy ("drop-tail" | "token-bucket").
    scheme: str
    #: Named tenant mix (see repro.stream.arrivals.TENANT_MIXES).
    benchmark: str
    seed: int
    cycles: int = 4000
    #: Offered-load multiplier on the mix's calibrated rates.
    load: float = 1.0
    queue_limit: int = 32
    max_outstanding: int = 8
    token_rate: float = 0.12
    token_burst: float = 8.0
    core: str = "object"
    window: int = 64
    drain: bool = True

    def key(self) -> tuple[object, ...]:
        """Stable cache key, namespaced apart from CellSpec's ``"cell"``."""
        return ("stream",) + tuple(
            (f.name, getattr(self, f.name)) for f in fields(self)
        )

    def execute(self) -> StreamResult:
        """Run this streaming cell from scratch (no caches)."""
        started = time.perf_counter()
        tenants = tenant_mix(self.benchmark, self.load)
        requests = generate_arrivals(tenants, self.cycles, self.seed)
        service = build_service(self)
        service.run(requests, self.cycles, drain=self.drain)
        registry = MetricsRegistry()
        service.publish_metrics(registry)
        summary = service.summary()
        result = StreamResult(
            design=self.design,
            scheme=self.scheme,
            benchmark=self.benchmark,
            seed=self.seed,
            cycles=self.cycles,
            offered=summary["offered"],
            admitted=summary["admitted"],
            rejected=sum(summary["rejected"].values()),
            completed=summary["completed"],
            quantiles=summary["quantiles"],
            goodput_per_kcycle=summary["goodput_per_kcycle"],
            availability=summary["availability"],
            rejection_rate=summary["rejection_rate"],
            summary=summary,
            metrics=registry.snapshot(),
            provenance=telemetry.provenance_block(self),
        )
        result.wall_s = time.perf_counter() - started
        return result


def stream_spec_for(
    design: str,
    policy: str,
    mix: str,
    *,
    seed: int = 0,
    core: str | None = None,
    **overrides: Any,
) -> StreamSpec:
    """Build a validated :class:`StreamSpec` (normalizing the core name)."""
    if policy not in ADMISSION_POLICIES:
        raise ConfigurationError(
            f"unknown admission policy {policy!r}; known: {ADMISSION_POLICIES}"
        )
    if mix not in MIX_NAMES:
        raise ConfigurationError(
            f"unknown tenant mix {mix!r}; known: {', '.join(MIX_NAMES)}"
        )
    return StreamSpec(
        design=design,
        scheme=policy,
        benchmark=mix,
        seed=seed,
        core=normalize_core(core),
        **overrides,
    )


@dataclass
class StreamResult:
    """Result of one streaming cell (mirrors ``RunResult`` conventions)."""

    design: str
    scheme: str
    benchmark: str
    seed: int
    cycles: int
    offered: int
    admitted: int
    rejected: int
    completed: int
    quantiles: dict[str, float]
    goodput_per_kcycle: float
    availability: float
    rejection_rate: float
    summary: dict[str, Any] = field(repr=False)
    #: Telemetry snapshot merged into the global registry by run_cells.
    metrics: dict[str, Any] | None = field(
        default=None, repr=False, compare=False
    )
    provenance: dict[str, Any] | None = field(
        default=None, repr=False, compare=False
    )
    #: Wall seconds; excluded from equality so cached replays compare
    #: equal to fresh runs.
    wall_s: float | None = field(default=None, repr=False, compare=False)


def build_service(spec: StreamSpec) -> StreamService:
    """The :class:`StreamService` a spec describes (no arrivals yet)."""
    return StreamService(
        spec.design,
        core=spec.core,
        window=spec.window,
        policy=spec.scheme,
        queue_limit=spec.queue_limit,
        max_outstanding=spec.max_outstanding,
        token_rate=spec.token_rate,
        token_burst=spec.token_burst,
    )
