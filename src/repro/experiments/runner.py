"""Parallel experiment engine: fan independent cells over worker processes.

Every figure/table driver reduces to a list of *cells* -- fully-specified,
independent simulation runs -- evaluated in a deterministic order. This
module owns that evaluation:

* a :class:`CellSpec` captures everything a run depends on as plain
  picklable fields (design, scheme, benchmark, trace parameters, and the
  model overrides the ablation/sensitivity sweeps need), so a cell can be
  executed in any process and keyed into caches; its system is built
  once, over the geometry its fields select;
* :func:`run_cells` evaluates a batch, deduplicating repeats, consulting
  the in-process memo and the persistent
  :class:`~repro.experiments.cache.ResultCache`, and fanning what remains
  over a ``ProcessPoolExecutor`` when ``jobs > 1``;
* if the pool dies mid-sweep (a worker OOM-killed, a broken interpreter),
  the remaining cells fall back to serial execution in-process -- a sweep
  degrades, it does not crash.

Every spec family runs itself: a spec is a frozen picklable dataclass
with ``design``/``scheme``/``benchmark``/``seed`` reporting coordinates,
a stable ``key()`` for the persistent cache and an ``execute()`` method
that computes its result from scratch. :class:`CellSpec` replays one
trace through a D-NUCA or S-NUCA system, :class:`EnergySpec` meters a
cell's live system, :class:`CMPSpec` replays several cores through one
shared L2, and the streaming family lives in ``repro.stream.engine``.
Every trace replay runs :meth:`NetworkedCacheSystem.replay`. A worker finds
``execute()`` by unpickling the spec, which imports its module.

Determinism: a cell owns a fresh system and a trace generated from its
own seed, so its result is a pure function of its spec. Parallel,
serial, and cached evaluations of the same spec are bit-identical, which
the engine tests assert.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Sequence

from repro import telemetry
from repro.config import MEMORY_BASE_LATENCY
from repro.core.flows import STATIC_NUCA
from repro.core.system import NetworkedCacheSystem, RunResult
from repro.errors import ConfigurationError
from repro.experiments.cache import ResultCache
from repro.workloads.generator import DEFAULT_INDEX_SPACE

if TYPE_CHECKING:
    from repro.cmp import CMPResult
    from repro.core.geometry import CacheGeometry
    from repro.experiments.common import ExperimentConfig
    from repro.power import EnergyReport, GatingReport
    from repro.workloads.profiles import BenchmarkProfile
    from repro.workloads.trace import Trace

#: Default worker-trace cache bound (traces are the expensive shared input).
_TRACE_CACHE_MAX = 64


@dataclass(frozen=True, slots=True)
class CellSpec:
    """One independent simulation cell, as plain picklable data.

    The first three fields are the paper's (design, scheme, benchmark)
    coordinates; the rest pin down the trace and every model override the
    sweeps use, so equal specs always produce bit-identical results. Each
    override defaults to the paper's value and is built into the cell's
    own objects; no cell writes module state another cell reads. The
    scheme :data:`~repro.core.flows.STATIC_NUCA` runs the S-NUCA baseline
    on the same trace and fabric.
    """

    design: str
    scheme: str
    benchmark: str
    measure: int
    seed: int
    #: IssueModel overlap knob (issue-model ablation).
    hide_cycles: int = 0
    #: Sampled index values of the trace (sampling ablation).
    index_space: int = DEFAULT_INDEX_SPACE
    #: Halo spike issue-queue depth (spike-queue ablation).
    spike_queue_entries: int = 2
    #: Single-cycle routers (Table 1); False runs the 5-stage pipeline
    #: (router ablation).
    single_cycle_router: bool = True
    #: Off-chip base latency in cycles (memory sensitivity).
    memory_base_latency: int = MEMORY_BASE_LATENCY
    #: Factor on the wire delay of every channel of the cell's fabric
    #: (wire sensitivity; the spiral-spike ablation on design E).
    wire_delay_scale: int = 1
    #: Partial-tag early miss detection (D-NUCA smart search).
    early_miss_detection: bool = False
    #: Fault-injection rates (repro.faults); all-zero means the pristine
    #: build path runs untouched and results stay bit-identical to it.
    link_fault_rate: float = 0.0
    transient_fault_rate: float = 0.0
    fault_seed: int = 0
    #: Windowed-telemetry sample window in sim-cycles (0 = off). Part of
    #: the cache key: windowed cells carry extra Series metrics in their
    #: snapshots, so they must never replay from unwindowed entries.
    window: int = 0

    @property
    def has_faults(self) -> bool:
        return self.link_fault_rate > 0.0 or self.transient_fault_rate > 0.0

    def key(self) -> tuple[object, ...]:
        """Stable cache key: field names and values in declaration order."""
        return ("cell",) + tuple(
            (f.name, getattr(self, f.name)) for f in fields(self)
        )

    def execute(self) -> RunResult:
        """Run this cell from scratch (no caches)."""
        return _simulate(self)[1]


@dataclass
class EnergyResult:
    """One cell's run with the energy and gating reports of its system."""

    run: RunResult
    energy: EnergyReport
    gating: GatingReport
    wall_s: float | None = field(default=None, repr=False, compare=False)

    @property
    def metrics(self) -> dict[str, Any] | None:
        """The run's telemetry snapshot (merged by run_cells)."""
        return self.run.metrics


@dataclass(frozen=True, slots=True)
class EnergySpec:
    """Energy and on-demand bank gating of one :class:`CellSpec`'s run.

    The cell's live system is metered inside the process that ran it, by
    :class:`~repro.power.EnergyMeter` and
    :func:`~repro.power.simulate_gating`.
    """

    cell: CellSpec
    #: Idle cycles after which a bank is gated off.
    gate_threshold: int = 2000

    @property
    def design(self) -> str:
        return self.cell.design

    @property
    def scheme(self) -> str:
        return self.cell.scheme

    @property
    def benchmark(self) -> str:
        return self.cell.benchmark

    @property
    def seed(self) -> int:
        return self.cell.seed

    def key(self) -> tuple[object, ...]:
        return ("energy", ("gate_threshold", self.gate_threshold)) + (
            self.cell.key()
        )

    def execute(self) -> EnergyResult:
        """Run the cell and meter its system from scratch (no caches)."""
        from repro.power import EnergyMeter, GatingPolicy, simulate_gating

        started = time.perf_counter()
        policy = GatingPolicy(idle_threshold=self.gate_threshold)
        system, run = _simulate(self.cell)
        return EnergyResult(
            run=run,
            energy=EnergyMeter().measure(system, run),
            gating=simulate_gating(system, run, policy),
            wall_s=time.perf_counter() - started,
        )


#: Multiprogrammed mix of a CMP cell, one benchmark per core (paper
#: Table-2 members).
DEFAULT_MIX = ("twolf", "vpr", "art", "galgel")


@dataclass(frozen=True, slots=True)
class CMPSpec:
    """One CMP cell: *num_cores* cores sharing one design's L2.

    Core ``i`` runs ``DEFAULT_MIX[i]`` on the trace of the cell
    ``(design, scheme, DEFAULT_MIX[i])`` at seed ``seed + i``.
    """

    scheme: ClassVar[str] = "multicast+fast_lru"

    design: str
    num_cores: int
    measure: int
    seed: int
    #: Windowed-telemetry sample window in sim-cycles (0 = off).
    window: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.num_cores <= len(DEFAULT_MIX):
            raise ConfigurationError(
                f"num_cores must be from 1 to {len(DEFAULT_MIX)}, one core "
                f"per benchmark of the CMP mix; got {self.num_cores}"
            )

    @property
    def benchmark(self) -> str:
        """The engine's benchmark coordinate: the cores' mix."""
        return "+".join(DEFAULT_MIX[: self.num_cores])

    def key(self) -> tuple[object, ...]:
        return ("cmp",) + tuple(
            (f.name, getattr(self, f.name)) for f in fields(self)
        )

    def execute(self) -> CMPResult:
        """Run this CMP cell from scratch (no caches)."""
        from repro.cmp import CMPCacheSystem
        from repro.workloads.profiles import profile_by_name

        workloads: list[tuple[BenchmarkProfile, Trace, int]] = []
        for i, name in enumerate(DEFAULT_MIX[: self.num_cores]):
            cell = CellSpec(
                self.design, self.scheme, name, self.measure, self.seed + i
            )
            workloads.append((profile_by_name(name), *trace_with_warmup(cell)))
        started = time.perf_counter()
        system = CMPCacheSystem(
            design=self.design,
            scheme=self.scheme,
            num_cores=self.num_cores,
            window=self.window,
        )
        result = system.run(workloads)
        result.wall_s = time.perf_counter() - started
        result.provenance = telemetry.provenance_block(self)
        return result


def spec_for(
    design: str,
    scheme: str,
    benchmark: str,
    config: ExperimentConfig,
    **overrides: Any,
) -> CellSpec:
    """Build a :class:`CellSpec` from an
    :class:`~repro.experiments.common.ExperimentConfig`, normalizing the
    scheme name so aliases share cache entries."""
    from repro.core.flows import make_scheme

    overrides.setdefault("window", int(getattr(config, "window", 0)))
    return CellSpec(
        design=design,
        scheme=make_scheme(scheme).name,
        benchmark=benchmark,
        measure=config.measure,
        seed=config.seed,
        **overrides,
    )


# -- cell execution (must stay top-level: workers pickle by reference) -------

_TraceKey = tuple[str, int, int, int]

_worker_traces: dict[_TraceKey, tuple[Trace, int]] = {}


def trace_with_warmup(spec: CellSpec) -> tuple[Trace, int]:
    """Deterministic ``(trace, warmup)`` for a spec, memoized per process.

    The differential oracle, the CMP cell and the benchmark harness read
    exactly the trace a cell runs through this memo.
    """
    from repro.workloads.generator import TraceGenerator
    from repro.workloads.profiles import profile_by_name

    key: _TraceKey = (
        spec.benchmark,
        spec.measure,
        spec.seed,
        spec.index_space,
    )
    cached = _worker_traces.get(key)
    if cached is None:
        generator = TraceGenerator(
            profile_by_name(spec.benchmark),
            seed=spec.seed,
            index_space=spec.index_space,
        )
        cached = generator.generate_with_warmup(measure=spec.measure)
        # A bounded per-process memo: each value is a pure function of its
        # key, so evicting or refilling it never changes a result.
        if len(_worker_traces) >= _TRACE_CACHE_MAX:
            _worker_traces.clear()
        _worker_traces[key] = cached
    return cached


#: CellSpec fields the S-NUCA model has no use for: a cell that sets one
#: away from its default is refused, not run without it (the system
#: itself refuses early-miss detection).
_STATIC_NUCA_UNREAD = (
    "spike_queue_entries", "link_fault_rate", "transient_fault_rate",
    "fault_seed",
)


def _build_system(spec: CellSpec) -> NetworkedCacheSystem:
    """The cell's system, constructed once over the cell's geometry."""
    if spec.scheme == STATIC_NUCA:
        unread = [
            f.name
            for f in fields(spec)
            if f.name in _STATIC_NUCA_UNREAD
            and getattr(spec, f.name) != f.default
        ]
        if unread:
            raise ConfigurationError(
                f"an S-NUCA cell cannot honour {', '.join(unread)}"
            )
    return NetworkedCacheSystem(
        design=spec.design,
        scheme=spec.scheme,
        geometry=_build_geometry(spec),
        early_miss_detection=spec.early_miss_detection,
        window=spec.window,
        memory_base_latency=spec.memory_base_latency,
    )


def _build_geometry(spec: CellSpec) -> CacheGeometry:
    """The cell's timing geometry.

    The fabric is a newly built topology of the cell's design, with every
    channel's wire delay scaled by ``wire_delay_scale``. Under nonzero
    fault rates the geometry is a proof-checked
    :class:`~repro.faults.recovery.DegradedCacheGeometry` over a
    :class:`~repro.faults.models.FaultPlan` sampled from the rates and
    the fault seed (columns truncated to their live prefixes).
    """
    from repro.cache.bank import bank_descriptors_for_column
    from repro.config import RouterConfig
    from repro.core.designs import NUM_COLUMNS, design_spec
    from repro.core.geometry import CacheGeometry

    router_config = RouterConfig(single_cycle=spec.single_cycle_router)
    design = design_spec(spec.design)
    topology = design.topology_factory()
    if spec.wire_delay_scale != 1:
        # Scaling rebuilds every channel; at 1 it would rebuild them as is.
        topology.scale_wire_delays(spec.wire_delay_scale)
    columns = [
        bank_descriptors_for_column(design.bank_capacities)
        for _ in range(NUM_COLUMNS)
    ]
    if not spec.has_faults:
        return CacheGeometry(
            topology,
            columns,
            router_config=router_config,
            spike_queue_entries=spec.spike_queue_entries,
        )
    from repro.faults.models import FaultPlan
    from repro.faults.recovery import DegradedCacheGeometry

    plan = FaultPlan.sample(
        topology,
        link_rate=spec.link_fault_rate,
        transient_rate=spec.transient_fault_rate,
        seed=spec.fault_seed,
    )
    return DegradedCacheGeometry(
        topology,
        columns,
        plan,
        seed=spec.fault_seed,
        router_config=router_config,
        spike_queue_entries=spec.spike_queue_entries,
    )


def _simulate(spec: CellSpec) -> tuple[NetworkedCacheSystem, RunResult]:
    """Run one trace-replay cell from scratch; returns its live system too."""
    from repro.workloads.profiles import profile_by_name

    profile = profile_by_name(spec.benchmark)
    trace, warmup = trace_with_warmup(spec)
    started = time.perf_counter()
    system = _build_system(spec)
    result = system.run(
        trace, profile, warmup=warmup, hide_cycles=spec.hide_cycles
    )
    result.wall_s = time.perf_counter() - started
    result.provenance = telemetry.provenance_block(spec)
    return system, result


# -- engine configuration ----------------------------------------------------


@dataclass
class EngineSettings:
    """Process-wide defaults for :func:`run_cells` (set by the CLI)."""

    jobs: int = 1
    cache: ResultCache | None = None


_settings = EngineSettings()

#: In-process memo: spec -> result (the figure drivers share many cells).
#: Keyed by every spec family, not just CellSpec.
_memo: dict[Any, Any] = {}


def configure(
    jobs: int | None = None,
    use_cache: bool | None = None,
    cache_dir: str | None = None,
) -> EngineSettings:
    """Set the process-wide engine defaults; returns the live settings.

    ``jobs <= 0`` means "use every core". ``use_cache=True`` attaches a
    persistent :class:`ResultCache` (at *cache_dir* when given);
    ``use_cache=False`` detaches it.
    """
    if jobs is not None:
        _settings.jobs = jobs if jobs > 0 else (os.cpu_count() or 1)
    if use_cache is not None:
        if use_cache:
            _settings.cache = (
                ResultCache(directory=cache_dir) if cache_dir else ResultCache()
            )
        else:
            _settings.cache = None
    elif cache_dir is not None and _settings.cache is not None:
        _settings.cache = ResultCache(directory=cache_dir)
    return _settings


def settings() -> EngineSettings:
    return _settings


def reset_memo() -> None:
    """Forget in-process results (tests; long-lived sessions)."""
    _memo.clear()
    _worker_traces.clear()
    _journal.clear()


# -- batch reporting ---------------------------------------------------------


@dataclass(frozen=True)
class CellReport:
    """Where one unique cell's result came from, and what it cost."""

    design: str
    scheme: str
    benchmark: str
    seed: int
    #: ``memo`` (in-process), ``cache`` (persistent), or ``computed``.
    source: str
    #: Wall seconds of the original computation (stamped by the spec's
    #: ``execute()``; replayed results carry the time their producer spent).
    wall_s: float | None

    def payload(self) -> dict[str, object]:
        return {
            "design": self.design,
            "scheme": self.scheme,
            "benchmark": self.benchmark,
            "seed": self.seed,
            "source": self.source,
            "wall_s": self.wall_s,
        }


@dataclass
class BatchReport:
    """Accounting for one :func:`run_cells` batch."""

    total: int
    unique: int
    memo_hits: int
    cache_hits: int
    computed: int
    wall_s: float
    cells: list[CellReport] = field(default_factory=list)

    @property
    def cached(self) -> int:
        return self.memo_hits + self.cache_hits

    def summary(self) -> str:
        return f"{self.total} cells: {self.cached} cached, {self.computed} computed"

    def payload(self) -> dict[str, Any]:
        return {
            "total": self.total,
            "unique": self.unique,
            "memo_hits": self.memo_hits,
            "cache_hits": self.cache_hits,
            "computed": self.computed,
            "wall_s": self.wall_s,
            "cells": [cell.payload() for cell in self.cells],
        }


#: Per-process journal of every batch this process has run.
_journal: list[BatchReport] = []


def last_batch() -> BatchReport | None:
    """Report of the most recent :func:`run_cells` batch (None = none yet)."""
    return _journal[-1] if _journal else None


def journal_payload() -> list[dict[str, Any]]:
    """The full batch journal as JSON-able dicts."""
    return [report.payload() for report in _journal]


# -- the runner --------------------------------------------------------------

_UNSET = object()


def run_cells(
    specs: Sequence[Any],
    jobs: int | None = None,
    cache: ResultCache | None | object = _UNSET,
    progress: Callable[[int, int], None] | None = None,
) -> list[Any]:
    """Evaluate *specs* and return their results in input order.

    Repeated specs are evaluated once. Results come from, in order: the
    in-process memo, the persistent cache, then execution -- parallel
    across ``jobs`` worker processes when ``jobs > 1`` and more than one
    cell remains, serial otherwise. Worker results are committed in the
    deterministic submission order, so the memo, the cache, and the
    returned list are identical however the pool schedules.

    *progress*, when given, is called with ``(completed, total)`` counts
    after each fresh cell execution.
    """
    if jobs is None:
        jobs = _settings.jobs
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    if cache is _UNSET:
        cache = _settings.cache
    batch_started = time.perf_counter()

    unique: list[Any] = []
    seen: set[Any] = set()
    for spec in specs:
        if spec not in seen:
            seen.add(spec)
            unique.append(spec)

    sources: dict[Any, str] = {}
    todo: list[Any] = []
    for spec in unique:
        if spec in _memo:
            sources[spec] = "memo"
            continue
        if cache is not None:
            hit = cache.get(spec.key())
            if hit is not None:
                _memo[spec] = hit
                sources[spec] = "cache"
                continue
        sources[spec] = "computed"
        todo.append(spec)

    if todo:
        executed = 0

        def commit(spec: Any, result: Any) -> None:
            nonlocal executed
            _memo[spec] = result
            if cache is not None:
                cache.put(spec.key(), result)
            executed += 1
            if progress is not None:
                progress(executed, len(todo))

        remaining = todo
        if jobs > 1 and len(todo) > 1:
            remaining = _run_pool(todo, min(jobs, len(todo)), commit)
        for spec in remaining:
            commit(spec, spec.execute())

    # Fold each unique cell's metrics into the process-global registry in
    # deterministic (first-appearance) order -- identical whether results
    # came from workers, the memo, or the persistent cache.
    for spec in unique:
        telemetry.merge_run(_memo[spec])

    _journal.append(
        BatchReport(
            total=len(specs),
            unique=len(unique),
            memo_hits=sum(1 for s in sources.values() if s == "memo"),
            cache_hits=sum(1 for s in sources.values() if s == "cache"),
            computed=len(todo),
            wall_s=time.perf_counter() - batch_started,
            cells=[
                CellReport(
                    design=spec.design,
                    scheme=spec.scheme,
                    benchmark=spec.benchmark,
                    seed=spec.seed,
                    source=sources[spec],
                    wall_s=getattr(_memo[spec], "wall_s", None),
                )
                for spec in unique
            ],
        )
    )

    return [_memo[spec] for spec in specs]


def _run_pool(
    todo: list[Any],
    jobs: int,
    commit: Callable[[Any, Any], None],
) -> list[Any]:
    """Fan *todo* over a process pool; returns cells still unevaluated.

    Futures are drained in submission order so results commit
    deterministically. A broken pool (killed worker, failed interpreter
    spawn) returns the unfinished tail for the serial fallback instead of
    raising; genuine simulation errors propagate unchanged.
    """
    try:
        executor = ProcessPoolExecutor(max_workers=jobs)
    except OSError:
        return todo
    with executor:
        try:
            futures = [(spec, executor.submit(spec.execute)) for spec in todo]
        except (BrokenProcessPool, OSError, RuntimeError):
            return todo
        for i, (spec, future) in enumerate(futures):
            try:
                result = future.result()
            except (BrokenProcessPool, OSError):
                # The pool died under us: everything not yet committed
                # re-runs serially in this process.
                return [spec for spec, _ in futures[i:]]
            commit(spec, result)
    return []
