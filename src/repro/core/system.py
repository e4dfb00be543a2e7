"""End-to-end networked cache system: the package's main entry point.

Composes a Table-3 design, a replacement scheme, the contents model, the
off-chip memory, and the transaction flows, and runs an access trace
through them:

    >>> from repro.core import NetworkedCacheSystem
    >>> from repro.workloads import profile_by_name, generate_trace
    >>> profile = profile_by_name("art")
    >>> system = NetworkedCacheSystem(design="A", scheme="multicast+fast_lru")
    >>> result = system.run(generate_trace(profile, 2000), profile)
    >>> result.average_latency > 0
    True
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.address import AddressMapper
from repro.cache.array import CacheArray
from repro.cache.bankset import BankSetStats
from repro.cache.memory import MemoryModel
from repro.cache.partial_tags import PartialTagStore
from repro.core.designs import DesignSpec, design_spec
from repro.core.flows import AccessTiming, Scheme, TransactionEngine, make_scheme
from repro.core.geometry import CacheGeometry
from repro.errors import ConfigurationError
from repro.perf.ipc import IssueModel
from repro.perf.metrics import LatencyAccumulator
from repro.telemetry.registry import (
    LATENCY_SLO_EDGES,
    MetricsRegistry,
    Series,
)
from repro.workloads.profiles import BenchmarkProfile
from repro.workloads.trace import Trace


def make_system_series(
    registry: MetricsRegistry, window: int
) -> dict[str, Series]:
    """Register the transaction-level windowed series.

    Windows are keyed by the access's *issue sim-cycle* (never
    wall-clock), so serial, parallel, and cache-replay sweeps of the same
    cells merge to byte-identical series.
    """
    return {
        "accesses": registry.series("cache.series.accesses", window),
        "hits": registry.series("cache.series.hits", window),
        "bank_cycles": registry.series("cache.series.bank_cycles", window),
        "network_cycles": registry.series(
            "cache.series.network_cycles", window
        ),
        "memory_cycles": registry.series("cache.series.memory_cycles", window),
        "latency": registry.series(
            "cache.series.latency", window, "hist", LATENCY_SLO_EDGES
        ),
    }


def record_access(
    series: dict[str, Series], issue_time: int, timing: AccessTiming
) -> None:
    """Record one measured access into the :func:`make_system_series`."""
    series["accesses"].record(issue_time)
    if timing.hit:
        series["hits"].record(issue_time)
    series["bank_cycles"].record(issue_time, timing.bank_cycles)
    series["network_cycles"].record(issue_time, timing.network_cycles)
    series["memory_cycles"].record(issue_time, timing.memory_cycles)
    series["latency"].record(issue_time, timing.transaction_latency)


def collect_metrics(
    registry: MetricsRegistry,
    geometry: CacheGeometry,
    stats: BankSetStats,
    memory: MemoryModel,
) -> dict:
    """Snapshot a replay loop's metric sources into *registry*.

    The snapshot is a plain sorted-key dict: deterministic, picklable,
    and mergeable into any other registry (serial and parallel batch
    runs fold these per-cell snapshots identically). The D-NUCA, S-NUCA
    and CMP loops all publish through here.
    """
    geometry.publish_metrics(registry)
    stats.publish_metrics(registry)
    registry.counter("cache.memory.reads").set(memory.reads)
    registry.counter("cache.memory.writebacks").set(memory.writebacks)
    return registry.snapshot()


def resolve_warmup(warmup: int | None, length: int) -> int:
    """The warm-up of a run over a *length*-access trace.

    ``None`` means a third of the trace. A negative warm-up, or one that
    leaves no access to measure, raises :class:`ConfigurationError`.
    Every replay loop (D-NUCA, S-NUCA and each CMP core) calls this.
    """
    if warmup is None:
        warmup = length // 3
    if warmup < 0:
        raise ConfigurationError("warmup must be non-negative")
    if warmup >= length:
        raise ConfigurationError("warmup must leave accesses to measure")
    return warmup


@dataclass
class RunResult:
    """Everything a benchmark harness needs from one trace run."""

    design: str
    scheme: str
    benchmark: str
    accesses: int
    instructions: int
    cycles: int
    ipc: float
    latency: LatencyAccumulator = field(repr=False)
    content: BankSetStats = field(repr=False)
    memory_reads: int = 0
    memory_writebacks: int = 0
    #: Digest of the cache array's final contents (differential oracle
    #: observable); part of equality so divergent contents never compare
    #: equal across serial/parallel/cached evaluations.
    contents_digest: str | None = None
    #: Telemetry snapshot of the measurement window (deterministic dict);
    #: excluded from equality so the bit-identical cache contract holds.
    metrics: dict | None = field(default=None, repr=False, compare=False)
    #: Run provenance block (config fingerprint, seed, scheme, ...).
    provenance: dict | None = field(default=None, repr=False, compare=False)
    #: Wall-clock seconds spent computing this cell (None when replayed
    #: from cache); never part of equality or the cache fingerprint.
    wall_s: float | None = field(default=None, repr=False, compare=False)

    @property
    def average_latency(self) -> float:
        return self.latency.average_latency

    @property
    def average_hit_latency(self) -> float:
        return self.latency.average_hit_latency

    @property
    def average_miss_latency(self) -> float:
        return self.latency.average_miss_latency

    @property
    def hit_rate(self) -> float:
        return self.latency.hit_rate

    def breakdown_fractions(self) -> dict[str, float]:
        return self.latency.breakdown_fractions()


class NetworkedCacheSystem:
    """A complete design + scheme instance ready to run traces."""

    def __init__(
        self,
        design: str | DesignSpec = "A",
        scheme: str | Scheme = "multicast+fast_lru",
        mapper: AddressMapper | None = None,
        router_config=None,
        spike_queue_entries: int = 2,
        early_miss_detection: bool = False,
        window: int = 0,
    ) -> None:
        self.spec = design_spec(design) if isinstance(design, str) else design
        self.scheme = make_scheme(scheme) if isinstance(scheme, str) else scheme
        self.geometry: CacheGeometry = self.spec.build(
            router_config=router_config,
            spike_queue_entries=spike_queue_entries,
        )
        self.mapper = mapper or AddressMapper()
        self.array = CacheArray(
            self.geometry.columns, self.scheme.policy, self.mapper
        )
        self.memory = MemoryModel()
        self.memory.channel.floor_clock = self.geometry.floor_clock
        #: Windowed metric series sampled every *window* issue-cycles
        #: (0 = off).
        self.window = int(window)
        self.rebuild_engine()
        #: Optional partial-tag early miss detection (D-NUCA smart search).
        self.partial_tags: PartialTagStore | None = None
        if early_miss_detection:
            self.partial_tags = PartialTagStore()

    def rebuild_engine(self) -> None:
        """Build the transaction engine over the current geometry.

        Called again after a geometry swap (the fault and spiral-spike
        rebuilds), so the windowed series live in the registry the run
        snapshots. They survive its warm-up reset, like the engine's
        histograms.
        """
        self.engine = TransactionEngine(self.geometry, self.memory, self.scheme)
        self._series = (
            make_system_series(self.engine.metrics, self.window)
            if self.window > 0
            else None
        )

    # -- single-access convenience ------------------------------------------

    def access(self, address: int, at: int = 0, is_write: bool = False):
        """Run one access; returns its :class:`AccessTiming`."""
        (column,), (index,), (tag,) = self.mapper.decode_columns((address,))
        outcome = self.array.access(column, index, tag, is_write)
        return self.engine.execute(column, outcome, at, is_write)

    # -- trace runs ------------------------------------------------------------

    def run(
        self,
        trace: Trace,
        profile: BenchmarkProfile | None = None,
        perfect_ipc: float | None = None,
        warmup: int | None = None,
        hide_cycles: int = 0,
    ) -> RunResult:
        """Run *trace* through the system and aggregate the results.

        The first *warmup* accesses (default: a third of the trace) update
        cache contents without timing, standing in for the paper's 100 M
        warm-up instructions. Either *profile* or *perfect_ipc* must supply
        the core's ideal IPC.
        """
        if profile is not None:
            perfect_ipc = profile.perfect_l2_ipc
        if perfect_ipc is None:
            raise ConfigurationError("run() needs a profile or perfect_ipc")
        warmup = resolve_warmup(warmup, len(trace))

        issue = IssueModel(perfect_ipc=perfect_ipc, hide_cycles=hide_cycles)
        latency = LatencyAccumulator()
        columns, indexes, tags = self.mapper.decode_columns(trace.addresses)
        writes = trace.writes
        access = self.array.access

        for column, index, tag, is_write in zip(
            columns[:warmup], indexes[:warmup], tags[:warmup], writes[:warmup]
        ):
            access(column, index, tag, is_write)
        if warmup:
            # Measurement starts fresh after warm-up.
            self.array.stats = BankSetStats()
            self.memory.reset()
            self.geometry.reset_contention()
            self.engine.reset()
            self.engine.metrics.reset()

        partial_tags = self.partial_tags
        series = self._series
        for column, index, tag, is_write, gap in zip(
            columns[warmup:], indexes[warmup:], tags[warmup:],
            writes[warmup:], trace.gaps[warmup:],
        ):
            early_miss = False
            if partial_tags is not None:
                state = self.array.set_state(column, index)
                early_miss = partial_tags.is_guaranteed_miss(
                    state, tag, actual_hit=state.find(tag) is not None
                )
            outcome = access(column, index, tag, is_write)
            issue_time = issue.issue_time(gap)
            if early_miss:
                timing = self.engine.execute_early_miss(
                    column, outcome, issue_time, is_write
                )
            else:
                timing = self.engine.execute(
                    column, outcome, issue_time, is_write
                )
            issue.complete(timing.data_at_core, is_write=is_write)
            latency.record(
                latency=timing.transaction_latency,
                hit=timing.hit,
                bank=timing.bank_cycles,
                network=timing.network_cycles,
                memory=timing.memory_cycles,
                bank_position=timing.bank_position,
            )
            if series is not None:
                record_access(series, issue_time, timing)

        cycles, ipc = issue.finish()
        return RunResult(
            design=self.spec.key,
            scheme=self.scheme.name,
            benchmark=trace.name,
            accesses=latency.total_count,
            instructions=issue.instructions,
            cycles=cycles,
            ipc=ipc,
            latency=latency,
            content=self.array.stats,
            memory_reads=self.memory.reads,
            memory_writebacks=self.memory.writebacks,
            contents_digest=self.array.contents_digest(),
            metrics=self._collect_metrics(),
        )

    def _collect_metrics(self) -> dict:
        """Snapshot every metric source into the engine's registry."""
        registry = self.engine.metrics
        if self.partial_tags is not None:
            registry.counter("cache.partial_tags.early_misses").set(
                self.partial_tags.early_misses
            )
        return collect_metrics(
            registry, self.geometry, self.array.stats, self.memory
        )
