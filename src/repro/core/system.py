"""End-to-end networked cache system: the package's main entry point.

Composes a Table-3 design's geometry, a replacement scheme, the contents
model, the off-chip memory, and the transaction flows, and runs access
traces through them. :meth:`NetworkedCacheSystem.replay` is the one
replay loop: a D-NUCA run, an S-NUCA run (scheme ``static-nuca``: home-
bank contents and timing) and every core of a CMP run go through it.

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
from heapq import heapify, heappop, heappush
from itertools import chain, zip_longest
from typing import Sequence

from repro.cache.address import AddressMapper
from repro.cache.array import CacheArray
from repro.cache.bankset import BankSetStats
from repro.cache.memory import MemoryModel
from repro.cache.partial_tags import PartialTagStore
from repro.cache.static_nuca import StaticNUCAArray
from repro.core.designs import DesignSpec, design_spec
from repro.core.flows import (
    STATIC_NUCA,
    AccessTiming,
    Scheme,
    StaticNUCAEngine,
    TransactionEngine,
    make_scheme,
)
from repro.core.geometry import CacheGeometry
from repro.errors import ConfigurationError
from repro.noc.topology import NodeId
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


def resolve_warmup(warmup: int | None, length: int) -> int:
    """The warm-up of a run over a *length*-access trace.

    ``None`` means a third of the trace. A negative warm-up, or one that
    leaves no access to measure, raises :class:`ConfigurationError`.
    The replay loop checks every core's warm-up with this.
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


#: One core of a replay: its trace, its warm-up (None = a third of the
#: trace), its issue model and its attach point (None = the geometry's
#: core).
CoreWorkload = tuple[Trace, int | None, IssueModel, NodeId | None]


class NetworkedCacheSystem:
    """A complete design + scheme instance ready to run traces.

    *geometry* is the timing geometry to run on; by default the design's
    pristine one. The scheme ``static-nuca`` builds the S-NUCA baseline:
    :class:`~repro.cache.static_nuca.StaticNUCAArray` contents timed by
    :class:`~repro.core.flows.StaticNUCAEngine`.
    """

    def __init__(
        self,
        design: str | DesignSpec = "A",
        scheme: str | Scheme = "multicast+fast_lru",
        mapper: AddressMapper | None = None,
        geometry: CacheGeometry | None = None,
        early_miss_detection: bool = False,
        window: int = 0,
    ) -> None:
        self.spec = design_spec(design) if isinstance(design, str) else design
        self.scheme = make_scheme(scheme) if isinstance(scheme, str) else scheme
        self.geometry = geometry if geometry is not None else self.spec.build()
        self.mapper = mapper or AddressMapper()
        self.memory = MemoryModel()
        self.memory.channel.floor_clock = self.geometry.floor_clock
        self.array: CacheArray
        self.engine: TransactionEngine | StaticNUCAEngine
        if self.scheme.name == STATIC_NUCA:
            if early_miss_detection:
                raise ConfigurationError(
                    "an S-NUCA system cannot honour early_miss_detection"
                )
            array = StaticNUCAArray(self.geometry.columns)
            self.array = array
            self.engine = StaticNUCAEngine(
                self.geometry, self.memory, array.home_bank
            )
        else:
            self.array = CacheArray(
                self.geometry.columns, self.scheme.policy, self.mapper
            )
            self.engine = TransactionEngine(
                self.geometry, self.memory, self.scheme
            )
        #: Windowed metric series sampled every *window* issue-cycles
        #: (0 = off), in the engine's registry so they survive the
        #: warm-up reset like its histograms.
        self._series = (
            make_system_series(self.engine.metrics, int(window))
            if window > 0
            else None
        )
        #: Optional partial-tag early miss detection (D-NUCA smart search).
        self.partial_tags: PartialTagStore | None = None
        if early_miss_detection:
            self.partial_tags = PartialTagStore()

    # -- single-access convenience ------------------------------------------

    def access(self, address: int, at: int = 0, is_write: bool = False):
        """Run one access; returns its :class:`AccessTiming`."""
        (column,), (index,), (tag,) = self.mapper.decode_columns((address,))
        outcome = self.array.access(column, index, tag, is_write)
        return self.engine.execute(column, index, outcome, at, is_write)

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
        the core's ideal IPC. This is the one-core :meth:`replay`.
        """
        if profile is not None:
            perfect_ipc = profile.perfect_l2_ipc
        if perfect_ipc is None:
            raise ConfigurationError("run() needs a profile or perfect_ipc")
        issue = IssueModel(perfect_ipc=perfect_ipc, hide_cycles=hide_cycles)
        (latency,) = self.replay([(trace, warmup, issue, None)])
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
            metrics=self.collect_metrics(),
        )

    def replay(self, cores: Sequence[CoreWorkload]) -> list[LatencyAccumulator]:
        """Replay one trace per core through the shared cache.

        The cores' warm-up prefixes update contents only, round-robin
        across cores; then measurement starts fresh. Measured accesses
        run in global issue-time order, the lowest core index first on
        ties, each core issuing on its own :class:`IssueModel`. Returns
        each core's latency accumulator, in core order.
        """
        warmups = [
            resolve_warmup(warmup, len(trace)) for trace, warmup, _, _ in cores
        ]
        decode = self.mapper.decode_columns
        warming = []
        measured = []
        for (trace, _, _, _), warmup in zip(cores, warmups):
            columns, indexes, tags = decode(trace.addresses)
            writes = trace.writes
            warming.append(zip(
                columns[:warmup], indexes[:warmup], tags[:warmup],
                writes[:warmup],
            ))
            measured.append(zip(
                columns[warmup:], indexes[warmup:], tags[warmup:],
                writes[warmup:], trace.gaps[warmup:],
            ))
        array = self.array
        access = array.access
        for row in chain.from_iterable(zip_longest(*warming)):
            if row is not None:
                access(*row)
        engine = self.engine
        if any(warmups):
            # Measurement starts fresh after warm-up.
            array.stats = BankSetStats()
            self.memory.reset()
            self.geometry.reset_contention()
            engine.reset()
            engine.metrics.reset()

        execute = engine.execute
        partial_tags = self.partial_tags
        series = self._series
        latencies = [LatencyAccumulator() for _ in cores]
        # (issue time, core, access) of each waiting core's next access.
        heap = []
        for core, rows in enumerate(measured):
            row = next(rows)
            heap.append((cores[core][2].issue_time(row[4]), core, row))
        heapify(heap)
        while heap:
            issue_time, core, row = heappop(heap)
            _, _, issue, node = cores[core]
            latency = latencies[core]
            rows = measured[core]
            # Run this core until another core's next access issues first.
            while True:
                column, index, tag, is_write, _ = row
                early_miss = False
                if partial_tags is not None:
                    state = array.set_state(column, index)
                    early_miss = partial_tags.is_guaranteed_miss(
                        state, tag, actual_hit=state.find(tag) is not None
                    )
                outcome = access(column, index, tag, is_write)
                if early_miss:
                    timing = engine.execute_early_miss(
                        column, index, outcome, issue_time, is_write, node
                    )
                else:
                    timing = execute(
                        column, index, outcome, issue_time, is_write, node
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
                row = next(rows, None)
                if row is None:
                    break
                issue_time = issue.issue_time(row[4])
                if heap and (issue_time, core) > heap[0][:2]:
                    heappush(heap, (issue_time, core, row))
                    break
        return latencies

    def collect_metrics(self) -> dict:
        """Snapshot every metric source into the engine's registry.

        The snapshot is a plain sorted-key dict: deterministic, picklable,
        and mergeable into any other registry (serial and parallel batch
        runs fold these per-cell snapshots identically).
        """
        registry = self.engine.metrics
        if self.partial_tags is not None:
            registry.counter("cache.partial_tags.early_misses").set(
                self.partial_tags.early_misses
            )
        self.geometry.publish_metrics(registry)
        self.array.stats.publish_metrics(registry)
        registry.counter("cache.memory.reads").set(self.memory.reads)
        registry.counter("cache.memory.writebacks").set(self.memory.writebacks)
        return registry.snapshot()
