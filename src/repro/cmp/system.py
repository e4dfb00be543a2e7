"""Multi-core shared-NUCA simulation.

Each core runs its own workload against the shared L2: its own trace,
its own blocking-read retirement clock, its own attach point. Accesses
from all cores are merged in global issue-time order, so they contend for
the same columns, banks, channels, and memory pipe -- the traffic-pattern
analysis the paper proposes as future work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.cache.bankset import BankSetStats
from repro.core.designs import DesignSpec, design_spec
from repro.core.flows import Scheme, make_scheme
from repro.core.system import (
    NetworkedCacheSystem,
    collect_metrics,
    record_access,
    resolve_warmup,
)
from repro.errors import ConfigurationError
from repro.noc.topology import NodeId
from repro.perf.ipc import IssueModel
from repro.perf.metrics import LatencyAccumulator
from repro.workloads.profiles import BenchmarkProfile
from repro.workloads.trace import Trace


def core_attach_points(spec: DesignSpec, num_cores: int) -> list[NodeId]:
    """Attach points for *num_cores* on a design.

    Mesh designs spread the cores evenly across the top row; halo designs
    share the hub (the spike queues arbitrate among cores).
    """
    if num_cores < 1:
        raise ConfigurationError("num_cores must be >= 1")
    topology = spec.topology_factory()
    if spec.network.startswith("16-spike"):
        return [topology.core_attach] * num_cores
    cols = 16
    if num_cores > cols:
        raise ConfigurationError(f"at most {cols} cores on a 16-column mesh")
    stride = cols / num_cores
    return [(int(stride * (i + 0.5)), 0) for i in range(num_cores)]


@dataclass
class CoreResult:
    """Per-core outcome of a CMP run."""

    core: int
    benchmark: str
    accesses: int
    ipc: float
    average_latency: float
    hit_rate: float


@dataclass
class CMPResult:
    """Aggregate outcome of a CMP run."""

    design: str
    scheme: str
    num_cores: int
    cores: list[CoreResult] = field(default_factory=list)
    #: Telemetry snapshot of the shared L2 over the measured run, merged
    #: into the global registry by run_cells; outside equality, as on
    #: RunResult.
    metrics: dict[str, Any] | None = field(
        default=None, repr=False, compare=False
    )
    provenance: dict[str, Any] | None = field(
        default=None, repr=False, compare=False
    )
    wall_s: float | None = field(default=None, repr=False, compare=False)

    @property
    def aggregate_ipc(self) -> float:
        """System throughput: sum of per-core IPCs."""
        return sum(core.ipc for core in self.cores)

    @property
    def average_latency(self) -> float:
        total = sum(c.average_latency * c.accesses for c in self.cores)
        accesses = sum(c.accesses for c in self.cores)
        return total / accesses if accesses else 0.0

    @property
    def fairness(self) -> float:
        """min/max per-core IPC (1.0 = perfectly fair)."""
        ipcs = [core.ipc for core in self.cores]
        return min(ipcs) / max(ipcs) if ipcs and max(ipcs) > 0 else 0.0


@dataclass
class _CoreState:
    index: int
    node: NodeId
    profile: BenchmarkProfile
    trace: Trace
    warmup: int
    issue: IssueModel
    latency: LatencyAccumulator
    #: The trace's addresses, decoded once: (columns, indexes, tags).
    decoded: tuple[list[int], list[int], list[int]]
    position: int = 0
    next_issue: int | None = None

    def done(self) -> bool:
        return self.position >= len(self.trace)

    def row(self) -> tuple[int, int, int, bool]:
        """``(column, index, tag, is_write)`` of the access at ``position``."""
        columns, indexes, tags = self.decoded
        i = self.position
        return columns[i], indexes[i], tags[i], self.trace.writes[i]


class CMPCacheSystem:
    """N cores sharing one networked L2 cache."""

    def __init__(
        self,
        design: str | DesignSpec = "A",
        scheme: str | Scheme = "multicast+fast_lru",
        num_cores: int = 2,
        window: int = 0,
    ) -> None:
        self.spec = design_spec(design) if isinstance(design, str) else design
        self.scheme = make_scheme(scheme) if isinstance(scheme, str) else scheme
        self.num_cores = num_cores
        self.attach_points = core_attach_points(self.spec, num_cores)
        # Reuse the single-core system for geometry/contents/engine and
        # its windowed series (every core's accesses share them).
        self._system = NetworkedCacheSystem(
            design=self.spec, scheme=self.scheme, window=window
        )

    def run(
        self,
        workloads: list[tuple[BenchmarkProfile, Trace, int]],
    ) -> CMPResult:
        """Run one (profile, trace, warmup) triple per core, merged.

        Warm-up portions update contents only (round-robin across cores);
        measured accesses are merged in global issue-time order.
        """
        if len(workloads) != self.num_cores:
            raise ConfigurationError(
                f"need {self.num_cores} workloads, got {len(workloads)}"
            )
        system = self._system
        cores = [
            _CoreState(
                index=i,
                node=self.attach_points[i],
                profile=profile,
                trace=trace,
                warmup=resolve_warmup(warmup, len(trace)),
                issue=IssueModel(perfect_ipc=profile.perfect_l2_ipc),
                latency=LatencyAccumulator(),
                decoded=system.mapper.decode_columns(trace.addresses),
            )
            for i, (profile, trace, warmup) in enumerate(workloads)
        ]

        # Phase 1: warm the shared contents, round-robin.
        warming = True
        while warming:
            warming = False
            for core in cores:
                if core.position < core.warmup:
                    system.array.access(*core.row())
                    core.position += 1
                    warming = True
        system.array.stats = BankSetStats()
        system.memory.reset()
        system.geometry.reset_contention()
        system.engine.reset()
        system.engine.metrics.reset()

        # Phase 2: merged measured run in global issue order.
        series = system._series
        for core in cores:
            if not core.done():
                gap = core.trace.gaps[core.position]
                core.next_issue = core.issue.issue_time(gap)
        while True:
            ready = [c for c in cores if not c.done()]
            if not ready:
                break
            core = min(ready, key=lambda c: c.next_issue)
            column, index, tag, is_write = core.row()
            outcome = system.array.access(column, index, tag, is_write)
            timing = system.engine.execute(
                column,
                outcome,
                core.next_issue,
                is_write,
                core_node=core.node,
            )
            core.issue.complete(timing.data_at_core, is_write=is_write)
            core.latency.record(
                latency=timing.transaction_latency,
                hit=timing.hit,
                bank=timing.bank_cycles,
                network=timing.network_cycles,
                memory=timing.memory_cycles,
                bank_position=timing.bank_position,
            )
            if series is not None:
                record_access(series, core.next_issue, timing)
            core.position += 1
            if not core.done():
                gap = core.trace.gaps[core.position]
                core.next_issue = core.issue.issue_time(gap)

        result = CMPResult(
            design=self.spec.key,
            scheme=self.scheme.name,
            num_cores=self.num_cores,
            metrics=collect_metrics(
                system.engine.metrics,
                system.geometry,
                system.array.stats,
                system.memory,
            ),
        )
        for core in cores:
            _, ipc = core.issue.finish()
            result.cores.append(
                CoreResult(
                    core=core.index,
                    benchmark=core.profile.name,
                    accesses=core.latency.total_count,
                    ipc=ipc,
                    average_latency=core.latency.average_latency,
                    hit_rate=core.latency.hit_rate,
                )
            )
        return result
