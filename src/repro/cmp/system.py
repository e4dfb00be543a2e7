"""Multi-core shared-NUCA simulation.

Each core runs its own workload against the shared L2: its own trace,
its own blocking-read retirement clock, its own attach point. Accesses
from all cores are merged in global issue-time order, so they contend for
the same columns, banks, channels, and memory pipe -- the traffic-pattern
analysis the paper proposes as future work. The merge is
:meth:`~repro.core.system.NetworkedCacheSystem.replay`, the loop a
single-core run goes through too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.designs import DesignSpec, design_spec
from repro.core.flows import Scheme, make_scheme
from repro.core.system import NetworkedCacheSystem
from repro.errors import ConfigurationError
from repro.noc.topology import HaloTopology, NodeId
from repro.perf.ipc import IssueModel
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
    if isinstance(topology, HaloTopology):
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
        # Every core replays through one system: its geometry, contents,
        # engine and windowed series are the shared L2's.
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
        issues = [
            IssueModel(perfect_ipc=profile.perfect_l2_ipc)
            for profile, _, _ in workloads
        ]
        latencies = self._system.replay([
            (trace, warmup, issue, node)
            for (_, trace, warmup), issue, node in zip(
                workloads, issues, self.attach_points
            )
        ])
        result = CMPResult(
            design=self.spec.key,
            scheme=self.scheme.name,
            num_cores=self.num_cores,
            metrics=self._system.collect_metrics(),
        )
        for core, ((profile, _, _), issue, latency) in enumerate(
            zip(workloads, issues, latencies)
        ):
            _, ipc = issue.finish()
            result.cores.append(
                CoreResult(
                    core=core,
                    benchmark=profile.name,
                    accesses=latency.total_count,
                    ipc=ipc,
                    average_latency=latency.average_latency,
                    hit_rate=latency.hit_rate,
                )
            )
        return result
