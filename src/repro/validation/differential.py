"""Differential checks: two models of one workload, diffed.

Cross-core differential
    :func:`compare` runs one flit workload on the object core (the
    reference) and on the array core and reports the first observable on
    which they part as a :class:`Divergence`, or None when they agree.
    :func:`observe` is the one definition of "the cores agree": traffic
    counts, normalized per-delivery records, the drain cycle, and the
    full published :class:`~repro.telemetry.registry.MetricsRegistry`
    snapshot.
    :class:`FlitWorkload` is the shrinkable workload shape (a topology
    plus :class:`PacketSpec` traffic) the tests and the fuzzer feed it;
    :class:`StreamWorkload` is the same for an open-loop stream cell.

Differential oracle
    :func:`run_oracle` evaluates one seeded trace twice:

    * the **engine path** -- :func:`repro.experiments.runner.run_cells` on
      the cell's spec, which exercises the memo, the persistent result
      cache, and the worker-pool fan-out exactly as figure drivers do;
    * the **checked replay** -- a fresh :class:`NetworkedCacheSystem`
      walking the identical trace in-process with the content and
      transaction invariant checkers installed.

    The two runs are diffed on hit/miss outcomes, final bank contents
    (the contents digest), and aggregate counters, exactly; then a
    deterministic sample of the replay's measured transactions (half of
    it misses, when the cell misses) is re-enacted through
    :class:`~repro.noc.protocol.FlitLevelCacheProtocol` on a checked
    flit-level network of the same design, comparing each delivered hop
    count against the transaction-level geometry model's assumption
    (``routing.hops(src, dst) + 1`` -- the ejection switch also counts a
    hop), and the same samples go through :func:`compare` as a
    :class:`ProtocolWorkload`. Any divergence is reported, making silent
    drift between the models loud.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Any

from repro.config import RouterConfig, packet_flits
from repro.errors import ValidationError
from repro.noc.network import make_network
from repro.noc.packet import MessageType, Packet
from repro.noc.protocol import FlitLevelCacheProtocol
from repro.noc.topology import (
    HaloTopology,
    MeshTopology,
    SimplifiedMeshTopology,
    Topology,
)
from repro.telemetry.registry import MetricsRegistry
from repro.validation.invariants import (
    BlockConservationChecker,
    TransactionTimingChecker,
    default_network_checkers,
)


# -- cross-core differential ------------------------------------------------

#: Hang guard of a flit workload (:attr:`FlitWorkload.drain_cycles`):
#: its last injection cycle, plus DRAIN_LATENCY for a packet to cross the
#: fabric, plus DRAIN_PER_FLIT for every flit delivery queued ahead of
#: it, capped at DRAIN_CYCLES. Measured workloads drain within 200 cycles
#: plus 0.06 per flit delivery of their last injection, and the slowest
#: lone packet (a 5-flit fill across a 16x16 mesh of 2-cycle routers)
#: takes 168 cycles, so only a hung run reaches the guard -- and a small
#: hung workload fails within a few thousand cycles.
DRAIN_CYCLES = 400_000
DRAIN_LATENCY = 1_000
DRAIN_PER_FLIT = 10

#: Observables in the order :func:`compare` checks them: the workload's
#: own traffic counts, then the per-delivery record (the most specific
#: evidence of where the cores part), then what summarizes it.
OBSERVABLES = (
    "packets_injected",
    "flits_injected",
    "packets_delivered",
    "deliveries",
    "cycles",
    "metrics",
)

#: Differing metric keys a :class:`Divergence` keeps.
MAX_METRIC_KEYS = 8


@dataclass(frozen=True)
class PacketSpec:
    """One workload packet: message name, endpoints, and injection cycle."""

    message: str
    source: tuple
    destinations: tuple
    inject_cycle: int = 0


def build_topology(kind: str, cols: int, rows: int) -> Topology:
    """The ``kind`` ("mesh" | "simplified" | "halo") fabric of a workload."""
    if kind == "mesh":
        return MeshTopology(cols, rows)
    if kind == "simplified":
        return SimplifiedMeshTopology(cols, rows)
    if kind == "halo":
        return HaloTopology(cols, rows)
    raise ValidationError(f"unknown flit workload kind {kind!r}")


@dataclass(frozen=True)
class FlitWorkload:
    """A fabric plus its traffic, runnable on any flit core.

    Plain data whose ``repr`` round-trips, so a failing workload shrinks
    (over its packets) and pastes verbatim into a pytest repro.
    ``window`` > 0 turns on the windowed metric series.
    """

    kind: str  # "mesh" | "simplified" | "halo"
    cols: int
    rows: int
    single_cycle: bool = True
    window: int = 0
    packets: tuple = ()

    def build(self, core: str) -> Any:
        """The workload's network on *core*, every packet scheduled."""
        network = make_network(
            build_topology(self.kind, self.cols, self.rows),
            router_config=RouterConfig(single_cycle=bool(self.single_cycle)),
            core=core,
            window=self.window,
        )
        for spec in self.packets:
            network.schedule_injection(
                Packet(
                    MessageType(spec.message),
                    spec.source,
                    tuple(spec.destinations),
                ),
                at_cycle=spec.inject_cycle,
            )
        return network

    @property
    def drain_cycles(self) -> int:
        """The cycle budget :meth:`run` drains under (see :data:`DRAIN_CYCLES`)."""
        last = max((spec.inject_cycle for spec in self.packets), default=0)
        flits = sum(
            packet_flits(MessageType(spec.message).carries_block)
            * len(spec.destinations)
            for spec in self.packets
        )
        return min(DRAIN_CYCLES, last + DRAIN_LATENCY + DRAIN_PER_FLIT * flits)

    def run(self, core: str) -> Any:
        """:meth:`build` on *core*, drained."""
        network = self.build(core)
        network.run_until_drained(max_cycles=self.drain_cycles)
        return network


@dataclass(frozen=True)
class StreamWorkload:
    """An open-loop stream cell, runnable on any flit core.

    Plain data whose ``repr`` round-trips (with
    :class:`~repro.stream.arrivals.TenantSpec` in scope), so a failing
    cell shrinks over its tenants and pastes into a pytest repro.
    :meth:`run` returns the drained
    :class:`~repro.stream.service.StreamService`: its ``stats`` are its
    network's and its ``publish_metrics`` adds the stream counters and
    SLO series to the network's, so :func:`observe` reads it unchanged.
    """

    design: str
    tenants: tuple
    cycles: int = 600
    seed: int = 0
    policy: str = "drop-tail"
    queue_limit: int = 32
    max_outstanding: int = 8
    window: int = 64

    def run(self, core: str) -> Any:
        """Serve the cell's arrivals on *core*, drained."""
        from repro.stream.arrivals import generate_arrivals
        from repro.stream.service import StreamService

        service = StreamService(
            self.design,
            core=core,
            window=self.window,
            policy=self.policy,
            queue_limit=self.queue_limit,
            max_outstanding=self.max_outstanding,
        )
        service.run(
            generate_arrivals(self.tenants, self.cycles, self.seed), self.cycles
        )
        return service


def observe(network: Any) -> dict[str, Any]:
    """Everything two cores must agree on after draining one workload.

    Packet ids are process-global counters that differ between two runs,
    so deliveries are keyed by (created_at, source, first-seen order)
    instead of ``packet_id`` and sorted.
    """
    order: dict[int, tuple[int, str, int]] = {}
    rows = []
    for delivery in network.stats.deliveries:
        pid = delivery.packet.packet_id
        if pid not in order:
            order[pid] = (
                delivery.packet.created_at,
                str(delivery.packet.source),
                len(order),
            )
        rows.append(
            (
                order[pid],
                str(delivery.destination),
                delivery.injected_at,
                delivery.delivered_at,
                delivery.hops,
            )
        )
    rows.sort()
    registry = MetricsRegistry()
    network.publish_metrics(registry)
    stats = network.stats
    return {
        "cycles": stats.cycles,
        "packets_injected": stats.packets_injected,
        "flits_injected": stats.flits_injected,
        "packets_delivered": stats.packets_delivered,
        "deliveries": rows,
        "metrics": registry.snapshot(),
    }


@dataclass(frozen=True)
class Divergence:
    """The first observable on which *core* departs from *reference*.

    ``expected``/``actual`` are bounded: a scalar, the first differing
    delivery row (None past the end of the shorter list), or at most
    :data:`MAX_METRIC_KEYS` differing metric entries.
    """

    observable: str
    reference: str
    core: str
    expected: Any
    actual: Any
    workload: Any

    def render(self) -> str:
        return "\n".join(
            [
                f"{self.core} core diverged from the {self.reference} core "
                f"on {self.observable}",
                f"  {self.reference}: {self.expected!r}",
                f"  {self.core}: {self.actual!r}",
                f"  workload: {self.workload!r}",
            ]
        )


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, default=str)


def _first_difference(name: str, expected: Any, actual: Any) -> tuple | None:
    """Bounded (expected, actual) evidence, or None when they agree."""
    if name == "deliveries":
        return next(
            (pair for pair in zip_longest(expected, actual) if pair[0] != pair[1]),
            None,
        )
    if name == "metrics":
        keys = [
            key
            for key in sorted(set(expected) | set(actual))
            if _canonical(expected.get(key)) != _canonical(actual.get(key))
        ][:MAX_METRIC_KEYS]
        if not keys:
            return None
        return (
            {key: expected.get(key) for key in keys},
            {key: actual.get(key) for key in keys},
        )
    return None if expected == actual else (expected, actual)


def compare(workload: Any) -> Divergence | None:
    """Run *workload* on the object core and on the array core.

    *workload* is anything whose ``run(core)`` returns a drained network
    (or a drained stream service, which reads like one).
    Returns the first disagreement, checked in :data:`OBSERVABLES` order
    with the object core as the reference, or None when they agree.
    """
    expected = observe(workload.run("object"))
    actual = observe(workload.run("array"))
    for name in OBSERVABLES:
        evidence = _first_difference(name, expected[name], actual[name])
        if evidence is not None:
            return Divergence(name, "object", "array", *evidence, workload)
    return None


# -- differential oracle ------------------------------------------------------


@dataclass
class LegResult:
    """One delivery of a re-enacted transaction on the flit-level network."""

    transaction: int
    leg: str
    source: object
    destination: object
    predicted_hops: int
    delivered_hops: int


@dataclass
class OracleReport:
    """Everything :func:`run_oracle` observed, diffable and printable."""

    design: str
    scheme: str
    benchmark: str
    measure: int
    seed: int
    engine_source: str = "computed"
    accesses: int = 0
    engine_hits: int = 0
    replay_hits: int = 0
    engine_digest: str | None = None
    replay_digest: str | None = None
    conservation_checks: int = 0
    timing_checks: int = 0
    legs: list[LegResult] = field(default_factory=list)
    #: Protocol deliveries cross-checked across both cores: one per leg
    #: delivery, all compared unless a divergence is reported.
    array_legs: int = 0
    divergences: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary_line(self) -> str:
        verdict = "OK" if self.ok else f"{len(self.divergences)} DIVERGENCES"
        return (
            f"oracle {self.design}/{self.scheme}/{self.benchmark} "
            f"measure={self.measure} seed={self.seed}: {verdict} "
            f"({self.accesses} accesses, {self.conservation_checks} content "
            f"checks, {len(self.legs)} flit legs, "
            f"{self.array_legs} array-core cross-checks)"
        )

    def render(self) -> str:
        lines = [self.summary_line()]
        lines.append(
            f"  engine[{self.engine_source}] hits={self.engine_hits} "
            f"digest={self.engine_digest}"
        )
        lines.append(
            f"  replay[checked]  hits={self.replay_hits} "
            f"digest={self.replay_digest}"
        )
        for leg in self.legs:
            mark = "ok" if leg.delivered_hops == leg.predicted_hops else "!!"
            lines.append(
                f"  [{mark}] txn {leg.transaction} {leg.leg}: "
                f"{leg.source}->{leg.destination} predicted "
                f"{leg.predicted_hops} hops, delivered {leg.delivered_hops}"
            )
        for divergence in self.divergences:
            lines.append(f"  DIVERGENCE: {divergence}")
        return "\n".join(lines)


class _TransactionRecorder:
    """Transaction validator that just remembers what ran (for sampling)."""

    def __init__(self) -> None:
        self.rows: list[tuple[int, bool, int | None]] = []

    def on_transaction(self, column, outcome, timing) -> None:
        self.rows.append((column, timing.hit, timing.bank_position))


def _sample_indices(count: int, sample: int) -> list[int]:
    """Evenly spread, deterministic, unique indices into ``range(count)``."""
    if count <= 0 or sample <= 0:
        return []
    if sample >= count:
        return list(range(count))
    step = (count - 1) / (sample - 1) if sample > 1 else 0
    return sorted({round(i * step) for i in range(sample)})


def _oracle_sample(rows: list[tuple[int, bool, int | None]],
                   sample: int) -> list[int]:
    """Indices of the *sample* recorded transactions to re-enact, in
    trace order.

    Half the sample, rounded up, is spread evenly over the misses (all of
    them, if fewer), so the memory legs are hop-checked whenever the cell
    misses at all; the rest is spread evenly over the hits. A cell
    without a miss samples evenly over all its transactions.
    """
    misses = [i for i, (_, hit, _) in enumerate(rows) if not hit]
    hits = [i for i, (_, hit, _) in enumerate(rows) if hit]
    chosen = [misses[i] for i in _sample_indices(len(misses), (sample + 1) // 2)]
    chosen += [hits[i] for i in _sample_indices(len(hits), sample - len(chosen))]
    return sorted(chosen)


def _play(protocol: FlitLevelCacheProtocol, sample: tuple) -> None:
    """Play one sampled ``(column, hit, bank_position)`` transaction."""
    column, hit, position = sample
    if hit:
        protocol.run_hit(column, position)
    else:
        protocol.run_miss(column)


@dataclass(frozen=True)
class ProtocolWorkload:
    """Sampled transactions of one cell, replayed on a fresh protocol.

    Plain data whose ``repr`` round-trips: ``samples`` holds the
    ``(column, hit, bank_position)`` of each transaction, played in
    order through :class:`~repro.noc.protocol.FlitLevelCacheProtocol`.
    """

    design: str
    scheme: str
    samples: tuple = ()

    def run(self, core: str) -> Any:
        """The drained network of a fresh protocol on *core*."""
        protocol = FlitLevelCacheProtocol(self.design, self.scheme, core=core)
        for sample in self.samples:
            _play(protocol, sample)
        return protocol.network


def run_oracle(
    design: str = "A",
    scheme: str = "multicast+fast_lru",
    benchmark: str = "art",
    measure: int = 240,
    seed: int = 1,
    sample: int = 4,
) -> OracleReport:
    """Differentially validate one cell; returns the full report.

    The engine path goes through :func:`run_cells` (so cached and pooled
    results are what gets validated -- exactly what figures consume), the
    replay path runs fresh under invariant checkers, and *sample* measured
    transactions are re-enacted through the flit-level protocol: on a
    checked object network against the geometry's hop counts, and through
    :func:`compare` across both cores.
    """
    from repro.core.system import NetworkedCacheSystem
    from repro.experiments.common import ExperimentConfig
    from repro.experiments.runner import (
        last_batch,
        run_cells,
        spec_for,
        trace_with_warmup,
    )
    from repro.workloads.profiles import profile_by_name

    config = ExperimentConfig(measure=measure, seed=seed)
    spec = spec_for(design, scheme, benchmark, config)
    report = OracleReport(
        design=spec.design,
        scheme=spec.scheme,
        benchmark=spec.benchmark,
        measure=measure,
        seed=seed,
    )

    # Engine path: through the memo / persistent cache / worker fan-out.
    engine_result = run_cells([spec])[0]
    batch = last_batch()
    if batch is not None and batch.cells:
        report.engine_source = batch.cells[-1].source
    report.engine_hits = engine_result.content.hits
    report.engine_digest = engine_result.contents_digest

    # Checked replay: identical trace, fresh system, invariants installed.
    trace, warmup = trace_with_warmup(spec)
    profile = profile_by_name(spec.benchmark)
    system = NetworkedCacheSystem(design=spec.design, scheme=spec.scheme)
    conservation = BlockConservationChecker(
        shadow_lru=system.scheme.policy.name in ("lru", "fast_lru")
    )
    timing_checker = TransactionTimingChecker()
    recorder = _TransactionRecorder()
    system.array.validator = conservation
    system.engine.validators.extend([timing_checker, recorder])
    replay_result = system.run(trace, profile, warmup=warmup)
    report.accesses = replay_result.accesses
    report.replay_hits = replay_result.content.hits
    report.replay_digest = replay_result.contents_digest
    report.conservation_checks = conservation.checked
    report.timing_checks = timing_checker.checked

    # Diff the two content-model outcomes.
    if report.engine_hits != report.replay_hits:
        report.divergences.append(
            f"hit counts diverge: engine {report.engine_hits}, "
            f"replay {report.replay_hits}"
        )
    if engine_result.content.misses != replay_result.content.misses:
        report.divergences.append(
            f"miss counts diverge: engine {engine_result.content.misses}, "
            f"replay {replay_result.content.misses}"
        )
    if report.engine_digest != report.replay_digest:
        report.divergences.append(
            f"final bank contents diverge: engine digest "
            f"{report.engine_digest}, replay {report.replay_digest}"
        )
    if engine_result.accesses != replay_result.accesses:
        report.divergences.append(
            f"measured access counts diverge: engine "
            f"{engine_result.accesses}, replay {replay_result.accesses}"
        )

    # Flit-level re-enactment of a deterministic transaction sample, on a
    # checked object network: every delivery against the geometry's hops.
    indices = _oracle_sample(recorder.rows, sample)
    samples = tuple(recorder.rows[i] for i in indices)
    protocol = FlitLevelCacheProtocol(spec.design, spec.scheme)
    network = protocol.network
    topology = protocol.geometry.topology
    routing = protocol.geometry.routing
    for checker in default_network_checkers(topology):
        network.install_checker(checker)
    for txn_index, transaction in zip(indices, samples):
        already = len(network.stats.deliveries)
        _play(protocol, transaction)
        for delivery in network.stats.deliveries[already:]:
            leg = protocol.roles[delivery.packet.packet_id]
            source = delivery.packet.source
            predicted = routing.hops(topology, source, delivery.destination) + 1
            report.legs.append(
                LegResult(
                    transaction=txn_index,
                    leg=leg,
                    source=source,
                    destination=delivery.destination,
                    predicted_hops=predicted,
                    delivered_hops=delivery.hops,
                )
            )
            if delivery.hops != predicted:
                report.divergences.append(
                    f"txn {txn_index} {leg} {source}->"
                    f"{delivery.destination}: flit level delivered "
                    f"{delivery.hops} hops, transaction model assumes "
                    f"{predicted}"
                )
    for checker in network.checkers:
        checker.final_check(network)
    divergence = compare(ProtocolWorkload(spec.design, spec.scheme, samples))
    if divergence is not None:
        report.divergences.append(divergence.render())
    report.array_legs = len(report.legs)
    return report
