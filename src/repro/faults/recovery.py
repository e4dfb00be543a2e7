"""Degraded timing: truncated columns, rerouting, bounded-backoff retries.

Faults are modeled at the transaction level (DESIGN.md §11).
:class:`DegradedCacheGeometry` builds the timing geometry over the
surviving fabric of a :class:`~repro.faults.models.FaultPlan`: columns are
truncated to their live prefix (:func:`truncate_columns`), routes come
from :class:`~repro.faults.reroute.DegradedRouting`, and each traversal
runs a seeded transient-loss retry loop charging ``timeout + backoff``
per attempt (:data:`RETRY_TIMEOUT`, :func:`backoff`). Zero-fault plans
draw no randomness and add no cycles, so a degraded geometry with an
empty plan is bit-identical to the base.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.geometry import CacheGeometry, Segment
from repro.errors import ConfigurationError
from repro.faults.models import FaultPlan
from repro.faults.reroute import DegradedRouting, verify_degraded
from repro.noc.routing import routing_for
from repro.noc.topology import HaloTopology, Topology, spike_node
from repro.telemetry.registry import RECOVERY_LATENCY_EDGES


#: Cycles after issue before an undelivered message is presumed lost.
RETRY_TIMEOUT = 64
#: Re-sends of one traversal before its loss is escalated out of band.
MAX_RETRIES = 8


def backoff(attempt: int) -> int:
    """Cycles retry *attempt* (0-based) waits after its timeout:
    ``4 * 2**attempt``, capped at 256."""
    return min(4 * 2**attempt, 256)


def truncate_columns(
    topology: Topology,
    columns: list,
    plan: FaultPlan,
    routing: DegradedRouting | None = None,
) -> list:
    """Live prefix of each bank column under *plan*.

    A column is cut at its first dead position -- a bank whose router lost
    a *legal* round trip to the core (link cuts with no XYX-legal detour).
    The Fast-LRU eviction chain runs strictly
    down the column, so banks past a dead position cannot participate even
    when their routers still answer. Prefixes keep positions dense
    (0..k-1), which preserves every ``bank_of_way`` value in the content
    model.
    """
    if routing is None:
        routing = DegradedRouting(
            topology, routing_for(topology), plan.dead_channels()
        )
    core = topology.core_attach
    if core is None:
        raise ConfigurationError(f"{topology.name} has no core attach point")
    is_halo = isinstance(topology, HaloTopology)
    out = []
    for col, descriptors in enumerate(columns):
        kept = []
        for descriptor in descriptors:
            node = (
                spike_node(col, descriptor.position)
                if is_halo
                else (col, descriptor.position)
            )
            if not routing.can_route(core, node) or not routing.can_route(
                node, core
            ):
                break
            kept.append(descriptor)
        if not kept:
            raise ConfigurationError(
                f"fault plan {plan.describe()!r} kills every bank of "
                f"column {col}; the cache cannot serve its address range"
            )
        out.append(kept)
    return out


@dataclass
class TransactionFaultStats:
    """Fault/recovery counters of one degraded transaction-level run."""

    rerouted_traversals: int = 0
    retries: int = 0
    #: Traversals whose transient losses outlived the retry budget (the
    #: message is escalated out-of-band; the access completes degraded).
    exhausted_retries: int = 0
    #: Extra cycles each recovered traversal spent in timeout + backoff.
    recovery_penalties: list = field(default_factory=list)


class DegradedCacheGeometry(CacheGeometry):
    """A :class:`CacheGeometry` over the surviving fabric of a fault plan.

    Construction truncates columns to their live prefixes, swaps in
    degraded routing, and proof-checks every endpoint pair it can ever
    route. ``reserve_segment`` then counts rerouted traversals
    and runs the seeded transient retry loop on every segment. Because it
    is overridden, the column walks reserve every link through it too, one
    call per segment, instead of granting the hops inline; with a null
    plan both additions are inert and the geometry times identically to
    the base class.
    """

    def __init__(
        self,
        topology: Topology,
        columns: list,
        plan: FaultPlan,
        *,
        seed: int = 0,
        router_config=None,
        spike_queue_entries: int = 2,
    ) -> None:
        routing = DegradedRouting(
            topology, routing_for(topology), plan.dead_channels()
        )
        live_columns = truncate_columns(topology, columns, plan, routing)
        super().__init__(
            topology,
            live_columns,
            routing=routing,
            router_config=router_config,
            spike_queue_entries=spike_queue_entries,
        )
        self.fault_plan = plan
        self.fault_seed = seed
        self.fault_stats = TransactionFaultStats()
        transients = plan.transients
        self._transient_rate = transients.drop_rate if transients else 0.0
        self._rng = random.Random(f"faults/txn/{seed}")
        # Proof-check every endpoint pair this geometry can route.
        endpoints = {self.core_node, self.memory_node}
        for col in range(self.num_columns):
            for pos in range(self.banks_per_column(col)):
                endpoints.add(self.bank_node(col, pos))
        ordered = sorted(endpoints, key=str)
        verify_degraded(
            topology,
            routing,
            pairs=[(s, d) for s in ordered for d in ordered if s != d],
        )

    def reserve_segment(
        self,
        segment: Segment,
        time: int,
        flits: int,
        waypoints: list[int] | None = None,
    ) -> int:
        if self.routing.is_rerouted(segment.src, segment.dst):
            self.fault_stats.rerouted_traversals += 1
        arrival = super().reserve_segment(segment, time, flits, waypoints)
        if self._transient_rate <= 0.0:
            return arrival
        first_arrival = arrival
        attempt = 0
        send_time = time
        while self._rng.random() < self._transient_rate:
            if attempt >= MAX_RETRIES:
                self.fault_stats.exhausted_retries += 1
                break
            # The sender detects the loss one timeout after issue, backs
            # off, and re-sends; the wire/bank reservations of the doomed
            # attempt stay charged (the flits did occupy them).
            resend = send_time + RETRY_TIMEOUT + backoff(attempt)
            # The caller charges the segment as one traversal from *time*
            # to the final arrival. Charging each abandoned attempt as a
            # traversal from the resend to its own arrival makes the
            # totals equal one charge per attempt (send to arrival).
            self.charge_traversals(arrival - resend, segment.cost, 1, flits)
            if waypoints:
                waypoints.clear()  # only the delivered attempt's heads count
            arrival = super().reserve_segment(segment, resend, flits, waypoints)
            send_time = resend
            self.fault_stats.retries += 1
            attempt += 1
        if attempt:
            self.fault_stats.recovery_penalties.append(
                arrival - first_arrival
            )
        return arrival

    def reset_contention(self) -> None:
        super().reset_contention()
        self.fault_stats = TransactionFaultStats()
        self.routing.detour_hops = 0

    def publish_metrics(self, registry) -> None:
        super().publish_metrics(registry)
        plan = self.fault_plan
        registry.counter("faults.injected").set(len(plan.links))
        stats = self.fault_stats
        registry.counter("faults.rerouted_packets").set(
            stats.rerouted_traversals
        )
        registry.counter("faults.retries").set(stats.retries)
        registry.counter("faults.exhausted_retries").set(
            stats.exhausted_retries
        )
        registry.counter("noc.reroute.detour_hops").set(
            self.routing.detour_hops
        )
        histogram = registry.histogram(
            "faults.recovery_latency", RECOVERY_LATENCY_EDGES
        )
        for penalty in stats.recovery_penalties:
            histogram.record(penalty)
