"""End-to-end recovery: timeouts, bounded-backoff retransmit, degradation.

Two layers mirror the repo's two fidelities (DESIGN.md §11):

* **Flit level** -- :class:`RecoveryManager` installs on a
  :class:`~repro.noc.network.Network` like an invariant checker and gives
  every injected packet a per-message retry state machine::

      TRACKED --deliver--> DONE
      TRACKED --loss/timeout--> BACKOFF --retransmit--> TRACKED (attempt+1)
      TRACKED --loss/timeout, attempt == max_retries--> ABANDONED

  A timeout purges the stale wormhole from the fabric (with exact credit
  restitution, via :meth:`Network.purge_packet`) before the clone is
  scheduled, so flit and credit conservation stay green across recovery.
  Retransmit clones carry fresh packet ids; ``on_retransmit`` callbacks
  let the protocol layer re-adopt message roles -- this is how a lost
  Fast-LRU eviction-chain leg is re-issued instead of silently losing a
  block.

* **Transaction level** -- :class:`DegradedCacheGeometry` builds the
  timing geometry over the surviving fabric: columns are truncated to
  their live prefix (:func:`truncate_columns`), routes come from
  :class:`~repro.faults.reroute.DegradedRouting`, and each traversal runs
  a seeded transient-loss retry loop charging ``timeout + backoff``
  per attempt. Zero-fault plans draw no randomness and add no cycles, so
  a degraded geometry with an empty plan is bit-identical to the base.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields

from repro.core.geometry import CacheGeometry, Segment
from repro.errors import ConfigurationError
from repro.faults.models import FaultInjector, FaultPlan
from repro.faults.reroute import DegradedRouting, verify_degraded
from repro.noc.packet import Packet
from repro.noc.routing import routing_for
from repro.noc.topology import HaloTopology, Topology, spike_node
from repro.sim.kernel import DeadlineQueue
from repro.telemetry.registry import RECOVERY_LATENCY_EDGES


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for end-to-end retransmission."""

    #: Cycles after injection before an undelivered message is presumed lost.
    timeout: int = 64
    #: Backoff before retry k is ``min(backoff_base * 2**k, backoff_cap)``.
    backoff_base: int = 4
    backoff_cap: int = 256
    max_retries: int = 8

    def __post_init__(self) -> None:
        if self.timeout < 1 or self.backoff_base < 0 or self.max_retries < 0:
            raise ConfigurationError(f"invalid retry policy {self}")

    def backoff(self, attempt: int) -> int:
        return min(self.backoff_base * (2 ** attempt), self.backoff_cap)


@dataclass
class RecoveryStats:
    """Counters kept by a :class:`RecoveryManager`."""

    timeouts: int = 0
    retries: int = 0
    #: Messages that delivered after at least one retransmission.
    recovered_messages: int = 0
    #: Messages given up on after ``max_retries`` retransmissions.
    abandoned_messages: int = 0
    abandoned_destinations: int = 0
    #: First-injection-to-final-delivery latency of recovered messages.
    recovery_latencies: list = field(default_factory=list)

    def publish_metrics(self, registry) -> None:
        registry.counter("faults.timeouts").inc(self.timeouts)
        registry.counter("faults.retries").inc(self.retries)
        registry.counter("faults.recovered_messages").inc(
            self.recovered_messages
        )
        registry.counter("faults.abandoned_messages").inc(
            self.abandoned_messages
        )
        histogram = registry.histogram(
            "faults.recovery_latency", RECOVERY_LATENCY_EDGES
        )
        for latency in self.recovery_latencies:
            histogram.record(latency)

    def as_dict(self) -> dict:
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "recovery_latencies"
        }


class _MessageRecord:
    __slots__ = ("packet", "outstanding", "attempt", "origin", "first_cycle")

    def __init__(self, packet, outstanding, attempt, origin, first_cycle):
        self.packet = packet
        self.outstanding = outstanding
        self.attempt = attempt
        self.origin = origin
        self.first_cycle = first_cycle


class RecoveryManager:
    """Per-message timeout + retransmit, installed like a checker.

    Implements the full :class:`NetworkChecker` hook surface (duck-typed)
    plus a :class:`~repro.sim.kernel.DeadlineQueue` of per-message retry
    timers that the network consults through its wakeup-source registry,
    so checked runs never mistake a backoff wait for a stall.
    """

    name = "recovery"

    def __init__(self, policy: RetryPolicy | None = None) -> None:
        self.policy = policy or RetryPolicy()
        self.stats = RecoveryStats()
        self.deadlines = DeadlineQueue()
        self.network = None
        self._records: dict[int, _MessageRecord] = {}
        #: clone packet_id -> (attempt, origin pid, first injection cycle),
        #: pre-registered before the retransmit is scheduled.
        self._adopt: dict[int, tuple[int, int, int]] = {}
        self._retransmit_callbacks: list = []

    def install(self, network) -> None:
        self.network = network
        network.install_checker(self)
        network.register_wakeup_source(self.deadlines.peek)

    def on_retransmit(self, callback) -> None:
        """Register ``callback(lost_packet, clone_packet)`` fired when a
        message is re-issued (protocol role adoption hooks in here)."""
        self._retransmit_callbacks.append(callback)

    def outstanding_messages(self) -> int:
        return len(self._records)

    # -- checker hook surface ----------------------------------------------

    def on_inject(self, network, packet) -> None:
        pid = packet.packet_id
        adopted = self._adopt.pop(pid, None)
        if adopted is None:
            attempt, origin, first_cycle = 0, pid, network.cycle
        else:
            attempt, origin, first_cycle = adopted
        self._records[pid] = _MessageRecord(
            packet=packet,
            outstanding=set(packet.destinations),
            attempt=attempt,
            origin=origin,
            first_cycle=first_cycle,
        )
        self.deadlines.arm(pid, network.cycle + self.policy.timeout)

    def on_delivery(self, delivery) -> None:
        pid = delivery.packet.packet_id
        record = self._records.get(pid)
        if record is None:
            return
        record.outstanding.discard(delivery.destination)
        if record.outstanding:
            return
        self.deadlines.disarm(pid)
        del self._records[pid]
        if record.attempt > 0:
            self.stats.recovered_messages += 1
            self.stats.recovery_latencies.append(
                delivery.delivered_at - record.first_cycle
            )

    def on_packet_lost(self, network, packet, destinations) -> None:
        pid = packet.packet_id
        record = self._records.get(pid)
        if record is None:
            return
        lost = [d for d in destinations if d in record.outstanding]
        for destination in lost:
            record.outstanding.discard(destination)
        if not record.outstanding:
            self.deadlines.disarm(pid)
            del self._records[pid]
        if not lost:
            return
        # A destination with no legal degraded route can never be reached
        # by retrying -- abandon it now instead of spinning the backoff.
        routable = getattr(network.routing, "can_route", None)
        if routable is not None:
            viable = [d for d in lost if routable(packet.source, d)]
            if len(viable) < len(lost):
                self.stats.abandoned_destinations += len(lost) - len(viable)
                if not viable:
                    self.stats.abandoned_messages += 1
                    return
                lost = viable
        if record.attempt >= self.policy.max_retries:
            self.stats.abandoned_messages += 1
            self.stats.abandoned_destinations += len(lost)
            return
        clone = Packet(
            message=packet.message,
            source=packet.source,
            destinations=tuple(lost),
            address=packet.address,
            payload=packet.payload,
        )
        self._adopt[clone.packet_id] = (
            record.attempt + 1,
            record.origin,
            record.first_cycle,
        )
        network.schedule_injection(
            clone, network.cycle + self.policy.backoff(record.attempt)
        )
        self.stats.retries += 1
        for callback in self._retransmit_callbacks:
            callback(packet, clone)

    def after_cycle(self, network, cycle) -> None:
        if not len(self.deadlines):
            return
        for pid in self.deadlines.pop_due(cycle):
            record = self._records.get(pid)
            if record is None:
                continue
            if not record.outstanding:
                del self._records[pid]
                continue
            self.stats.timeouts += 1
            # Purge whatever is left of the overdue wormhole; the purge's
            # on_packet_lost notification performs the retransmit.
            network.purge_packet(record.packet, "timeout")

    def on_switch(self, router, in_port, forward, cycle) -> None:
        pass

    def on_replicate(
        self, router, original, replica, borrow_port, borrow_vc, cycle
    ) -> None:
        pass

    def final_check(self, network) -> None:
        pass


def install_resilience(
    network,
    plan: FaultPlan,
    *,
    seed: int = 0,
    policy: RetryPolicy | None = None,
    verify: bool = True,
):
    """Wire a fault plan onto a live flit-level network.

    Swaps in :class:`DegradedRouting` when links die (proof-checking it
    unless *verify* is disabled), installs the :class:`FaultInjector` as
    the network's fault controller, and attaches a
    :class:`RecoveryManager`. Returns ``(injector, recovery)``.
    """
    injector = FaultInjector(plan, seed=seed)
    if plan.links:
        degraded = DegradedRouting(
            network.topology, network.routing, plan.dead_channels()
        )
        network.routing = degraded
        for router in network.routers.values():
            router.routing = degraded
        injector.set_route_filter(degraded.can_route)
        if verify:
            verify_degraded(network.topology, degraded)
    network.install_fault_controller(injector)
    recovery = RecoveryManager(policy)
    recovery.install(network)
    return injector, recovery


# -- transaction-level degradation ------------------------------------------


def truncate_columns(
    topology: Topology,
    columns: list,
    plan: FaultPlan,
    routing: DegradedRouting | None = None,
) -> list:
    """Live prefix of each bank column under *plan*.

    A column is cut at its first dead position -- a bank whose router lost
    a *legal* round trip to the core (link cuts with no XYX-legal detour)
    or whose bank itself died. The Fast-LRU eviction chain runs strictly
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
    dead_banks = plan.dead_banks()
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
            if (
                node in dead_banks
                or not routing.can_route(core, node)
                or not routing.can_route(node, core)
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
    degraded routing, and (by default) proof-checks every endpoint pair it
    can ever route. ``reserve_segment`` then counts rerouted traversals
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
        policy: RetryPolicy | None = None,
        seed: int = 0,
        router_config=None,
        spike_queue_entries: int = 2,
        verify: bool = True,
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
        self.retry_policy = policy or RetryPolicy()
        self.fault_seed = seed
        self.fault_stats = TransactionFaultStats()
        transients = plan.transients
        self._transient_rate = transients.total_rate if transients else 0.0
        self._rng = random.Random(f"faults/txn/{seed}")
        if verify:
            self.verify_routes()

    def verify_routes(self) -> dict:
        """Proof-check every endpoint pair this geometry can route."""
        endpoints = {self.core_node, self.memory_node}
        for col in range(self.num_columns):
            for pos in range(self.banks_per_column(col)):
                endpoints.add(self.bank_node(col, pos))
        ordered = sorted(endpoints, key=str)
        pairs = [(s, d) for s in ordered for d in ordered if s != d]
        return verify_degraded(self.topology, self.routing, pairs=pairs)

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
        policy = self.retry_policy
        while self._rng.random() < self._transient_rate:
            if attempt >= policy.max_retries:
                self.fault_stats.exhausted_retries += 1
                break
            # The sender detects the loss one timeout after issue, backs
            # off, and re-sends; the wire/bank reservations of the doomed
            # attempt stay charged (the flits did occupy them).
            resend = send_time + policy.timeout + policy.backoff(attempt)
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
        registry.counter("faults.injected").set(
            len(plan.links) + len(plan.vcs) + len(plan.banks)
        )
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
