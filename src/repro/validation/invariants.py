"""Invariant checkers installable on live simulations.

Network-side checkers subclass :class:`NetworkChecker` and are attached
with :meth:`Network.install_checker`; they observe injections, switch
traversals, multicast replications, deliveries, and cycle boundaries, and
raise :class:`~repro.errors.ValidationError` the moment an invariant
breaks -- at the cycle it breaks, not when the run's aggregate statistics
finally look wrong.

Checked invariants:

* **flit conservation** -- injected + replicated flits always equal
  ejected + buffered + in-flight flits;
* **credit conservation** -- for every channel, upstream credits plus
  downstream buffer occupancy plus flits on the wire equal the buffer
  depth (the credit flow-control loop never leaks or mints a slot);
* **XYX channel ordering** -- every granted channel's Fig. 5(b)
  enumeration number strictly exceeds the holder's (the online form of
  the deadlock-freedom proof); replicas inherit their original's number;
* **multicast delivery completeness** -- every destination of every
  injected packet is delivered exactly once (duplicates already raise in
  the network itself);
* **block conservation** -- a bank set's contents change by exactly
  {+filled tag, -victim tag} per access, no block duplicated or dropped
  across an eviction chain, with an independent shadow-LRU ordering oracle
  for LRU/Fast-LRU;
* **transaction timing sanity** -- per-access timings are causally
  ordered and consistent with the content outcome;
* **deadlock/livelock watchdog** -- a checked network run aborts when no
  flit makes progress for a stall window.
"""

from __future__ import annotations

from collections import Counter

from repro.errors import ValidationError
from repro.noc.router import EJECT, INJECT
from repro.noc.routing import xyx_channel_number
from repro.noc.topology import SimplifiedMeshTopology


class NetworkChecker:
    """Base class: every hook is a no-op; subclasses override a subset."""

    name = "checker"

    def on_inject(self, network, packet) -> None:
        pass

    def on_switch(self, router, in_port, forward, cycle) -> None:
        pass

    def on_replicate(
        self, router, original, replica, borrow_port, borrow_vc, cycle
    ) -> None:
        pass

    def on_delivery(self, delivery) -> None:
        pass

    def after_cycle(self, network, cycle) -> None:
        pass

    def final_check(self, network) -> None:
        pass


class FlitConservationChecker(NetworkChecker):
    """Injected + replicated == ejected + buffered + in flight, each cycle."""

    name = "flit-conservation"

    def after_cycle(self, network, cycle) -> None:
        routers = network.routers.values()
        created = network.stats.flits_injected + sum(
            r.stats.replications for r in routers
        )
        ejected = sum(r.stats.flits_ejected for r in routers)
        buffered = network.total_buffered_flits()
        in_flight = network.in_flight_flits()
        if created != ejected + buffered + in_flight:
            raise ValidationError(
                f"flit conservation broken at cycle {cycle}: "
                f"{created} created != {ejected} ejected + "
                f"{buffered} buffered + {in_flight} in flight"
            )

    def final_check(self, network) -> None:
        if network.total_buffered_flits():
            raise ValidationError(
                f"{network.total_buffered_flits()} flits still buffered "
                "after the network drained"
            )


class CreditConservationChecker(NetworkChecker):
    """Per-channel credit loop accounting, checked every cycle.

    For each channel ``u -> v`` and VC ``i``: the credits ``u`` holds, plus
    the occupancy of ``v``'s input VC, plus flits on the wire toward that
    VC, must equal the configured buffer depth. Multicast replication
    steals an upstream credit exactly when it occupies the borrowed VC, so
    the identity survives replication too.
    """

    name = "credit-conservation"

    def after_cycle(self, network, cycle) -> None:
        depth = network.router_config.buffer_depth
        in_flight: Counter = Counter()
        for batch in network._arrivals.values():
            for dst, in_port, vc_index, _flit in batch:
                in_flight[(dst, in_port, vc_index)] += 1
        for node, router in network.routers.items():
            for (out_port, vc_index), credits in router.credits.items():
                downstream = network.routers[out_port]
                occupancy = len(downstream.inputs[node][vc_index].fifo)
                wire = in_flight[(out_port, node, vc_index)]
                if credits + occupancy + wire != depth:
                    raise ValidationError(
                        f"credit conservation broken on {node}->{out_port} "
                        f"vc {vc_index} at cycle {cycle}: {credits} credits "
                        f"+ {occupancy} buffered + {wire} on wire "
                        f"!= depth {depth}"
                    )


class ChannelOrderChecker(NetworkChecker):
    """Online XYX deadlock-freedom: grants must ascend the enumeration.

    Tracks the Fig. 5(b) number of the channel each flit currently holds;
    every switch traversal onto a new channel must strictly increase it
    (Dally & Seitz: an acyclic channel dependency graph cannot deadlock).
    Replicas inherit the holder's number, and ejection releases it.
    """

    name = "xyx-channel-order"

    def __init__(self, topology) -> None:
        if not isinstance(topology, SimplifiedMeshTopology):
            raise ValidationError(
                "the XYX channel enumeration is defined on simplified "
                f"meshes; got {topology.name!r}"
            )
        self.cols = topology.cols
        self.rows = topology.rows
        self._held: dict[int, int] = {}
        self.grants_checked = 0

    def on_switch(self, router, in_port, forward, cycle) -> None:
        flit_id = forward.flit.flit_id
        if forward.out_port == EJECT:
            self._held.pop(flit_id, None)
            return
        granted = xyx_channel_number(
            self.cols, self.rows, router.node, forward.out_port
        )
        held = self._held.get(flit_id)
        if held is not None and granted <= held:
            raise ValidationError(
                f"XYX channel-order violation at {router.node} cycle "
                f"{cycle}: flit {flit_id} holds channel #{held} but was "
                f"granted #{granted} ({router.node}->{forward.out_port}); "
                "the enumeration must strictly increase along every path"
            )
        self._held[flit_id] = granted
        self.grants_checked += 1

    def on_replicate(
        self, router, original, replica, borrow_port, borrow_vc, cycle
    ) -> None:
        held = self._held.get(original.flit_id)
        if held is not None:
            self._held[replica.flit_id] = held


class MulticastDeliveryChecker(NetworkChecker):
    """Every destination of every injected packet is delivered once."""

    name = "multicast-delivery"

    def __init__(self) -> None:
        self._expected: set[tuple[int, object]] = set()
        self._delivered: Counter = Counter()

    def on_inject(self, network, packet) -> None:
        for destination in packet.destinations:
            self._expected.add((packet.packet_id, destination))

    def on_delivery(self, delivery) -> None:
        key = (delivery.packet.packet_id, delivery.destination)
        self._delivered[key] += 1
        if key not in self._expected:
            raise ValidationError(
                f"packet {key[0]} delivered to {key[1]}, which was never "
                "one of its destinations"
            )
        if self._delivered[key] > 1:
            raise ValidationError(
                f"packet {key[0]} delivered to {key[1]} "
                f"{self._delivered[key]} times"
            )

    def missing(self) -> list[tuple[int, object]]:
        return sorted(
            (key for key in self._expected if not self._delivered[key]),
            key=str,
        )

    def final_check(self, network) -> None:
        missing = self.missing()
        if missing:
            raise ValidationError(
                f"{len(missing)} (packet, destination) deliveries never "
                f"completed: {missing[:8]}"
            )


def default_network_checkers(topology) -> list[NetworkChecker]:
    """The checker set appropriate for *topology* (XYX order only applies
    to simplified meshes, where the Fig. 5(b) enumeration is defined)."""
    checkers: list[NetworkChecker] = [
        FlitConservationChecker(),
        CreditConservationChecker(),
        MulticastDeliveryChecker(),
    ]
    if isinstance(topology, SimplifiedMeshTopology):
        checkers.append(ChannelOrderChecker(topology))
    return checkers


def run_with_checkers(
    network,
    max_cycles: int = 20_000,
    stall_limit: int = 300,
) -> int:
    """Drive *network* until drained under its installed checkers.

    Unlike ``run_until_drained`` this aborts as soon as no flit makes
    progress for *stall_limit* consecutive cycles (a deadlock or a lost
    flit stalls immediately instead of burning ``max_cycles``), then runs
    every checker's ``final_check``. Returns the cycles consumed.
    """
    start = network.cycle
    stall_anchor = network.cycle
    last_signature = None
    while network.pending_work():
        if network.cycle - start >= max_cycles:
            raise ValidationError(
                f"checked network run exceeded {max_cycles} cycles; "
                f"outstanding: {network.outstanding_deliveries()[:8]}"
            )
        network.step()
        routers = network.routers.values()
        signature = (
            network.stats.flits_injected,
            sum(r.stats.flits_ejected for r in routers),
            sum(r.stats.flits_forwarded for r in routers),
            sum(r.stats.replications for r in routers),
        )
        if signature != last_signature:
            last_signature = signature
            stall_anchor = network.cycle
            continue
        # A pending timed injection counts as legitimately waiting, not
        # a stall.
        upcoming = network.next_timed_injection()
        if upcoming is not None and upcoming >= network.cycle:
            stall_anchor = network.cycle  # legitimately waiting
            continue
        if network.cycle - stall_anchor >= stall_limit:
            raise ValidationError(
                f"no forward progress for {stall_limit} cycles (cycle "
                f"{network.cycle}); suspected deadlock or lost flit; "
                f"outstanding: {network.outstanding_deliveries()[:8]}"
            )
    for checker in network.checkers:
        checker.final_check(network)
    return network.cycle - start


# -- cache-content and transaction checkers ---------------------------------


class BlockConservationChecker:
    """Content-model invariant: accesses conserve the block multiset.

    On every access the after-state must equal the before-state plus the
    filled tag (on a miss) minus the victim's tag (when one was evicted);
    no tag may ever appear twice in one set. For LRU and Fast-LRU an
    independent shadow recency list additionally pins the exact ordering
    and the victim identity (Fast-LRU is *content-wise* LRU -- its whole
    trick is timing).

    Install on a :class:`~repro.cache.array.CacheArray` via its
    ``validator`` attribute, or drive :meth:`check` directly.
    """

    name = "block-conservation"

    def __init__(self, shadow_lru: bool = False) -> None:
        self.shadow_lru = shadow_lru
        self._shadow: dict[object, list[int]] = {}
        self.checked = 0

    def on_access(self, key, tag, before, state, outcome) -> None:
        self.check(tag, before, state, outcome, key=key)

    def check(self, tag, before, state, outcome, key=None) -> None:
        after = Counter(state.resident_tags())
        duplicated = [t for t, n in after.items() if n > 1]
        if duplicated:
            raise ValidationError(
                f"block(s) {duplicated} duplicated in set {key} after "
                f"accessing tag {tag}"
            )
        expected = Counter(before)
        if not outcome.hit:
            expected[tag] += 1
            if outcome.victim is not None:
                if expected[outcome.victim.tag] <= 0:
                    raise ValidationError(
                        f"set {key} evicted tag {outcome.victim.tag}, "
                        "which was not resident"
                    )
                expected[outcome.victim.tag] -= 1
        expected = +expected  # drop zero entries
        if after != expected:
            raise ValidationError(
                f"block conservation broken in set {key} accessing tag "
                f"{tag}: expected {sorted(expected.elements())}, found "
                f"{sorted(after.elements())} "
                f"(hit={outcome.hit}, victim={outcome.victim})"
            )
        if self.shadow_lru:
            self._check_shadow(tag, state, outcome, key)
        self.checked += 1

    def _check_shadow(self, tag, state, outcome, key) -> None:
        shadow = self._shadow.setdefault(key, [])
        if outcome.hit:
            shadow.remove(tag)
            shadow.insert(0, tag)
        else:
            shadow.insert(0, tag)
            victim_tag = None
            if len(shadow) > state.associativity:
                victim_tag = shadow.pop()
            found_victim = None if outcome.victim is None else outcome.victim.tag
            if victim_tag != found_victim:
                raise ValidationError(
                    f"set {key}: shadow LRU expected victim {victim_tag}, "
                    f"policy evicted {found_victim}"
                )
        resident = state.resident_tags()
        if resident != shadow:
            raise ValidationError(
                f"set {key}: contents diverged from shadow LRU ordering "
                f"after tag {tag}: policy {resident} != shadow {shadow}"
            )


class TransactionTimingChecker:
    """Per-transaction causality and outcome-consistency checks.

    Install on a :class:`~repro.core.flows.TransactionEngine` via its
    ``validators`` list.
    """

    name = "transaction-timing"

    def __init__(self) -> None:
        self.checked = 0

    def on_transaction(self, column, outcome, timing) -> None:
        problems = []
        if timing.data_at_core < timing.issued:
            problems.append("data returned before issue")
        if timing.completion < timing.data_at_core:
            problems.append("completed before data returned")
        if timing.settled < timing.data_at_core:
            problems.append("settled before data returned")
        if timing.bank_cycles < 0 or timing.memory_cycles < 0:
            problems.append("negative latency component")
        if timing.hit != outcome.hit:
            problems.append(
                f"timing says hit={timing.hit}, contents say {outcome.hit}"
            )
        if timing.hit and timing.bank_position != outcome.bank:
            problems.append(
                f"hit bank mismatch: timing {timing.bank_position}, "
                f"contents {outcome.bank}"
            )
        if not timing.hit and timing.memory_cycles <= 0:
            problems.append("miss with no memory cycles")
        if problems:
            raise ValidationError(
                f"transaction timing invalid on column {column}: "
                + "; ".join(problems)
                + f" (timing={timing})"
            )
        self.checked += 1


_ = INJECT  # re-exported port names are part of checker call sites
