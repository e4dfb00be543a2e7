"""The single-cycle multicasting wormhole router (Section 3.1, Fig. 1).

Microarchitecture modeled:

* one input unit per physical channel (PC), each with ``num_vcs`` virtual
  channels of ``buffer_depth`` flits, plus an injection PC and an ejection
  output;
* VCs of one PC share a single crossbar input port, so at most one flit per
  input PC wins switch allocation per cycle, and each output port accepts
  one flit per cycle;
* credit-based flow control toward each downstream input VC;
* the single-cycle optimizations (lookahead routing, buffer bypassing,
  speculative switch allocation, arbitration precomputation) are modeled
  collectively as a one-cycle switch traversal with zero extra pipeline
  wait (``RouterConfig.single_cycle``); the classic pipelined router instead
  delays flits ``hop_latency - 1`` cycles before they may compete;
* hybrid multicast replication: when a (single-flit) multicast head needs
  to leave through several output ports, a replica is copied into a free VC
  of a *different, less-utilized* input PC -- consuming that PC's upstream
  credit -- and the two flits proceed independently (asynchronously). If no
  free VC exists anywhere, forwarding blocks and retries next cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import RouterConfig
from repro.errors import ProtocolError, SimulationError
from repro.noc.buffer import VirtualChannel, make_input_unit
from repro.noc.flit import Flit
from repro.noc.routing import RouteComputer
from repro.noc.topology import NodeId, Topology

INJECT = "inject"
EJECT = "eject"


@dataclass
class RouterStats:
    """Counters kept by each router."""

    flits_forwarded: int = 0
    flits_ejected: int = 0
    replications: int = 0
    replication_blocked_cycles: int = 0
    switch_conflicts: int = 0
    #: Head flits that found no free downstream VC with credit this cycle.
    vc_alloc_failures: int = 0
    #: Flits that crossed the router on their first eligible cycle with an
    #: otherwise-empty VC -- the single-cycle buffer-bypass case.
    buffer_bypass_hits: int = 0
    #: Head flits whose VC allocation and switch traversal landed in the
    #: same cycle (the speculative switch-allocation win).
    speculative_switch_wins: int = 0


@dataclass
class _Forward:
    """A flit leaving through an output port this cycle."""

    flit: Flit
    out_port: object
    out_vc: int | None


class Router:
    """One wormhole router instance bound to a topology node."""

    def __init__(
        self,
        node: NodeId,
        topology: Topology,
        routing: RouteComputer,
        config: RouterConfig,
    ) -> None:
        self.node = node
        self.topology = topology
        self.routing = routing
        self.config = config
        self.stats = RouterStats()

        in_ports = list(topology.predecessors(node)) + [INJECT]
        self.inputs: dict[object, list[VirtualChannel]] = {
            port: make_input_unit(port, config.num_vcs, config.buffer_depth)
            for port in in_ports
        }
        self.out_ports: list[object] = list(topology.successors(node)) + [EJECT]
        #: Free buffer slots at the downstream input VC for each output.
        self.credits: dict[tuple[object, int], int] = {
            (port, vc): config.buffer_depth
            for port in topology.successors(node)
            for vc in range(config.num_vcs)
        }
        #: Upstream router objects, wired by the Network (for credit return
        #: and replication credit stealing).
        self.upstream: dict[object, "Router"] = {}
        #: Downstream router objects, wired by the Network (for VC status).
        self.downstream: dict[object, "Router"] = {}

        #: Cycles a buffered body/tail flit sat blocked on downstream
        #: credit, keyed by (out_port, out_vc) -- the spatial congestion
        #: signal behind the ``noc.vc.credit_stall_cycles`` metrics.
        self.credit_stalls: dict[tuple[object, int], int] = {}
        self._rr_in: dict[object, int] = {port: 0 for port in self.inputs}
        self._rr_out: dict[object, int] = {port: 0 for port in self.out_ports}
        #: Arbitration tie-break ranks, precomputed so the switch-allocation
        #: hot loop never re-stringifies port names.
        self._in_rank: dict[object, str] = {port: str(port) for port in in_ports}
        #: Validation observers (installed via Network.install_checker);
        #: notified after each committed switch traversal and each
        #: multicast replication. Empty in normal runs.
        self.observers: list = []

    # -- wiring ------------------------------------------------------------

    def connect(self, neighbors: dict[NodeId, "Router"]) -> None:
        """Bind upstream/downstream router references."""
        for port in self.inputs:
            if port != INJECT and port in neighbors:
                self.upstream[port] = neighbors[port]
        for port in self.out_ports:
            if port != EJECT and port in neighbors:
                self.downstream[port] = neighbors[port]

    # -- credit flow ------------------------------------------------------

    def return_credit(self, from_node: NodeId, vc_index: int) -> None:
        """Downstream freed one slot of our channel toward *from_node*."""
        key = (from_node, vc_index)
        self.credits[key] += 1
        if self.credits[key] > self.config.buffer_depth:
            raise SimulationError(f"credit overflow on {self.node}->{from_node}")

    def _pop(self, port: object, vc: VirtualChannel) -> Flit:
        """Pop a flit and return the freed slot's credit upstream."""
        flit = vc.pop()
        if port != INJECT:
            upstream = self.upstream.get(port)
            if upstream is not None:
                upstream.return_credit(self.node, vc.index)
        return flit

    # -- route computation --------------------------------------------------

    def _output_groups(self, flit: Flit) -> dict[object, tuple]:
        """Group the head flit's destinations by required output port."""
        node = self.node
        next_hop = self.routing.next_hop
        topology = self.topology
        groups: dict[object, list] = {}
        for destination in flit.destinations:
            if destination == node:
                port = EJECT
            else:
                port = next_hop(topology, node, destination)
            groups.setdefault(port, []).append(destination)
        return {port: tuple(dsts) for port, dsts in groups.items()}

    # -- multicast replication (Section 3.1 hybrid scheme) ------------------

    def replication_phase(self, cycle: int) -> None:
        """Split multicast heads that need several output ports.

        The continuing group stays in its VC; each extra group is cloned
        into a free VC of a different PC (less-utilized PCs preferred),
        stealing that PC's upstream credit so flow control stays sound.
        """
        for port, unit in self.inputs.items():
            for vc in unit:
                fifo = vc.fifo
                if not fifo:
                    continue
                flit = fifo[0]
                if not flit.is_multicast or flit.eligible_at > cycle:
                    continue
                if not flit.kind.is_head or not flit.kind.is_tail:
                    raise ProtocolError(
                        "multicast packets must be single-flit in this domain"
                    )
                groups = self._output_groups(flit)
                if len(groups) <= 1:
                    continue
                self._split_multicast(port, vc, flit, groups, cycle)

    def _split_multicast(
        self,
        port: object,
        vc: VirtualChannel,
        flit: Flit,
        groups: dict[object, tuple],
        cycle: int,
    ) -> None:
        # Keep the non-eject (continuing) group in place when one exists;
        # replicas carry the remaining groups.
        ordered = sorted(groups.items(), key=lambda kv: kv[0] == EJECT)
        _, keep_dsts = ordered[0]
        extra_groups = ordered[1:]
        borrowed: list[tuple[object, VirtualChannel, tuple]] = []
        for _, destinations in extra_groups:
            slot = self._find_replication_vc(exclude=port, also_exclude=borrowed)
            if slot is None:
                self.stats.replication_blocked_cycles += 1
                return  # block: retry whole split next cycle
            borrowed.append((slot[0], slot[1], destinations))
        # Commit: narrow the original and install replicas.
        flit.destinations = keep_dsts
        for borrow_port, borrow_vc, destinations in borrowed:
            replica = flit.clone_for(destinations)
            replica.eligible_at = cycle + 1  # replication takes the cycle
            upstream = self.upstream.get(borrow_port)
            if upstream is not None:
                key = (self.node, borrow_vc.index)
                if upstream.credits[key] <= 0:
                    raise SimulationError(
                        "replication chose a VC without upstream credit"
                    )
                upstream.credits[key] -= 1
            borrow_vc.push(replica)
            self.stats.replications += 1
            for observer in self.observers:
                observer.on_replicate(
                    self, flit, replica, borrow_port, borrow_vc, cycle
                )

    def _find_replication_vc(
        self, exclude: object, also_exclude: list
    ) -> tuple[object, VirtualChannel] | None:
        """Free VC of a different PC; less-utilized PCs preferred."""
        # Membership test only: the set is never iterated or sorted, so
        # address order cannot leak.
        taken = {id(vc) for _, vc, _ in also_exclude}

        def utilization(port: object) -> int:
            return sum(1 for vc in self.inputs[port] if not vc.is_free)

        candidates = sorted(
            (port for port in self.inputs if port != exclude),
            key=lambda p: (utilization(p), p == INJECT, str(p)),
        )
        for port in candidates:
            for vc in self.inputs[port]:
                if id(vc) in taken or not vc.is_free:
                    continue
                upstream = self.upstream.get(port)
                if upstream is not None and upstream.credits[(self.node, vc.index)] <= 0:
                    continue
                return port, vc
        return None

    # -- switch allocation --------------------------------------------------

    def _candidate_for_port(self, port: object, cycle: int) -> _Forward | None:
        """Pick at most one ready VC of input PC *port* (round-robin)."""
        unit = self.inputs[port]
        n = len(unit)
        start = self._rr_in[port]
        vc_ready = self._vc_ready
        for offset in range(n):
            vc = unit[(start + offset) % n]
            if not vc.fifo:
                continue
            forward = vc_ready(vc, cycle)
            if forward is not None:
                self._rr_in[port] = (start + offset + 1) % n
                return forward
        return None

    def _vc_ready(self, vc: VirtualChannel, cycle: int) -> _Forward | None:
        flit = vc.head()
        if flit is None or flit.eligible_at > cycle:
            return None
        if flit.kind.is_head:
            groups = self._output_groups(flit)
            if flit.is_multicast and len(groups) > 1:
                return None  # must replicate first
            (out_port, _), = groups.items()
            if out_port == EJECT:
                return _Forward(flit, EJECT, None)
            out_vc = self._allocate_downstream_vc(out_port, flit)
            if out_vc is None:
                self.stats.vc_alloc_failures += 1
                return None
            return _Forward(flit, out_port, out_vc)
        # Body/tail flit: follows the wormhole's allocated route.
        if vc.out_port == EJECT:
            return _Forward(flit, EJECT, None)
        if vc.out_port is None or vc.out_vc is None:
            return None  # head has not been switched yet
        if self.credits[(vc.out_port, vc.out_vc)] <= 0:
            key = (vc.out_port, vc.out_vc)
            self.credit_stalls[key] = self.credit_stalls.get(key, 0) + 1
            return None
        return _Forward(flit, vc.out_port, vc.out_vc)

    def _allocate_downstream_vc(self, out_port: object, flit: Flit) -> int | None:
        """Find a free downstream VC with credit (VC allocation)."""
        downstream = self.downstream.get(out_port)
        if downstream is None:
            raise SimulationError(f"no downstream router on port {out_port}")
        unit = downstream.inputs[self.node]
        for vc in unit:
            if vc.is_free and self.credits[(out_port, vc.index)] > 0:
                return vc.index
        return None

    def switch_phase(self, cycle: int) -> list[_Forward]:
        """Arbitrate the crossbar; pop and return this cycle's winners."""
        candidate = self._candidate_for_port
        by_input: dict[object, _Forward] = {}
        for port, unit in self.inputs.items():
            for vc in unit:
                if vc.fifo:
                    break
            else:
                continue  # every VC of this input PC is empty
            forward = candidate(port, cycle)
            if forward is not None:
                by_input[port] = forward
        if not by_input:
            return []

        winners: list[_Forward] = []
        rr_out = self._rr_out
        in_rank = self._in_rank
        observers = self.observers
        # Round-robin over output ports for fairness.
        for out_port in self.out_ports:
            contenders = [
                (port, fwd)
                for port, fwd in by_input.items()
                if fwd.out_port == out_port
            ]
            if not contenders:
                continue
            if len(contenders) > 1:
                self.stats.switch_conflicts += len(contenders) - 1
                pick = rr_out[out_port] % len(contenders)
                contenders.sort(key=lambda item: in_rank[item[0]])
                port, forward = contenders[pick]
            else:
                port, forward = contenders[0]
            rr_out[out_port] = rr_out[out_port] + 1
            committed = self._commit(port, forward, cycle)
            for observer in observers:
                observer.on_switch(self, port, committed, cycle)
            winners.append(committed)
        return winners

    def _commit(self, port: object, forward: _Forward, cycle: int) -> _Forward:
        """Perform the switch traversal for a winning flit."""
        unit = self.inputs[port]
        vc = next(v for v in unit if v.head() is forward.flit)
        if self.config.single_cycle and forward.flit.eligible_at == cycle:
            # Crossed on its first eligible cycle: with an empty VC behind
            # it this is a buffer bypass; a head flit additionally won its
            # VC allocation and the switch in the same (speculative) cycle.
            if len(vc.fifo) == 1:
                self.stats.buffer_bypass_hits += 1
            if forward.flit.kind.is_head and forward.out_port != EJECT:
                self.stats.speculative_switch_wins += 1
        flit = self._pop(port, vc)
        flit.hops += 1
        if forward.out_port == EJECT:
            self.stats.flits_ejected += 1
            if flit.kind.is_head and not flit.kind.is_tail:
                # Body flits of this wormhole must also eject here.
                vc.out_port = EJECT
                vc.out_vc = None
            return forward
        self.stats.flits_forwarded += 1
        key = (forward.out_port, forward.out_vc)
        if self.credits[key] <= 0:
            raise SimulationError("switched a flit without credit")
        self.credits[key] -= 1
        if flit.kind.is_head:
            # Reserve the downstream VC for this wormhole.
            downstream = self.downstream[forward.out_port]
            downstream_vc = downstream.inputs[self.node][forward.out_vc]
            if not flit.kind.is_tail:
                vc_after = vc  # multi-flit: body flits keep following
                vc_after.out_port = forward.out_port
                vc_after.out_vc = forward.out_vc
            if downstream_vc.active_packet not in (None, flit.packet.packet_id):
                raise SimulationError("downstream VC reserved by another packet")
            downstream_vc.active_packet = flit.packet.packet_id
        return forward

    # -- introspection ------------------------------------------------------

    def publish_metrics(self, registry, prefix: str = "noc.router") -> None:
        """Accumulate this router's counters into a telemetry registry.

        Counters are summed across routers under *prefix*; per-VC buffer
        occupancy feeds the ``noc.buffer.max_occupancy`` high-water gauge.
        """
        stats = self.stats
        registry.counter(f"{prefix}.flits_forwarded").inc(stats.flits_forwarded)
        registry.counter(f"{prefix}.flits_ejected").inc(stats.flits_ejected)
        registry.counter(f"{prefix}.replications").inc(stats.replications)
        registry.counter(f"{prefix}.multicast_replica_blocked_cycles").inc(
            stats.replication_blocked_cycles
        )
        registry.counter(f"{prefix}.switch_conflicts").inc(stats.switch_conflicts)
        registry.counter(f"{prefix}.vc_alloc_failures").inc(stats.vc_alloc_failures)
        registry.counter(f"{prefix}.buffer_bypass_hits").inc(
            stats.buffer_bypass_hits
        )
        registry.counter(f"{prefix}.speculative_switch_wins").inc(
            stats.speculative_switch_wins
        )
        occupancy = registry.gauge("noc.buffer.max_occupancy")
        for unit in self.inputs.values():
            for vc in unit:
                occupancy.update_max(vc.max_occupancy)
        self._publish_spatial(registry)

    def _publish_spatial(self, registry) -> None:
        """Per-(router, port, vc) congestion metrics (DESIGN.md §14).

        Only nonzero entries are published so snapshots stay sparse on
        large meshes; names embed the node/port/vc key.
        """
        node = self.node
        if self.stats.replication_blocked_cycles:
            registry.counter(
                f"noc.router.replication_blocked.{node}"
            ).inc(self.stats.replication_blocked_cycles)
        for port in self.inputs:
            for vc in self.inputs[port]:
                if vc.max_occupancy:
                    registry.gauge(
                        f"noc.vc.max_occupancy.{node}.{port}.vc{vc.index}"
                    ).update_max(vc.max_occupancy)
        for (out_port, out_vc) in sorted(self.credit_stalls, key=str):
            registry.counter(
                f"noc.vc.credit_stall_cycles.{node}->{out_port}.vc{out_vc}"
            ).inc(self.credit_stalls[(out_port, out_vc)])

    def buffered_flits(self) -> int:
        return sum(vc.occupancy for unit in self.inputs.values() for vc in unit)
