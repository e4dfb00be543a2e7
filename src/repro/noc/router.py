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
from repro.noc.buffer import Occupancy, VirtualChannel, make_input_unit
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
    #: The input VC whose head the flit is.
    vc: VirtualChannel


class Router:
    """One wormhole router instance bound to a topology node."""

    def __init__(
        self,
        node: NodeId,
        topology: Topology,
        routing: RouteComputer,
        config: RouterConfig,
        occupancy: Occupancy,
    ) -> None:
        self.node = node
        self.topology = topology
        self.routing = routing
        self.config = config
        self.stats = RouterStats()
        #: Flits and multicast heads buffered here, kept by the VCs' push
        #: and pop, which also keep the network's active set.
        self.occupancy = occupancy

        in_ports = list(topology.predecessors(node)) + [INJECT]
        self.inputs: dict[object, list[VirtualChannel]] = {
            port: make_input_unit(
                port, config.num_vcs, config.buffer_depth, self.occupancy
            )
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
        #: Output port toward each destination, filled on first use: the
        #: route is a function of (router, destination) alone.
        self._route: dict[NodeId, object] = {}
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

    # -- route computation --------------------------------------------------

    def _output_port(self, destination: NodeId) -> object:
        """Output port toward *destination* (EJECT here), memoized."""
        port = self._route.get(destination)
        if port is None:
            if destination == self.node:
                port = EJECT
            else:
                port = self.routing.next_hop(self.topology, self.node, destination)
            self._route[destination] = port
        return port

    def _output_groups(self, flit: Flit) -> dict[object, tuple]:
        """Group the head flit's destinations by required output port."""
        output_port = self._output_port
        groups: dict[object, list] = {}
        for destination in flit.destinations:
            groups.setdefault(output_port(destination), []).append(destination)
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
        if len(keep_dsts) == 1:
            self.occupancy.multicast_heads -= 1  # no longer a multicast head
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

    def switch_phase(self, cycle: int) -> list[_Forward]:
        """Arbitrate the crossbar; pop and return this cycle's winners.

        Each input PC offers at most one candidate: the first ready VC of
        one round-robin walk from its ``_rr_in`` pointer. A head flit
        needs its route and a free downstream VC with credit; a body/tail
        flit follows its wormhole and needs one credit. Candidates are
        grouped by output port as they are found, in input-port order.
        """
        rr_in = self._rr_in
        route = self._route
        credits = self.credits
        by_out: dict[object, list[tuple[object, _Forward]]] = {}
        for port, unit in self.inputs.items():
            n = len(unit)
            start = rr_in[port]
            for offset in range(n):
                vc = unit[(start + offset) % n]
                fifo = vc.fifo
                if not fifo:
                    continue
                flit = fifo[0]
                if flit.eligible_at > cycle:
                    continue
                if flit.kind.is_head:
                    destinations = flit.destinations
                    if len(destinations) > 1 and len(self._output_groups(flit)) > 1:
                        continue  # must replicate first
                    out_port = route.get(destinations[0])
                    if out_port is None:
                        out_port = self._output_port(destinations[0])
                    out_vc = None
                    if out_port != EJECT:
                        # VC allocation: the first free downstream VC with
                        # credit on the channel feeding it.
                        downstream = self.downstream.get(out_port)
                        if downstream is None:
                            raise SimulationError(
                                f"no downstream router on port {out_port}"
                            )
                        for down_vc in downstream.inputs[self.node]:
                            if (
                                down_vc.active_packet is None
                                and not down_vc.fifo
                                and credits[(out_port, down_vc.index)] > 0
                            ):
                                out_vc = down_vc.index
                                break
                        else:
                            self.stats.vc_alloc_failures += 1
                            continue
                else:
                    # Body/tail flit: follows the wormhole's allocated route.
                    out_port = vc.out_port
                    out_vc = vc.out_vc
                    if out_port != EJECT:
                        if out_port is None or out_vc is None:
                            continue  # head has not been switched yet
                        key = (out_port, out_vc)
                        if credits[key] <= 0:
                            stalls = self.credit_stalls
                            stalls[key] = stalls.get(key, 0) + 1
                            continue
                rr_in[port] = (start + offset + 1) % n
                contender = (port, _Forward(flit, out_port, out_vc, vc))
                group = by_out.get(out_port)
                if group is None:
                    by_out[out_port] = [contender]
                else:
                    group.append(contender)
                break
        if not by_out:
            return []

        winners: list[_Forward] = []
        rr_out = self._rr_out
        in_rank = self._in_rank
        observers = self.observers
        # Round-robin over output ports for fairness.
        for out_port in self.out_ports:
            contenders = by_out.get(out_port)
            if contenders is None:
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
        vc = forward.vc
        flit = forward.flit
        kind = flit.kind
        fifo = vc.fifo
        if self.config.single_cycle and flit.eligible_at == cycle:
            # Crossed on its first eligible cycle: with an empty VC behind
            # it this is a buffer bypass; a head flit additionally won its
            # VC allocation and the switch in the same (speculative) cycle.
            if len(fifo) == 1:
                self.stats.buffer_bypass_hits += 1
            if kind.is_head and forward.out_port != EJECT:
                self.stats.speculative_switch_wins += 1
        # Pop the flit (a tail releases its VC) and return the freed
        # slot's credit upstream.
        fifo.popleft()
        vc.router_occupancy.remove(flit)
        if kind.is_tail:
            vc.active_packet = None
            vc.out_port = None
            vc.out_vc = None
        upstream = self.upstream.get(port)
        if upstream is not None:
            key = (self.node, vc.index)
            returned = upstream.credits[key] + 1
            if returned > self.config.buffer_depth:
                raise SimulationError(
                    f"credit overflow on {upstream.node}->{self.node}"
                )
            upstream.credits[key] = returned
        flit.hops += 1
        if forward.out_port == EJECT:
            self.stats.flits_ejected += 1
            if kind.is_head and not kind.is_tail:
                # Body flits of this wormhole must also eject here.
                vc.out_port = EJECT
                vc.out_vc = None
            return forward
        self.stats.flits_forwarded += 1
        key = (forward.out_port, forward.out_vc)
        if self.credits[key] <= 0:
            raise SimulationError("switched a flit without credit")
        self.credits[key] -= 1
        if kind.is_head:
            # Reserve the downstream VC for this wormhole.
            downstream = self.downstream[forward.out_port]
            downstream_vc = downstream.inputs[self.node][forward.out_vc]
            if not kind.is_tail:
                vc.out_port = forward.out_port  # body flits keep following
                vc.out_vc = forward.out_vc
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
