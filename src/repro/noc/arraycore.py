"""Struct-of-arrays wormhole core: the object model without the objects.

:class:`ArrayNetwork` is a second cycle kernel for the client side that
:class:`repro.noc.network.FlitFabric` gives both cores: it reimplements
the phases of :class:`repro.noc.network.Network` /
:class:`repro.noc.router.Router` with every piece of hot state -- flits,
VC bookkeeping, FIFO slots, credits -- held in flat preallocated lists of
ints indexed by small integers instead of per-flit / per-VC Python objects:

* routers, ports, and destinations become dense integer ids derived from
  the topology in the *same iteration order* the object core uses, so
  every arbitration tie-break lands identically;
* each (router, input port) pair is an *input unit*; VC ``v`` of unit
  ``u`` is global VC ``u * num_vcs + v`` and owns ``buffer_depth``
  contiguous slots of one flat ring-buffer list;
* flits live in a growable struct-of-arrays pool (parallel list columns,
  one of them holding destination tuples); a "flit" is an integer row
  index, and an ejected flit's row is reused;
* route lookups go through a lazily filled flat next-hop table, one int
  per (router, destination) pair.

The columns are plain lists, not ``array.array``: an ``array`` item
boxes a new int on every read and unboxes one on every write. With
CPython 3.11 on a 2-vCPU x86-64 host (``timeit``, best of 40), a read
costs ~24 ns against ~9 ns for a list item, a write ~38 ns against
~9 ns, and ``x[i] += 1`` ~89 ns against ~27 ns.

The cycle loop only visits routers that actually hold flits, and the
drain loop (:meth:`ArrayNetwork._advance`) fast-forwards across cycles
where the fabric is provably idle (nothing buffered, nothing to inject)
-- both are pure reorderings of no-ops, so counters and timings match
the object core bit for bit.

Each cycle phase is one fused scalar loop over those flat columns (see
DESIGN.md section 13): the switch phase scans, arbitrates, commits and
forwards router by router in the object core's order without a method
call per flit, and link arrivals buffer each flit inline.

The equivalence contract is enforced by ``tests/noc/test_arraycore.py``,
``tests/noc/test_arraycore_saturation.py``, the differential oracle, and
the ``arraycore`` fuzzer family.

Invariant checkers hook per-object state and are intentionally
unsupported here; install them on the object core.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.config import RouterConfig
from repro.errors import ProtocolError, SimulationError
from repro.noc.network import FlitFabric
from repro.noc.packet import Packet
from repro.noc.router import INJECT
from repro.noc.routing import RouteComputer
from repro.noc.topology import NodeId, Topology

#: Sentinel in the next-hop table: route not computed yet.
_UNROUTED = -9
#: Next-hop values at or below this encode "no channel to that node"
#: (the object core raises at VC allocation time; so do we).
_INVALID_BASE = -100

#: A switch-allocation candidate: (in_local, out_local, out_vc, flit, gvc).
_Cand = tuple[int, int, int, int, int]


class FlitPool:
    """Growable struct-of-arrays flit storage in parallel lists; a flit
    is a row index.

    Columns mirror :class:`repro.noc.flit.Flit` minus the identity
    fields the simulation never branches on (``flit_id`` is repr-only in
    the object core). ``destinations`` holds tuples of *destination node
    ids* (ints), empty for body/tail flits; ``dest0`` / ``is_mc``
    denormalize its first element and multicast bit into flat columns the
    cycle loop reads without touching the list.
    ``group_node`` caches which router the ``groups`` column was computed
    for (-1 = stale).

    A row is live from :meth:`alloc` until its flit ejects; the array
    core's ``_eject`` then puts it on ``free``, which :meth:`alloc` pops
    before it takes a new row. Nothing observes a row number (arbitration
    order comes from VC slots, and ``alloc`` resets ``group_node``), so a
    reused row behaves as a new one. ``size`` counts the rows ever taken.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0:
            raise SimulationError("flit pool capacity must be positive")
        self.capacity = capacity
        self.size = 0
        self.packet: list[int] = [0] * capacity
        self.is_head: list[int] = [0] * capacity
        self.is_tail: list[int] = [0] * capacity
        self.index: list[int] = [0] * capacity
        self.injected_at: list[int] = [0] * capacity
        self.hops: list[int] = [0] * capacity
        self.eligible_at: list[int] = [0] * capacity
        self.destinations: list[tuple[int, ...]] = [()] * capacity
        #: First destination id (-1 for body/tail flits); kept in sync
        #: with ``destinations`` so unicast route lookups skip the list.
        self.dest0: list[int] = [0] * capacity
        #: 1 when the flit is a head with >1 destinations (the multicast
        #: communication-type bit); gates replication and sends the route
        #: lookup through the per-port grouping.
        self.is_mc: list[int] = [0] * capacity
        self.group_node: list[int] = [0] * capacity
        self.groups: list[list[tuple[int, tuple[int, ...]]]] = [[]] * capacity
        #: Rows of ejected flits, taken again before the pool grows.
        self.free: list[int] = []

    def _grow(self) -> None:
        extra = self.capacity
        zeros = [0] * extra
        for column in (
            self.packet, self.is_head, self.is_tail, self.index,
            self.injected_at, self.hops, self.eligible_at, self.dest0,
            self.is_mc, self.group_node,
        ):
            column.extend(zeros)
        self.destinations.extend([()] * extra)
        self.groups.extend([[]] * extra)
        self.capacity += extra

    def alloc(
        self,
        packet_row: int,
        head: bool,
        tail: bool,
        index: int,
        destinations: tuple[int, ...],
        injected_at: int,
        hops: int,
        eligible_at: int,
    ) -> int:
        """Fill a free row, else a new one (doubling the columns when full)."""
        if self.free:
            f = self.free.pop()
        else:
            f = self.size
            if f == self.capacity:
                self._grow()
            self.size = f + 1
        self.packet[f] = packet_row
        self.is_head[f] = 1 if head else 0
        self.is_tail[f] = 1 if tail else 0
        self.index[f] = index
        self.injected_at[f] = injected_at
        self.hops[f] = hops
        self.eligible_at[f] = eligible_at
        self.destinations[f] = destinations
        self.dest0[f] = destinations[0] if destinations else -1
        self.is_mc[f] = 1 if head and len(destinations) > 1 else 0
        self.group_node[f] = -1
        return f

    def narrow(self, flit: int, destinations: tuple[int, ...]) -> None:
        """Replace a head flit's destination set (multicast splitting)."""
        self.destinations[flit] = destinations
        self.dest0[flit] = destinations[0] if destinations else -1
        self.is_mc[flit] = 1 if len(destinations) > 1 else 0
        self.group_node[flit] = -1


class ArrayNetwork(FlitFabric):
    """The flit-level network on the struct-of-arrays core.

    Its client side is :class:`~repro.noc.network.FlitFabric`'s, and it is
    bit-identical to :class:`~repro.noc.network.Network` on every healthy
    workload; only the cycle kernel below is its own.
    """

    core = "array"

    def __init__(
        self,
        topology: Topology,
        routing: RouteComputer | None = None,
        router_config: RouterConfig | None = None,
        window: int = 0,
    ) -> None:
        super().__init__(topology, routing, router_config, window)
        cfg = self.router_config
        self._vcs = cfg.num_vcs
        self._depth = cfg.buffer_depth
        self._hop_wait = cfg.hop_latency - 1
        self._single_cycle = cfg.single_cycle
        # Router ids are ranks: the order the object core builds its
        # router dict in, so arbitration tie-breaks agree.
        n = len(self._nodes)
        self._geometry()

        # Router-level counters, summed across the fabric (the object
        # core only ever exposes them summed or per-run totals).
        self.flits_forwarded = 0
        self.flits_ejected = 0
        self.replications = 0
        self.replication_blocked_cycles = 0
        self.switch_conflicts = 0
        self.vc_alloc_failures = 0
        self.buffer_bypass_hits = 0
        self.speculative_switch_wins = 0

        self.pool = FlitPool()
        #: Packet rows, one per packet whose head flit has entered the
        #: fabric; a flit's ``pool.packet`` is its packet's row.
        self._packets: list[Packet] = []
        # The base's per-core layouts: an ``_arrivals`` entry is (router,
        # local input, VC, flit row), and an ``_inject_progress`` value is
        # (deque of flit rows still to inject, global VC, router).

        #: Lazily filled next-hop table, one int per (router,
        #: destination) pair, in a list like every hot column.
        self._route: list[int] = [_UNROUTED] * (n * n)

    # -- static geometry ----------------------------------------------------

    def _geometry(self) -> None:
        """Precompute every per-router table the cycle loop indexes."""
        topology = self.topology
        vcs = self._vcs
        depth = self._depth
        #: per router: predecessor node ids, in object-core input order
        self._in_nodes: list[list[int]] = []
        #: per router: successor node ids, in object-core output order
        self._out_nodes: list[list[int]] = []
        #: local input index of the INJECT pseudo-port (last input)
        self._inject_local: list[int] = []
        #: local output index of the EJECT pseudo-port (last output)
        self._eject_local: list[int] = []
        for node in self._nodes:
            preds = [self._node_index[p] for p in topology.predecessors(node)]
            succs = [self._node_index[s] for s in topology.successors(node)]
            self._in_nodes.append(preds)
            self._out_nodes.append(succs)
            self._inject_local.append(len(preds))
            self._eject_local.append(len(succs))

        #: unit id of (router, local input); units are numbered router by
        #: router, port by port, INJECT last -- matching input dict order.
        self._unit_base: list[int] = []
        #: channel id of (router, local output); EJECT has no channel.
        self._chan_base: list[int] = []
        units = 0
        chans = 0
        for r in range(len(self._nodes)):
            self._unit_base.append(units)
            self._chan_base.append(chans)
            units += len(self._in_nodes[r]) + 1
            chans += len(self._out_nodes[r])

        #: local input index of node ``src`` at router ``dst``
        in_local: list[dict[int, int]] = [
            {src: i for i, src in enumerate(self._in_nodes[r])}
            for r in range(len(self._nodes))
        ]
        #: local output index of node ``dst`` at router ``src``
        self._out_local: list[dict[int, int]] = [
            {dst: o for o, dst in enumerate(self._out_nodes[r])}
            for r in range(len(self._nodes))
        ]
        self._in_local = in_local

        #: per (router, local output): downstream unit id, wire delay,
        #: and the receiving router/local-input pair
        self._down_unit: list[list[int]] = []
        self._wire_delay: list[list[int]] = []
        for r, node in enumerate(self._nodes):
            down: list[int] = []
            wires: list[int] = []
            for dst in self._out_nodes[r]:
                down.append(self._unit_base[dst] + in_local[dst][r])
                channel = topology.channel(node, self._nodes[dst])
                wires.append(channel.wire_delay)
            self._down_unit.append(down)
            self._wire_delay.append(wires)

        #: per (router, local input != inject): channel id at the upstream
        #: router for credit return / replication credit stealing
        self._up_chan: list[list[int]] = []
        for r in range(len(self._nodes)):
            ups: list[int] = []
            for src in self._in_nodes[r]:
                ups.append(self._chan_base[src] + self._out_local[src][r])
            self._up_chan.append(ups)

        #: arbitration rank of each local input: position in the
        #: str(port)-sorted order the object core's contender sort uses
        self._in_sort_rank: list[list[int]] = []
        #: replication tie-rank: (port == INJECT, str(port)) order
        self._repl_rank: list[list[int]] = []
        for r in range(len(self._nodes)):
            names = [str(self._nodes[p]) for p in self._in_nodes[r]] + [INJECT]
            order = sorted(range(len(names)), key=lambda i: names[i])
            rank = [0] * len(names)
            for position, i in enumerate(order):
                rank[i] = position
            self._in_sort_rank.append(rank)
            inject = self._inject_local[r]
            order = sorted(
                range(len(names)), key=lambda i: (i == inject, names[i])
            )
            rank = [0] * len(names)
            for position, i in enumerate(order):
                rank[i] = position
            self._repl_rank.append(rank)

        # Flat mutable state: one slot per global VC / credit channel.
        self._credit: list[int] = [depth] * (chans * vcs)
        #: Cycles a buffered body/tail flit sat blocked on downstream
        #: credit, per (channel, vc) -- mirrors Router.credit_stalls.
        self._credit_stall: list[int] = [0] * (chans * vcs)
        #: Flits placed on each wire, per channel id -- per-link
        #: utilization (mirrors Network._link_flits).
        self._link_flits: list[int] = [0] * chans
        #: Replication-blocked cycles per router (the scalar total stays
        #: authoritative for the summed noc.router counter).
        self._repl_blocked: list[int] = [0] * len(self._nodes)
        self._vc_len: list[int] = [0] * (units * vcs)
        self._vc_head: list[int] = [0] * (units * vcs)
        self._vc_active: list[int] = [-1] * (units * vcs)
        self._vc_out_local: list[int] = [-1] * (units * vcs)
        self._vc_out_vc: list[int] = [-1] * (units * vcs)
        self._vc_max_occ: list[int] = [0] * (units * vcs)
        self._slots: list[int] = [0] * (units * vcs * depth)
        self._rr_in: list[int] = [0] * units
        self._rr_out: list[int] = [0] * (chans + len(self._nodes))
        #: rr slot of (router, local output); EJECT gets the tail slots
        self._rr_out_base: list[int] = [
            self._chan_base[r] + r for r in range(len(self._nodes))
        ]
        #: flits buffered per router (drives the active-router set)
        self._router_occ: list[int] = [0] * len(self._nodes)
        #: flits buffered per input unit (skips empty PCs in the sweeps)
        self._unit_len: list[int] = [0] * units
        #: buffered multicast heads per router (gates replication sweeps)
        self._router_mc: list[int] = [0] * len(self._nodes)
        #: buffered multicast heads fabric-wide (skips the whole phase)
        self._mc_total = 0

    def install_checker(self, checker: Any) -> None:
        """Invariant checkers hook per-object router state; the SoA core
        has none. Run checked workloads on the object core instead."""
        raise SimulationError(
            "validation checkers are not supported on the array core; "
            "use core='object' for checked runs"
        )

    # -- cycle loop ---------------------------------------------------------

    def step(self) -> None:
        """Advance the network one clock cycle."""
        cycle = self.cycle
        timed = self._timed_injections.pop(cycle, None)
        if timed is not None:
            for packet, node in timed:
                self.inject(packet, node)
        self._deliver_arrivals(cycle)
        self._inject_phase(cycle)
        if self._active:
            order = sorted(self._active)
            self._replication_phase(cycle, order)
            self._switch_phase(cycle, order)
        self.cycle = cycle + 1
        self.stats.cycles = self.cycle

    def _advance(self, horizon: int) -> None:
        """One :meth:`step`, or a jump across provably idle cycles.

        When nothing is buffered or waiting to inject, every cycle until
        the next arrival / timed injection is a no-op, so the clock jumps
        straight there, capped at *horizon* so the drain timeout still
        fires at the cycle it would have.
        """
        if not self._active and not self._inject_progress and not self._inject_queues:
            target = horizon
            if self._arrivals:
                target = min(min(self._arrivals), target)
            if self._timed_injections:
                target = min(min(self._timed_injections), target)
            if target > self.cycle:
                self.cycle = target
                self.stats.cycles = target
                return
        self.step()

    # -- inspection ---------------------------------------------------------

    def total_buffered_flits(self) -> int:
        return sum(self._router_occ)

    def total_replications(self) -> int:
        return self.replications

    def total_replication_blocked(self) -> int:
        return self.replication_blocked_cycles

    def _port(self, r: int, p: int) -> object:
        """The object core's name of router *r*'s local input *p*."""
        if p == self._inject_local[r]:
            return INJECT
        return self._nodes[self._in_nodes[r][p]]

    def _held_vcs(self) -> list[tuple[NodeId, object, int, int, int]]:
        vcs = self._vcs
        held: list[tuple[NodeId, object, int, int, int]] = []
        for r, node in enumerate(self._nodes):
            for p in range(self._inject_local[r] + 1):
                base = (self._unit_base[r] + p) * vcs
                for vc in range(vcs):
                    gvc = base + vc
                    flits = self._vc_len[gvc]
                    if flits:
                        head = self._slots[gvc * self._depth + self._vc_head[gvc]]
                        pid = self._packets[self.pool.packet[head]].packet_id
                    elif self._vc_active[gvc] >= 0:
                        pid = self._vc_active[gvc]
                    else:
                        continue
                    held.append((node, self._port(r, p), vc, flits, pid))
        return held

    def _publish_routers(self, registry: Any) -> None:
        """The object core's router, VC and link metrics, from the columns
        (bit-identical to ``Router.publish_metrics`` summed over routers
        and ``Network``'s per-link counts)."""
        prefix = "noc.router"
        registry.counter(f"{prefix}.flits_forwarded").inc(self.flits_forwarded)
        registry.counter(f"{prefix}.flits_ejected").inc(self.flits_ejected)
        registry.counter(f"{prefix}.replications").inc(self.replications)
        registry.counter(f"{prefix}.multicast_replica_blocked_cycles").inc(
            self.replication_blocked_cycles
        )
        registry.counter(f"{prefix}.switch_conflicts").inc(self.switch_conflicts)
        registry.counter(f"{prefix}.vc_alloc_failures").inc(
            self.vc_alloc_failures
        )
        registry.counter(f"{prefix}.buffer_bypass_hits").inc(
            self.buffer_bypass_hits
        )
        registry.counter(f"{prefix}.speculative_switch_wins").inc(
            self.speculative_switch_wins
        )
        occupancy = registry.gauge("noc.buffer.max_occupancy")
        occupancy.update_max(max(self._vc_max_occ, default=0))
        vcs = self._vcs
        nodes = self._nodes
        for r, node in enumerate(nodes):
            if self._repl_blocked[r]:
                registry.counter(
                    f"noc.router.replication_blocked.{node}"
                ).inc(self._repl_blocked[r])
            for p in range(self._inject_local[r] + 1):
                port = self._port(r, p)
                base = (self._unit_base[r] + p) * vcs
                for vc in range(vcs):
                    occ = self._vc_max_occ[base + vc]
                    if occ:
                        registry.gauge(
                            f"noc.vc.max_occupancy.{node}.{port}.vc{vc}"
                        ).update_max(occ)
            for out_local, dst in enumerate(self._out_nodes[r]):
                chan = self._chan_base[r] + out_local
                out_port = nodes[dst]
                for vc in range(vcs):
                    stalls = self._credit_stall[chan * vcs + vc]
                    if stalls:
                        registry.counter(
                            "noc.vc.credit_stall_cycles."
                            f"{node}->{out_port}.vc{vc}"
                        ).inc(stalls)
                if self._link_flits[chan]:
                    registry.counter(f"noc.link.flits.{node}->{out_port}").inc(
                        self._link_flits[chan]
                    )

    # -- internals ----------------------------------------------------------

    def _push(self, r: int, gvc: int, flit: int) -> None:
        """Buffer a flit in a VC; head flits claim the VC."""
        length = self._vc_len[gvc]
        if length >= self._depth:
            raise SimulationError(
                f"VC overflow at router {self._nodes[r]} gvc {gvc}: "
                "credit flow control violated"
            )
        pid = self._packets[self.pool.packet[flit]].packet_id
        active = self._vc_active[gvc]
        if self.pool.is_head[flit]:
            if active >= 0 and active != pid:
                raise SimulationError(
                    f"head flit of packet {pid} entered VC held by "
                    f"packet {active}"
                )
            self._vc_active[gvc] = pid
        elif active != pid:
            raise SimulationError(
                "body flit entered a VC not allocated to its packet"
            )
        slot = gvc * self._depth + (self._vc_head[gvc] + length) % self._depth
        self._slots[slot] = flit
        self._vc_len[gvc] = length + 1
        if length + 1 > self._vc_max_occ[gvc]:
            self._vc_max_occ[gvc] = length + 1
        self._unit_len[gvc // self._vcs] += 1
        if self.pool.is_mc[flit]:
            self._router_mc[r] += 1
            self._mc_total += 1
        occ = self._router_occ[r] + 1
        self._router_occ[r] = occ
        if occ == 1:
            self._active.add(r)

    def _next_local(self, r: int, dest: int) -> int:
        """Local output toward *dest* from router *r* (lazy route table)."""
        key = r * len(self._nodes) + dest
        cached = self._route[key]
        if cached != _UNROUTED:
            return cached
        hop = self.routing.next_hop(
            self.topology, self._nodes[r], self._nodes[dest]
        )
        hop_index = self._node_index.get(hop)
        local = (
            self._out_local[r].get(hop_index, _INVALID_BASE - dest)
            if hop_index is not None
            else _INVALID_BASE - dest
        )
        self._route[key] = local
        return local

    def _output_groups(self, r: int, flit: int) -> list[tuple[int, tuple[int, ...]]]:
        """Group a head flit's destinations by required local output.

        Cached per (flit, router); invalidated when the flit moves or its
        destination set is narrowed by replication.
        """
        pool = self.pool
        if pool.group_node[flit] == r:
            return pool.groups[flit]
        eject = self._eject_local[r]
        grouped: dict[int, list[int]] = {}
        for dest in pool.destinations[flit]:
            port = eject if dest == r else self._next_local(r, dest)
            grouped.setdefault(port, []).append(dest)
        groups = [(port, tuple(dests)) for port, dests in grouped.items()]
        pool.groups[flit] = groups
        pool.group_node[flit] = r
        return groups

    # -- link traversal (arrival delivery) ----------------------------------

    def _deliver_arrivals(self, cycle: int) -> None:
        """Buffer every flit whose link traversal ends this cycle."""
        batch = self._arrivals.pop(cycle, None)
        if batch is None:
            return
        vcs = self._vcs
        depth = self._depth
        pool = self.pool
        is_head = pool.is_head
        vc_len = self._vc_len
        vc_active = self._vc_active
        vc_max_occ = self._vc_max_occ
        router_occ = self._router_occ
        unit_base = self._unit_base
        packets = self._packets
        eligible = cycle + self._hop_wait
        sink = self._sink
        for r, p, vc, flit in batch:
            pool.eligible_at[flit] = eligible
            # Buffer the flit: the body of _push, inline.
            unit = unit_base[r] + p
            gvc = unit * vcs + vc
            length = vc_len[gvc]
            if length >= depth:
                raise SimulationError(
                    f"VC overflow at router {self._nodes[r]} gvc {gvc}: "
                    "credit flow control violated"
                )
            pid = packets[pool.packet[flit]].packet_id
            active = vc_active[gvc]
            if is_head[flit]:
                if active >= 0 and active != pid:
                    raise SimulationError(
                        f"head flit of packet {pid} entered VC held by "
                        f"packet {active}"
                    )
                vc_active[gvc] = pid
            elif active != pid:
                raise SimulationError(
                    "body flit entered a VC not allocated to its packet"
                )
            slot = gvc * depth + (self._vc_head[gvc] + length) % depth
            self._slots[slot] = flit
            length += 1
            vc_len[gvc] = length
            if length > vc_max_occ[gvc]:
                vc_max_occ[gvc] = length
            self._unit_len[unit] += 1
            if pool.is_mc[flit]:
                self._router_mc[r] += 1
                self._mc_total += 1
            occ = router_occ[r] + 1
            router_occ[r] = occ
            if occ == 1:
                self._active.add(r)
            if sink.enabled:
                sink.instant(
                    "traverse", "noc.flit", cycle, tid=self._nodes[r],
                    args={
                        "packet": pid,
                        "vc": vc,
                        "from": str(self._nodes[self._in_nodes[r][p]]),
                        "hops": pool.hops[flit],
                    },
                )

    def _inject_phase(self, cycle: int) -> None:
        """Move at most one flit per router from its inject queue to a VC.

        A router first continues its partial injections, in the order they
        began (wormhole order), and starts its next queued packet only if
        none of them moved. Each router touches only its own inject port,
        so the order among routers cannot be observed.
        """
        progress = self._inject_progress
        queues = self._inject_queues
        if not progress and not queues:
            return
        pool = self.pool
        series = self._series
        eligible = cycle + self._hop_wait
        moved: set[NodeId] = set()
        for key, (rest, gvc, r) in list(progress.items()):
            if key[0] in moved or self._vc_len[gvc] >= self._depth:
                continue
            flit = rest.popleft()
            pool.eligible_at[flit] = eligible
            self._push(r, gvc, flit)
            self.stats.flits_injected += 1
            if series is not None:
                series["noc.series.flits_injected"].record(cycle)
            moved.add(key[0])
            if not rest:
                del progress[key]
        vcs = self._vcs
        index = self._node_index
        for node, queue in list(queues.items()):
            if node in moved:
                continue
            r = index[node]
            unit = self._unit_base[r] + self._inject_local[r]
            free = -1
            for vc in range(vcs):
                gvc = unit * vcs + vc
                if self._vc_active[gvc] < 0 and not self._vc_len[gvc]:
                    free = gvc
                    break
            if free < 0:
                continue
            packet = queue.popleft()
            if not queue:
                del queues[node]
            row = len(self._packets)
            self._packets.append(packet)
            nflits = packet.num_flits
            dests = tuple(index[d] for d in packet.destinations)
            head = pool.alloc(row, True, nflits == 1, 0, dests, cycle, 0, eligible)
            self._push(r, free, head)
            self.stats.flits_injected += 1
            if series is not None:
                series["noc.series.flits_injected"].record(cycle)
            if nflits > 1:
                rest = deque(
                    pool.alloc(row, False, i == nflits - 1, i, (), cycle, 0, 0)
                    for i in range(1, nflits)
                )
                progress[(node, packet.packet_id)] = (rest, free, r)

    # -- multicast replication ---------------------------------------------

    def _replication_phase(self, cycle: int, order: list[int]) -> None:
        """Split multicast heads that need several output ports."""
        if not self._mc_total:
            return
        for r in order:
            if self._router_mc[r]:
                self._replicate_router(r, cycle)

    def _replicate_router(self, r: int, cycle: int) -> None:
        vcs = self._vcs
        depth = self._depth
        pool = self.pool
        unit_base = self._unit_base[r]
        unit_len = self._unit_len
        base = unit_base * vcs
        for p in range(self._inject_local[r] + 1):
            if not unit_len[unit_base + p]:
                continue
            for vc in range(vcs):
                gvc = base + p * vcs + vc
                if not self._vc_len[gvc]:
                    continue
                flit = self._slots[gvc * depth + self._vc_head[gvc]]
                if not pool.is_mc[flit]:
                    continue
                if pool.eligible_at[flit] > cycle:
                    continue
                if not pool.is_head[flit] or not pool.is_tail[flit]:
                    raise ProtocolError(
                        "multicast packets must be single-flit in this domain"
                    )
                groups = self._output_groups(r, flit)
                if len(groups) <= 1:
                    continue
                self._split_multicast(r, p, gvc, flit, groups, cycle)

    def _split_multicast(
        self,
        r: int,
        p: int,
        gvc: int,
        flit: int,
        groups: list[tuple[int, tuple[int, ...]]],
        cycle: int,
    ) -> None:
        eject = self._eject_local[r]
        ordered = sorted(groups, key=lambda kv: kv[0] == eject)
        keep_dsts = ordered[0][1]
        borrowed: list[tuple[int, int, tuple[int, ...]]] = []
        taken: list[int] = []
        for _, destinations in ordered[1:]:
            slot = self._find_replication_vc(r, p, taken)
            if slot is None:
                self.replication_blocked_cycles += 1
                self._repl_blocked[r] += 1
                return  # block: retry whole split next cycle
            borrowed.append((slot[0], slot[1], destinations))
            taken.append(slot[1])
        pool = self.pool
        pool.narrow(flit, keep_dsts)
        if len(keep_dsts) <= 1:  # the kept group is no longer a multicast
            self._router_mc[r] -= 1
            self._mc_total -= 1
        row = pool.packet[flit]
        for borrow_p, borrow_gvc, destinations in borrowed:
            replica = pool.alloc(
                row, True, True, pool.index[flit], destinations,
                pool.injected_at[flit], pool.hops[flit], cycle + 1,
            )
            if borrow_p != self._inject_local[r]:
                chan = self._up_chan[r][borrow_p]
                key = chan * self._vcs + borrow_gvc % self._vcs
                if self._credit[key] <= 0:
                    raise SimulationError(
                        "replication chose a VC without upstream credit"
                    )
                self._credit[key] = self._credit[key] - 1
            self._push(r, borrow_gvc, replica)
            self.replications += 1

    def _find_replication_vc(
        self, r: int, exclude: int, taken: list[int]
    ) -> tuple[int, int] | None:
        """Free VC of a different PC; less-utilized PCs preferred."""
        vcs = self._vcs
        base = self._unit_base[r] * vcs
        inject = self._inject_local[r]
        repl_rank = self._repl_rank[r]

        def utilization(p: int) -> int:
            busy = 0
            for vc in range(vcs):
                gvc = base + p * vcs + vc
                if self._vc_active[gvc] >= 0 or self._vc_len[gvc]:
                    busy += 1
            return busy

        candidates = sorted(
            (p for p in range(inject + 1) if p != exclude),
            key=lambda p: (utilization(p), repl_rank[p]),
        )
        for p in candidates:
            for vc in range(vcs):
                gvc = base + p * vcs + vc
                if gvc in taken:
                    continue
                if self._vc_active[gvc] >= 0 or self._vc_len[gvc]:
                    continue
                if p != inject:
                    chan = self._up_chan[r][p]
                    if self._credit[chan * vcs + vc] <= 0:
                        continue
                return p, gvc
        return None

    # -- switch allocation and traversal -------------------------------------

    def _switch_phase(self, cycle: int, order: list[int]) -> None:
        """Arbitrate every crossbar in router order; commit, then forward.

        One pass per router of *order*: each occupied input PC offers at
        most one ready VC (round-robin from its ``_rr_in`` pointer), the
        candidates are arbitrated per output port, every winner is
        committed (pop, credit return, downstream VC claim), and only
        then are the winners put on their links or ejected. Two orderings
        make this the object core's sweep exactly: every candidate of a
        router is found before any of its commits, and all of its commits
        precede its forwards. A pop at one router is visible to every
        later router of the same sweep, and the delivery callbacks an
        ejection fires (which may inject packets) see the router's final
        state.
        """
        vcs = self._vcs
        depth = self._depth
        pool = self.pool
        eligible_at = pool.eligible_at
        is_head = pool.is_head
        is_tail = pool.is_tail
        is_mc = pool.is_mc
        dest0 = pool.dest0
        slots = self._slots
        vc_len = self._vc_len
        vc_head = self._vc_head
        vc_active = self._vc_active
        vc_out_local = self._vc_out_local
        vc_out_vc = self._vc_out_vc
        credit = self._credit
        unit_len = self._unit_len
        rr_in = self._rr_in
        rr_out = self._rr_out
        router_occ = self._router_occ
        route = self._route
        arrivals = self._arrivals
        series = self._series
        single_cycle = self._single_cycle
        n = len(self._nodes)
        for r in order:
            unit_base = self._unit_base[r]
            inject = self._inject_local[r]
            eject = self._eject_local[r]
            chan_base = self._chan_base[r]
            down_unit = self._down_unit[r]
            candidates: list[_Cand] = []
            for p in range(inject + 1):
                unit = unit_base + p
                if not unit_len[unit]:
                    continue
                base = unit * vcs
                start = rr_in[unit]
                for offset in range(vcs):
                    vc = (start + offset) % vcs
                    gvc = base + vc
                    if not vc_len[gvc]:
                        continue
                    flit = slots[gvc * depth + vc_head[gvc]]
                    if eligible_at[flit] > cycle:
                        continue
                    if is_head[flit]:
                        if is_mc[flit]:
                            groups = self._output_groups(r, flit)
                            if len(groups) > 1:
                                continue  # must replicate first
                            out_local = groups[0][0]
                        else:
                            dest = dest0[flit]
                            if dest == r:
                                out_local = eject
                            else:
                                out_local = route[r * n + dest]
                                if out_local == _UNROUTED:
                                    out_local = self._next_local(r, dest)
                        if out_local == eject:
                            out_vc = -1
                        else:
                            if out_local < 0:
                                port = self.routing.next_hop(
                                    self.topology, self._nodes[r],
                                    self._nodes[_INVALID_BASE - out_local],
                                )
                                raise SimulationError(
                                    f"no downstream router on port {port}"
                                )
                            # VC allocation: the first free downstream VC
                            # with credit on the channel feeding it.
                            down = down_unit[out_local] * vcs
                            cbase = (chan_base + out_local) * vcs
                            for out_vc in range(vcs):
                                if (
                                    vc_active[down + out_vc] < 0
                                    and not vc_len[down + out_vc]
                                    and credit[cbase + out_vc] > 0
                                ):
                                    break
                            else:
                                self.vc_alloc_failures += 1
                                continue
                    else:
                        # Body/tail flit: follows the wormhole's route.
                        out_local = vc_out_local[gvc]
                        if out_local == eject:
                            out_vc = -1
                        else:
                            out_vc = vc_out_vc[gvc]
                            if out_local < 0 or out_vc < 0:
                                continue  # head has not been switched yet
                            key = (chan_base + out_local) * vcs + out_vc
                            if credit[key] <= 0:
                                self._credit_stall[key] += 1
                                continue
                    rr_in[unit] = (vc + 1) % vcs
                    candidates.append((p, out_local, out_vc, flit, gvc))
                    break
            if not candidates:
                continue

            rr_base = self._rr_out_base[r]
            if len(candidates) == 1:
                # One input PC competing: it wins its output unopposed, but
                # the output's round-robin pointer still advances.
                winners = candidates
                rr_out[rr_base + candidates[0][1]] += 1
            else:
                by_out: dict[int, list[_Cand]] = {}
                for forward in candidates:
                    by_out.setdefault(forward[1], []).append(forward)
                winners = []
                rank = self._in_sort_rank[r]
                for out_local in sorted(by_out):
                    contenders = by_out[out_local]
                    slot = rr_base + out_local
                    if len(contenders) > 1:
                        self.switch_conflicts += len(contenders) - 1
                        contenders.sort(key=lambda c: rank[c[0]])
                        winners.append(
                            contenders[rr_out[slot] % len(contenders)]
                        )
                    else:
                        winners.append(contenders[0])
                    rr_out[slot] += 1

            up_chan = self._up_chan[r]
            for p, out_local, out_vc, flit, gvc in winners:
                head = is_head[flit]
                tail = is_tail[flit]
                length = vc_len[gvc]
                if single_cycle and eligible_at[flit] == cycle:
                    if length == 1:
                        self.buffer_bypass_hits += 1
                    if head and out_local != eject:
                        self.speculative_switch_wins += 1
                # Pop the flit; its freed slot returns a credit upstream.
                vc_head[gvc] = (vc_head[gvc] + 1) % depth
                vc_len[gvc] = length - 1
                if tail:
                    vc_active[gvc] = -1
                    vc_out_local[gvc] = -1
                    vc_out_vc[gvc] = -1
                unit_len[unit_base + p] -= 1
                if is_mc[flit]:
                    self._router_mc[r] -= 1
                    self._mc_total -= 1
                if p != inject:
                    key = up_chan[p] * vcs + gvc % vcs
                    returned = credit[key] + 1
                    if returned > depth:
                        raise SimulationError(
                            f"credit overflow on channel into {self._nodes[r]}"
                        )
                    credit[key] = returned
                occ = router_occ[r] - 1
                router_occ[r] = occ
                if not occ:
                    self._active.discard(r)
                pool.hops[flit] += 1
                if out_local == eject:
                    self.flits_ejected += 1
                    if head and not tail:
                        # Body flits of this wormhole must also eject here.
                        vc_out_local[gvc] = eject
                        vc_out_vc[gvc] = -1
                    continue
                self.flits_forwarded += 1
                key = (chan_base + out_local) * vcs + out_vc
                if credit[key] <= 0:
                    raise SimulationError("switched a flit without credit")
                credit[key] -= 1
                if head:
                    # Reserve the downstream VC for this wormhole.
                    if not tail:
                        vc_out_local[gvc] = out_local
                        vc_out_vc[gvc] = out_vc
                    down_gvc = down_unit[out_local] * vcs + out_vc
                    pid = self._packets[pool.packet[flit]].packet_id
                    held = vc_active[down_gvc]
                    if held >= 0 and held != pid:
                        raise SimulationError(
                            "downstream VC reserved by another packet"
                        )
                    vc_active[down_gvc] = pid

            for _, out_local, out_vc, flit, _ in winners:
                if out_local == eject:
                    if series is not None:
                        series["noc.series.flits_ejected"].record(cycle)
                    self._eject(r, flit, cycle)
                    continue
                self._link_flits[chan_base + out_local] += 1
                if series is not None:
                    series["noc.series.flits_forwarded"].record(cycle)
                dst = self._out_nodes[r][out_local]
                arrival = cycle + self._wire_delay[r][out_local] + 1
                entry = (dst, self._in_local[dst][r], out_vc, flit)
                batch = arrivals.get(arrival)
                if batch is None:
                    arrivals[arrival] = [entry]
                else:
                    batch.append(entry)

    def _eject(self, r: int, flit: int, cycle: int) -> None:
        pool = self.pool
        ejected_at = cycle + 1  # crossing the ejection channel
        pid = self._packets[pool.packet[flit]].packet_id
        if self._sink.enabled:
            self._sink.instant(
                "eject", "noc.flit", ejected_at, tid=self._nodes[r],
                args={"packet": pid, "hops": pool.hops[flit]},
            )
        pending = self._pending_ejects
        for dest in pool.destinations[flit] or (r,):
            key = (pid, self._nodes[dest])
            remaining = pending.get(key)
            if remaining is None:
                raise SimulationError(
                    f"unexpected ejection of packet {pid} at {key[1]}"
                )
            if remaining > 1:
                pending[key] = remaining - 1
            else:
                self._complete(
                    key, pool.injected_at[flit], ejected_at, pool.hops[flit]
                )
        pool.free.append(flit)
