"""Property tests pinning the array core's switch arbitration tables.

The full-sim equivalence sweeps only visit (occupancy, credit,
round-robin pointer) states reachable from empty fabrics. These tests
plant *arbitrary* table states -- random buffered heads and wormhole
bodies, random credit counts, random rr pointers, randomly reserved
VCs -- into the object core and the array core, run exactly one
switch-allocation phase without delivering ejected flits, and require
identical grant vectors, identical post-state (pointers, credits, VC
bookkeeping), and identical counters. This pins the stringified-port
tie-break order independently of any workload generator.

The replication cases plant a multicast head among arbitrary per-PC VC
occupancy and upstream credits, run one replication phase, and pin
where each replica lands: the same VC on both cores, in the PC the
(utilization, inject-last, ``str(port)``) key picks from the planted
state.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import RouterConfig
from repro.noc import MeshTopology, MessageType, Network, Packet
from repro.noc.arraycore import ArrayNetwork
from repro.noc.router import EJECT, INJECT

MESH = 3

# Fixed 3x3-mesh port geometry, read off a throwaway object network so
# the strategies and the planters index ports identically.
_PROBE = Network(MeshTopology(MESH, MESH))
NODES = list(_PROBE.routers)
IN_PORTS = {r: list(_PROBE.routers[node].inputs) for r, node in enumerate(NODES)}
OUT_PORTS = {r: list(_PROBE.routers[node].out_ports) for r, node in enumerate(NODES)}
CONFIG = RouterConfig()
VCS = CONFIG.num_vcs
DEPTH = CONFIG.buffer_depth
del _PROBE


@st.composite
def table_state(draw):
    """One arbitrary arbitration table state.

    Buffered flits are drawn structurally (so hypothesis can shrink
    them); the bulk credit / rr tables come from a drawn PRNG seed.
    """
    flits = {}
    for _ in range(draw(st.integers(1, 16))):
        r = draw(st.integers(0, MESH * MESH - 1))
        p = draw(st.integers(0, len(IN_PORTS[r]) - 1))
        vc = draw(st.integers(0, VCS - 1))
        if (r, p, vc) in flits:
            continue
        eligible = draw(st.booleans())
        if draw(st.booleans()):
            dest = draw(st.integers(0, MESH * MESH - 1))
            flits[(r, p, vc)] = ("head", dest, eligible)
        else:
            out = draw(st.integers(0, len(OUT_PORTS[r]) - 1))
            out_vc = draw(st.integers(0, VCS - 1))
            tail = draw(st.booleans())
            flits[(r, p, vc)] = ("body", out, out_vc, eligible, tail)
    reserved = []
    for _ in range(draw(st.integers(0, 4))):
        r = draw(st.integers(0, MESH * MESH - 1))
        p = draw(st.integers(0, len(IN_PORTS[r]) - 1))
        vc = draw(st.integers(0, VCS - 1))
        if (r, p, vc) not in flits and (r, p, vc) not in reserved:
            reserved.append((r, p, vc))
    seed = draw(st.integers(0, 2**16))
    return _expand(flits, reserved, seed)


def _expand(flits, reserved, seed):
    """Fill the credit / rr tables from *seed*, honoring flow control.

    A channel's credit plus the occupancy of the downstream VC it feeds
    may never exceed the buffer depth, or credit return on pop would
    (correctly) raise in both cores.
    """
    rng = random.Random(seed)
    credits = {}
    for r in range(MESH * MESH):
        for out in OUT_PORTS[r]:
            if out == EJECT:
                continue
            d = NODES.index(out)
            p_at_d = IN_PORTS[d].index(NODES[r])
            for vc in range(VCS):
                occupied = 1 if (d, p_at_d, vc) in flits else 0
                credits[(r, out, vc)] = min(
                    rng.randint(0, DEPTH), DEPTH - occupied
                )
    rr_in = {
        (r, p): rng.randrange(VCS)
        for r in range(MESH * MESH)
        for p in range(len(IN_PORTS[r]))
    }
    rr_out = {
        (r, o): rng.randrange(8)
        for r in range(MESH * MESH)
        for o in range(len(OUT_PORTS[r]))
    }
    return {
        "flits": flits,
        "reserved": reserved,
        "credits": credits,
        "rr_in": rr_in,
        "rr_out": rr_out,
    }


def _flit_packets(spec):
    """(key -> tag, key -> Packet-args) shared by both planters."""
    tags = {}
    for key, planted in sorted(spec["flits"].items()):
        tags[key] = (planted[0],) + key
    return tags


def _plant_object(spec):
    net = Network(MeshTopology(MESH, MESH))
    tag_of_pid = {}
    for key, planted in sorted(spec["flits"].items()):
        r, p, vc_index = key
        router = net.routers[NODES[r]]
        vc = router.inputs[IN_PORTS[r][p]][vc_index]
        if planted[0] == "head":
            _, dest, eligible = planted
            packet = Packet(
                MessageType.READ_REQUEST, NODES[r], (NODES[dest],)
            )
            flit = packet.flits()[0]
            flit.eligible_at = 0 if eligible else 1
            vc.push(flit)
        elif planted[0] == "multicast":
            packet = Packet(
                MessageType.MISS_NOTIFY, NODES[r],
                tuple(NODES[d] for d in planted[1]),
            )
            vc.push(packet.flits()[0])
        else:
            _, out, out_vc, eligible, tail = planted
            packet = Packet(MessageType.WRITEBACK, NODES[r], (NODES[r],))
            flit = packet.flits()[4 if tail else 1]
            flit.eligible_at = 0 if eligible else 1
            vc.active_packet = packet.packet_id
            vc.push(flit)
            out_port = OUT_PORTS[r][out]
            vc.out_port = out_port
            vc.out_vc = None if out_port == EJECT else out_vc
        tag_of_pid[packet.packet_id] = ("flit",) + key
    for i, (r, p, vc_index) in enumerate(spec["reserved"]):
        router = net.routers[NODES[r]]
        router.inputs[IN_PORTS[r][p]][vc_index].active_packet = 10**9 + i
        tag_of_pid[10**9 + i] = ("reserved", i)
    for (r, out, vc), credit in spec["credits"].items():
        net.routers[NODES[r]].credits[(out, vc)] = credit
    for (r, p), value in spec["rr_in"].items():
        net.routers[NODES[r]]._rr_in[IN_PORTS[r][p]] = value
    for (r, o), value in spec["rr_out"].items():
        net.routers[NODES[r]]._rr_out[OUT_PORTS[r][o]] = value
    return net, tag_of_pid


def _plant_array(spec):
    net = ArrayNetwork(MeshTopology(MESH, MESH))
    tag_of_pid = {}
    for key, planted in sorted(spec["flits"].items()):
        r, p, vc_index = key
        gvc = (net._unit_base[r] + p) * VCS + vc_index
        if planted[0] == "head":
            _, dest, eligible = planted
            packet = Packet(
                MessageType.READ_REQUEST, NODES[r], (NODES[dest],)
            )
            row = len(net._packets)
            net._packets.append(packet)
            flit = net.pool.alloc(
                row, True, True, 0, (dest,), 0, 0, 0 if eligible else 1
            )
            net._push(r, gvc, flit)
        elif planted[0] == "multicast":
            packet = Packet(
                MessageType.MISS_NOTIFY, NODES[r],
                tuple(NODES[d] for d in planted[1]),
            )
            row = len(net._packets)
            net._packets.append(packet)
            flit = net.pool.alloc(row, True, True, 0, planted[1], 0, 0, 0)
            net._push(r, gvc, flit)
        else:
            _, out, out_vc, eligible, tail = planted
            packet = Packet(MessageType.WRITEBACK, NODES[r], (NODES[r],))
            row = len(net._packets)
            net._packets.append(packet)
            flit = net.pool.alloc(
                row, False, tail, 4 if tail else 1, (r,), 0, 0,
                0 if eligible else 1,
            )
            net._vc_active[gvc] = packet.packet_id
            net._push(r, gvc, flit)
            eject = net._eject_local[r]
            net._vc_out_local[gvc] = out
            net._vc_out_vc[gvc] = -1 if out == eject else out_vc
        tag_of_pid[packet.packet_id] = ("flit",) + key
    for i, (r, p, vc_index) in enumerate(spec["reserved"]):
        gvc = (net._unit_base[r] + p) * VCS + vc_index
        net._vc_active[gvc] = 10**9 + i
        tag_of_pid[10**9 + i] = ("reserved", i)
    for (r, out, vc), credit in spec["credits"].items():
        out_local = OUT_PORTS[r].index(out)
        net._credit[(net._chan_base[r] + out_local) * VCS + vc] = credit
    for (r, p), value in spec["rr_in"].items():
        net._rr_in[net._unit_base[r] + p] = value
    for (r, o), value in spec["rr_out"].items():
        net._rr_out[net._rr_out_base[r] + o] = value
    return net, tag_of_pid


def _run_object(spec):
    net, tags = _plant_object(spec)
    grants = []

    def record(node, forward, cycle):
        eject = forward.out_port == EJECT
        grants.append((
            str(node),
            "EJECT" if eject else str(forward.out_port),
            None if eject else forward.out_vc,
            tags[forward.flit.packet.packet_id],
        ))

    net._handle_forward = record
    net._switch_phase(0)
    return grants, _object_state(net, tags)


def _run_array(spec):
    """One array switch phase; grants in the object core's record order.

    Forwards are read back off the links (``_arrivals``) and ejections
    through a stubbed ``_eject``. Each router grants at most one flit
    per output, so ordering them by (router, local output) -- EJECT is
    the last local output -- reproduces the sweep's forward order.
    """
    net, tags = _plant_array(spec)
    moves = []

    def eject(r, flit, cycle):
        moves.append((r, net._eject_local[r], -1, flit))

    net._eject = eject
    net._switch_phase(0, sorted(net._active))
    for batch in net._arrivals.values():
        for dst, p, out_vc, flit in batch:
            r = net._in_nodes[dst][p]
            moves.append((r, net._out_local[r][dst], out_vc, flit))
    grants = []
    for r, out_local, out_vc, flit in sorted(moves):
        ejected = out_local == net._eject_local[r]
        grants.append((
            str(NODES[r]),
            "EJECT" if ejected else str(NODES[net._out_nodes[r][out_local]]),
            None if ejected else out_vc,
            tags[net._packets[net.pool.packet[flit]].packet_id],
        ))
    return grants, _array_state(net, tags)


def _object_state(net, tags):
    state = {}
    totals = dict.fromkeys(
        ("forwarded", "ejected", "conflicts", "alloc_failures",
         "bypass", "speculative"), 0)
    for node in NODES:
        router = net.routers[node]
        stats = router.stats
        totals["forwarded"] += stats.flits_forwarded
        totals["ejected"] += stats.flits_ejected
        totals["conflicts"] += stats.switch_conflicts
        totals["alloc_failures"] += stats.vc_alloc_failures
        totals["bypass"] += stats.buffer_bypass_hits
        totals["speculative"] += stats.speculative_switch_wins
        for port, unit in router.inputs.items():
            state[("rr_in", str(node), str(port))] = router._rr_in[port]
            for vc in unit:
                eject = vc.out_port == EJECT
                state[("vc", str(node), str(port), vc.index)] = (
                    len(vc.fifo),
                    tags.get(vc.active_packet),
                    "EJECT" if eject else (
                        None if vc.out_port is None else str(vc.out_port)
                    ),
                    None if eject else vc.out_vc,
                )
        for out in router.out_ports:
            state[("rr_out", str(node), str(out))] = router._rr_out[out]
            if out == EJECT:
                continue
            for vc in range(VCS):
                state[("credit", str(node), str(out), vc)] = (
                    router.credits[(out, vc)]
                )
                state[("stall", str(node), str(out), vc)] = (
                    router.credit_stalls.get((out, vc), 0)
                )
    state["totals"] = totals
    return state


def _array_state(net, tags):
    state = {}
    state["totals"] = {
        "forwarded": net.flits_forwarded,
        "ejected": net.flits_ejected,
        "conflicts": net.switch_conflicts,
        "alloc_failures": net.vc_alloc_failures,
        "bypass": net.buffer_bypass_hits,
        "speculative": net.speculative_switch_wins,
    }
    for r, node in enumerate(NODES):
        eject = net._eject_local[r]
        for p, port in enumerate(IN_PORTS[r]):
            unit = net._unit_base[r] + p
            state[("rr_in", str(node), str(port))] = net._rr_in[unit]
            for vc in range(VCS):
                gvc = unit * VCS + vc
                active = net._vc_active[gvc]
                out_local = net._vc_out_local[gvc]
                if out_local == eject:
                    out_name, out_vc = "EJECT", None
                elif out_local < 0:
                    out_name, out_vc = None, None
                else:
                    out_name = str(NODES[net._out_nodes[r][out_local]])
                    out_vc = net._vc_out_vc[gvc]
                state[("vc", str(node), str(port), vc)] = (
                    net._vc_len[gvc],
                    None if active < 0 else tags.get(active),
                    out_name,
                    out_vc,
                )
        for o, out in enumerate(OUT_PORTS[r]):
            state[("rr_out", str(node), str(out))] = (
                net._rr_out[net._rr_out_base[r] + o]
            )
            if out == EJECT:
                continue
            chan = net._chan_base[r] + o
            for vc in range(VCS):
                state[("credit", str(node), str(out), vc)] = (
                    net._credit[chan * VCS + vc]
                )
                state[("stall", str(node), str(out), vc)] = (
                    net._credit_stall[chan * VCS + vc]
                )
    return state


class TestArbitrationEquivalence:
    @given(spec=table_state())
    @settings(max_examples=60, deadline=None)
    def test_scalar_grants_match_object(self, spec):
        expected = _run_object(spec)
        assert _run_array(spec) == expected


class TestTieBreakPinned:
    """Two-contender conflicts resolve by str(port) rank + rr pointer,
    pinned explicitly -- not merely 'all cores agree'."""

    def _conflict_spec(self, rr_out_value):
        center = NODES.index((1, 1))
        ports = [
            p for p, port in enumerate(IN_PORTS[center])
            if port in ((0, 1), (2, 1))
        ]
        dest = NODES.index((1, 0))
        flits = {
            (center, p, 0): ("head", dest, True) for p in ports
        }
        spec = _expand(flits, [], seed=5)
        out_port = None
        net = Network(MeshTopology(MESH, MESH))
        probe = net.routers[(1, 1)].routing.next_hop(
            net.topology, (1, 1), (1, 0)
        )
        out_port = probe
        o = OUT_PORTS[center].index(out_port)
        spec["rr_out"][(center, o)] = rr_out_value
        return spec, out_port

    @pytest.mark.parametrize("rr_out_value", [0, 1, 2, 3])
    def test_conflict_winner_matches_str_sort(self, rr_out_value):
        spec, out_port = self._conflict_spec(rr_out_value)
        grants, state = _run_object(spec)
        winners = [g for g in grants if g[1] == str(out_port)]
        assert len(winners) == 1
        contenders = sorted(
            key for key, planted in spec["flits"].items()
            if planted[0] == "head"
        )
        ranked = sorted(
            contenders, key=lambda key: str(IN_PORTS[key[0]][key[1]])
        )
        expected = ("flit",) + ranked[rr_out_value % len(ranked)]
        assert winners[0][3] == expected
        assert state["totals"]["conflicts"] == 1
        assert _run_array(spec) == (grants, state)


# -- replication ----------------------------------------------------------

CENTER = NODES.index((1, 1))
# The centre's four neighbours and the centre itself: each destination
# needs its own output (a neighbour's port, or EJECT), so k planted
# destinations ask for k - 1 replicas.
SPLIT_DESTS = tuple(
    NODES.index(node) for node in ((0, 1), (2, 1), (1, 0), (1, 2), (1, 1))
)


@st.composite
def replication_state(draw):
    """A multicast head at the centre router among arbitrary reservations."""
    ports = len(IN_PORTS[CENTER])
    head = (CENTER, draw(st.integers(0, ports - 1)), draw(st.integers(0, VCS - 1)))
    dests = tuple(draw(st.lists(
        st.sampled_from(SPLIT_DESTS), min_size=2, max_size=4, unique=True
    )))
    reserved = draw(st.lists(
        st.tuples(st.integers(0, ports - 1), st.integers(0, VCS - 1)),
        unique=True, max_size=ports * VCS,
    ))
    spec = _expand(
        {head: ("multicast", dests)},
        [(CENTER,) + slot for slot in reserved if (CENTER,) + slot != head],
        draw(st.integers(0, 2**16)),
    )
    return spec, head, len(dests) - 1


def _replicas_object(spec):
    """Every buffered flit at the centre, post-state and blocked cycles
    after one object-core replication phase."""
    net, tags = _plant_object(spec)
    net._replication_phase(0)
    router = net.routers[NODES[CENTER]]
    slots = sorted(
        (str(port), vc.index, tuple(str(d) for d in flit.destinations))
        for port, unit in router.inputs.items()
        for vc in unit
        for flit in vc.fifo
    )
    return slots, _object_state(net, tags), router.stats.replication_blocked_cycles


def _replicas_array(spec):
    net, tags = _plant_array(spec)
    net._replication_phase(0, sorted(net._active))
    slots = []
    for p, port in enumerate(IN_PORTS[CENTER]):
        for vc in range(VCS):
            gvc = (net._unit_base[CENTER] + p) * VCS + vc
            for k in range(net._vc_len[gvc]):
                flit = net._slots[gvc * DEPTH + (net._vc_head[gvc] + k) % DEPTH]
                dests = tuple(str(NODES[d]) for d in net.pool.destinations[flit])
                slots.append((str(port), vc, dests))
    return sorted(slots), _array_state(net, tags), net.replication_blocked_cycles


def _steal_order(spec, head):
    """Free (PC, VC) slots in the order the replication key visits them."""
    _, mc_port, mc_vc = head
    busy = {(p, vc) for r, p, vc in spec["reserved"]} | {(mc_port, mc_vc)}

    def has_credit(p, vc):
        port = IN_PORTS[CENTER][p]
        if port == INJECT:
            return True
        upstream = NODES.index(port)
        return spec["credits"][(upstream, NODES[CENTER], vc)] > 0

    def key(p):
        port = IN_PORTS[CENTER][p]
        utilization = sum((p, vc) in busy for vc in range(VCS))
        return (utilization, port == INJECT, str(port))

    order = sorted((p for p in range(len(IN_PORTS[CENTER])) if p != mc_port), key=key)
    return [
        (str(IN_PORTS[CENTER][p]), vc)
        for p in order
        for vc in range(VCS)
        if (p, vc) not in busy and has_credit(p, vc)
    ]


class TestReplicationPinned:
    """Where a replica steals its VC: (utilization, inject-last, str(port)),
    pinned against the planted state -- not merely 'both cores agree'."""

    @given(case=replication_state())
    @settings(max_examples=60, deadline=None)
    def test_replica_vcs_follow_the_steal_key(self, case):
        spec, head, replicas = case
        slots, state, blocked = _replicas_object(spec)
        assert _replicas_array(spec) == (slots, state, blocked)
        free = _steal_order(spec, head)
        head_slot = (str(IN_PORTS[CENTER][head[1]]), head[2])
        stolen = [slot[:2] for slot in slots if slot[:2] != head_slot]
        if len(free) < replicas:
            assert (stolen, blocked) == ([], 1)
        else:
            assert sorted(stolen) == sorted(free[:replicas])
            assert blocked == 0
