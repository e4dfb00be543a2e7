"""The object core's occupancy counts and the router visits they gate.

The object flit core sweeps only the routers that buffer a flit (switch
phase) or a multicast head (replication phase). Both sweeps trust
counts that ``VirtualChannel.push`` and ``pop`` keep, so these tests
hold the counts against what the VCs really hold after every cycle of
seeded random traffic, and pin how many router visits one isolated
protocol access costs.
"""

from __future__ import annotations

import random

import pytest

from repro.noc import (
    HaloTopology,
    MeshTopology,
    MessageType,
    Packet,
    SimplifiedMeshTopology,
)
from repro.noc.network import Network
from repro.noc.protocol import FlitLevelCacheProtocol
from repro.noc.router import Router
from repro.validation.fuzzer import _xyx_legal

#: One-flit and five-flit unicast messages, so wormholes span VCs.
UNICAST = (MessageType.READ_REQUEST, MessageType.HIT_DATA, MessageType.WRITEBACK)
MULTICAST = (MessageType.READ_REQUEST, MessageType.MISS_NOTIFY)


def _held(router: Router) -> tuple[int, int]:
    """(flits, multicast heads) the router's VCs actually buffer."""
    flits = [
        flit
        for unit in router.inputs.values()
        for vc in unit
        for flit in vc.fifo
    ]
    return len(flits), sum(1 for flit in flits if flit.is_multicast)


def _assert_counts_match(network: Network) -> None:
    busy = set()
    for rank, router in enumerate(network.routers.values()):
        counted = (router.occupancy.flits, router.occupancy.multicast_heads)
        assert counted == _held(router), router.node
        if counted[0]:
            busy.add(rank)
    assert network._active == busy


def _unicast(rng, nodes, legal=lambda src, dst: True):
    while True:
        source, destination = rng.choice(nodes), rng.choice(nodes)
        if source != destination and legal(source, destination):
            return Packet(rng.choice(UNICAST), source, (destination,))


def _multicast(rng, sources, nodes):
    width = rng.randint(2, min(6, len(nodes)))
    destinations = tuple(sorted(rng.sample(nodes, width), key=str))
    return Packet(rng.choice(MULTICAST), rng.choice(sources), destinations)


def _simplified_multicast(rng, nodes):
    if rng.random() < 0.5:
        row0 = [node for node in nodes if node[1] == 0]
        return _multicast(rng, row0, nodes)
    return _unicast(rng, nodes, _xyx_legal)


def _halo_multicast(rng, nodes):
    if rng.random() < 0.5:
        return _multicast(rng, nodes, nodes)
    return _unicast(rng, nodes)


FABRICS = {
    # Saturating: well past the 4x4 mesh's uniform-random knee.
    "mesh-unicast": (lambda: MeshTopology(4, 4), _unicast, 0.5),
    "simplified-multicast": (
        lambda: SimplifiedMeshTopology(4, 4), _simplified_multicast, 0.08
    ),
    "halo-multicast": (lambda: HaloTopology(3, 4), _halo_multicast, 0.08),
}


@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_counts_match_the_vcs_after_every_cycle(fabric):
    build, make_packet, rate = FABRICS[fabric]
    network = Network(build())
    nodes = list(network.topology.nodes)
    rng = random.Random(7)
    for _ in range(120):
        for node in nodes:
            if rng.random() < rate:
                network.inject(make_packet(rng, nodes))
        network.step()
        _assert_counts_match(network)
    cycles = 0
    while network.pending_work() or network.in_flight_flits():
        network.step()
        _assert_counts_match(network)
        cycles += 1
        assert cycles < 20_000, "traffic did not drain"
    assert network._active == set()
    if fabric.endswith("multicast"):
        assert network.total_replications() > 0


@pytest.mark.parametrize("outcome", ["hit", "miss"])
def test_isolated_access_visits_only_routers_with_work(monkeypatch, outcome):
    """Design A has 256 routers; an isolated access keeps a handful busy.

    ``switch_phase`` may run at most once per flit it switches, and
    ``replication_phase`` only at a router holding a multicast head.
    """
    switch_phase = Router.switch_phase
    replication_phase = Router.replication_phase
    switch_calls = 0
    switched = 0
    heads_at_replication: list[int] = []

    def counted_switch(self, cycle):
        nonlocal switch_calls, switched
        winners = switch_phase(self, cycle)
        switch_calls += 1
        switched += len(winners)
        return winners

    def counted_replication(self, cycle):
        heads_at_replication.append(_held(self)[1])
        return replication_phase(self, cycle)

    monkeypatch.setattr(Router, "switch_phase", counted_switch)
    monkeypatch.setattr(Router, "replication_phase", counted_replication)
    protocol = FlitLevelCacheProtocol("A", "multicast+fast_lru", core="object")
    if outcome == "hit":
        protocol.run_hit(0, protocol.geometry.banks_per_column(0) - 1)
    else:
        protocol.run_miss(0)
    assert switched > 0
    assert switch_calls <= switched
    assert heads_at_replication
    assert all(heads_at_replication)
