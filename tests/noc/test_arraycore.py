"""Equivalence and unit tests for the SoA array core (repro.noc.arraycore).

The array core's contract is *bit-equivalence* with the object-model
reference ``Network``: :func:`repro.validation.differential.compare`
must find no divergence -- cycle counts, delivery records, and the full
published telemetry snapshot -- for any legal workload. The sweeps here
drive both cores over designs x traffic x seeds; the unit tests pin the
SoA plumbing (ring-buffer wraparound, pool growth, credit accounting,
replication slot borrowing) and the flow-control guards of the arrival
and switch phases directly.
"""

from __future__ import annotations

import random
from array import array

import pytest

from repro.errors import SimulationError
from repro.noc import HaloTopology, MeshTopology, MessageType, Network, Packet
from repro.noc.arraycore import ArrayNetwork, FlitPool
from repro.noc.network import make_network, normalize_core
from repro.stream.arrivals import generate_arrivals, tenant_mix
from repro.stream.service import StreamService
from repro.validation.differential import (
    FlitWorkload,
    PacketSpec,
    compare,
    observe,
)


def _west_input_vc(net):
    """(router, local input, VC 0) of router (1, 0)'s input from (0, 0)."""
    r = net._node_index[(1, 0)]
    p = net._in_local[r][net._node_index[(0, 0)]]
    return r, p, (net._unit_base[r] + p) * net._vcs


def _plant_flit(net, r, head, tail, row=None):
    """One flit destined for router *r*; a fresh packet row by default."""
    if row is None:
        packet = Packet(MessageType.READ_REQUEST, (0, 0), (net._nodes[r],))
        row = len(net._packets)
        net._packets.append(packet)
    dests = (r,) if head else ()
    return net.pool.alloc(row, head, tail, 0 if head else 1, dests, 0, 0, 0)


def _unicast_stream(nodes, seed, count, spacing):
    rng = random.Random(seed)
    stream = []
    for i in range(count):
        source, destination = rng.sample(nodes, 2)
        message = rng.choice(("read_request", "replacement"))
        stream.append(PacketSpec(message, source, (destination,), i * spacing))
    return stream


def _halo_mixed(seed, unicasts, multicasts):
    """Unicast background plus hub-to-spike multicasts on a 4x4 halo."""
    nodes = sorted(HaloTopology(4, 4).nodes, key=str)
    rng = random.Random(seed)
    packets = _unicast_stream(nodes, seed, count=unicasts, spacing=4)
    spikes = [n for n in nodes if n[0] == "spike"]
    for i in range(multicasts):
        destinations = tuple(rng.sample(spikes, 3))
        packets.append(PacketSpec("miss_notify", ("hub",), destinations, i * 5))
    return tuple(packets)


class TestEquivalenceSweeps:
    @pytest.mark.parametrize("single_cycle", [True, False])
    @pytest.mark.parametrize("seed", [1, 2, 3, 21])
    def test_mesh_unicast(self, seed, single_cycle):
        nodes = [(x, y) for x in range(5) for y in range(4)]
        packets = _unicast_stream(nodes, seed, count=30, spacing=2)
        workload = FlitWorkload("mesh", 5, 4, single_cycle, packets=tuple(packets))
        assert compare(workload) is None

    @pytest.mark.parametrize(
        "seed, count", [(1, 20), (2, 20), (3, 20), (23, 15)],
        ids=["1", "2", "3", "23"],
    )
    def test_simplified_mesh_multicast(self, seed, count):
        rng = random.Random(seed)
        packets = []
        for i in range(count):
            x = rng.randrange(4)
            column = tuple((x, y) for y in range(4))
            packets.append(PacketSpec("read_request", (x, 0), column, i * 3))
        workload = FlitWorkload("simplified", 4, 4, packets=tuple(packets))
        assert compare(workload) is None

    @pytest.mark.parametrize("single_cycle", [True, False])
    def test_halo_mixed_traffic(self, single_cycle):
        packets = _halo_mixed(9, unicasts=15, multicasts=8)
        workload = FlitWorkload("halo", 4, 4, single_cycle, packets=packets)
        assert compare(workload) is None

    def test_protocol_paced_large_mesh(self):
        nodes = [(x, y) for x in range(8) for y in range(8)]
        packets = _unicast_stream(nodes, 5, count=25, spacing=40)
        workload = FlitWorkload("mesh", 8, 8, packets=tuple(packets))
        assert compare(workload) is None


class TestProtocolAndLoadParity:
    def test_protocol_trace_identical(self):
        from repro.noc.protocol import FlitLevelCacheProtocol

        traces = {}
        for core in ("object", "array"):
            traces[core] = []
            for design, scheme in (
                ("A", "multicast+fast_lru"),
                ("F", "unicast+lru"),
            ):
                protocol = FlitLevelCacheProtocol(design, scheme, core=core)
                hit = protocol.run_hit(column=3, depth=4)
                miss = protocol.run_miss(column=5)
                traces[core].append((
                    hit.issued,
                    hit.data_at_core,
                    hit.chain_done_at,
                    sorted(hit.request_arrivals.items()),
                    miss.data_at_core,
                    miss.memory_requested_at,
                ))
        assert traces["object"] == traces["array"]

    def test_load_point_identical(self):
        from repro.experiments.noc_load import run_load_point

        points = {
            core: run_load_point(
                0.02, mesh_size=4, cycles=120, seed=3, core=core
            )
            for core in ("object", "array")
        }
        assert points["object"] == points["array"]


class TestCoreSelector:
    def test_normalize_core(self):
        assert normalize_core(None) == "object"
        assert normalize_core("object") == "object"
        assert normalize_core("array") == "array"
        with pytest.raises(SimulationError):
            normalize_core("array-scalar")
        with pytest.raises(SimulationError):
            normalize_core("simd")

    def test_make_network_object(self):
        net = make_network(MeshTopology(2, 2), core="object")
        assert isinstance(net, Network)

    def test_make_network_array(self):
        net = make_network(MeshTopology(2, 2), core="array")
        assert isinstance(net, ArrayNetwork)

    def test_make_network_array_scalar(self):
        # The array core has one cycle loop; the old selector is gone.
        with pytest.raises(SimulationError, match="unknown flit core"):
            make_network(MeshTopology(2, 2), core="array-scalar")


class TestSoAPlumbing:
    def test_flit_pool_growth_doubles(self):
        pool = FlitPool(capacity=2)
        rows = [
            pool.alloc(0, True, True, 0, (i,), 0, 0, 0) for i in range(5)
        ]
        assert rows == [0, 1, 2, 3, 4]
        assert pool.capacity >= 5
        assert pool.size == 5
        assert pool.destinations[4] == (4,)

    def test_flit_pool_columns_match_capacity_after_growth(self):
        # Growing from 256 to 8,192 rows must add exactly that many rows
        # to every column, whatever its item size. The free list of
        # ejected rows is not a column.
        pool = FlitPool()
        for i in range(4097):
            pool.alloc(i, True, True, 0, (0,), 0, 0, 0)
        assert pool.capacity == 8192
        columns = {
            name: len(column)
            for name, column in vars(pool).items()
            if isinstance(column, (array, list)) and name != "free"
        }
        assert len(columns) == 12
        assert columns == dict.fromkeys(columns, pool.capacity)

    def test_ring_buffer_wraparound(self):
        # Force heavy reuse of one VC: a long single-source stream keeps
        # pushing/popping through the same ring slots.
        net = ArrayNetwork(MeshTopology(3, 1))
        for i in range(12):
            net.schedule_injection(
                Packet(
                    MessageType.REPLACEMENT, (0, 0), ((2, 0),)
                ),
                at_cycle=i,
            )
        net.run_until_drained(max_cycles=5_000)
        assert len(net.stats.deliveries) == 12

    def test_credit_overflow_raises(self):
        # A buffered flit whose upstream channel already holds full
        # credit: popping it in the switch phase returns one credit too
        # many.
        net = ArrayNetwork(MeshTopology(2, 2))
        r, p, gvc = _west_input_vc(net)
        net._push(r, gvc, _plant_flit(net, r, head=True, tail=True))
        chan = net._up_chan[r][p]
        net._credit[chan * net._vcs] = net._depth
        with pytest.raises(
            SimulationError, match=r"^credit overflow on channel into \(1, 0\)$"
        ):
            net._switch_phase(0, sorted(net._active))

    def test_vc_overflow_raises(self):
        net = ArrayNetwork(MeshTopology(2, 2))
        r, p, gvc = _west_input_vc(net)
        head = _plant_flit(net, r, head=True, tail=False)
        row = net.pool.packet[head]
        net._push(r, gvc, head)
        for _ in range(net._depth - 1):
            net._push(r, gvc, _plant_flit(net, r, False, False, row))
        late = _plant_flit(net, r, False, True, row)
        net._arrivals[0] = [(r, p, 0, late)]
        with pytest.raises(
            SimulationError,
            match=rf"^VC overflow at router \(1, 0\) gvc {gvc}: "
                  r"credit flow control violated$",
        ):
            net._deliver_arrivals(0)

    def test_head_into_held_vc_raises(self):
        net = ArrayNetwork(MeshTopology(2, 2))
        r, p, gvc = _west_input_vc(net)
        net._vc_active[gvc] = 10**9
        head = _plant_flit(net, r, head=True, tail=True)
        pid = net._packets[net.pool.packet[head]].packet_id
        net._arrivals[0] = [(r, p, 0, head)]
        with pytest.raises(
            SimulationError,
            match=rf"^head flit of packet {pid} entered VC held by "
                  rf"packet {10**9}$",
        ):
            net._deliver_arrivals(0)

    def test_body_into_unallocated_vc_raises(self):
        net = ArrayNetwork(MeshTopology(2, 2))
        r, p, gvc = _west_input_vc(net)
        body = _plant_flit(net, r, head=False, tail=True)
        net._arrivals[0] = [(r, p, 0, body)]
        with pytest.raises(
            SimulationError,
            match=r"^body flit entered a VC not allocated to its packet$",
        ):
            net._deliver_arrivals(0)
        assert net._vc_len[gvc] == 0

    def test_pool_reuses_ejected_rows(self):
        # A 1,500-cycle serve cell on design C at load 3 takes ~1,400
        # flit rows; reused once ejected, the first 256 hold them all,
        # and every row is free again once the cell drains.
        service = StreamService("C", core="array")
        requests = generate_arrivals(tenant_mix("duo-bursty", 3.0), 1500, seed=1)
        service.run(requests, 1500)
        assert service.completed > 200
        pool = service.network.pool
        assert pool.capacity == 256
        assert sorted(pool.free) == list(range(pool.size))

    def test_checkers_and_faults_unsupported(self):
        net = ArrayNetwork(MeshTopology(2, 2))
        with pytest.raises(SimulationError):
            net.install_checker(object())
        assert net.checkers == ()

    def test_replication_borrows_and_counts(self):
        # One spine-to-column multicast must replicate once per column
        # router below the source; counters match the object core's.
        column = tuple((1, y) for y in range(4))
        workload = FlitWorkload(
            "simplified", 3, 4,
            packets=(PacketSpec("read_request", (1, 0), column),),
        )
        assert compare(workload) is None
        net = workload.run("array")
        assert net.total_replications() >= 1
        assert len(net.stats.deliveries) == 4


def _diagnostics(core):
    """``drain_diagnostic()`` before the first cycle and after each one."""
    network = make_network(MeshTopology(4, 1), core=core)
    for packet in (
        Packet(MessageType.REPLACEMENT, (0, 0), ((3, 0),), packet_id=1),
        Packet(MessageType.READ_REQUEST, (1, 0), ((3, 0),), packet_id=2),
        Packet(MessageType.MISS_NOTIFY, (3, 0), ((0, 0), (1, 0)), packet_id=3),
    ):
        network.inject(packet)
    texts = [network.drain_diagnostic()]
    while network.pending_work():
        assert network.cycle < 100, "4x1 mesh failed to drain"
        network.step()
        texts.append(network.drain_diagnostic())
    return texts


class TestDrainDiagnostic:
    def test_cores_agree_after_every_cycle(self):
        # The diagnostic is shared, so both cores must describe the same
        # state with the same text: wormhole reservations of empty VCs,
        # partial injections and inject queues included.
        expected = _diagnostics("object")
        assert any("reserved for packet" in text for text in expected)
        assert any("partially injected" in text for text in expected)
        assert "inject queues" in expected[0]
        assert _diagnostics("array") == expected


class TestObservabilityEquivalence:
    """Windowed series and spatial congestion counters are part of the
    bit-equivalence contract: :func:`compare` diffs the full published
    registry snapshots -- same per-link counters, same per-VC
    high-waters, same series windows -- not merely aggregate counts."""

    @pytest.mark.parametrize("window", [8, 64])
    def test_mesh_windowed_snapshots_identical(self, window):
        nodes = [(x, y) for x in range(5) for y in range(4)]
        packets = _unicast_stream(nodes, 11, count=40, spacing=2)
        workload = FlitWorkload("mesh", 5, 4, window=window, packets=tuple(packets))
        assert compare(workload) is None
        metrics = observe(workload.run("object"))["metrics"]
        series = {
            name: snap for name, snap in metrics.items()
            if snap["type"] == "series"
        }
        assert series
        assert all(snap["window"] == window for snap in series.values())
        assert any(snap["windows"] for snap in series.values())
        assert any(name.startswith("noc.link.flits.") for name in metrics)

    def test_halo_multicast_snapshots_identical(self):
        workload = FlitWorkload(
            "halo", 4, 4, window=16,
            packets=_halo_mixed(13, unicasts=12, multicasts=6),
        )
        assert compare(workload) is None
        metrics = observe(workload.run("object"))["metrics"]
        assert "noc.hub.issue_queue_depth" in metrics
