"""Unit tests for virtual-channel buffers."""

import pytest

from repro.errors import SimulationError
from repro.noc import MessageType, Packet
from repro.noc.buffer import Occupancy, VirtualChannel, make_input_unit


def _flits(message=MessageType.REPLACEMENT):
    packet = Packet(message, source=(0, 0), destinations=((1, 1),))
    return packet.flits()


class TestVirtualChannel:
    def test_fresh_vc_is_free(self):
        vc = VirtualChannel(port="X+", index=0, depth=4)
        assert vc.is_free
        assert vc.head() is None

    def test_head_flit_claims_vc(self):
        vc = VirtualChannel(port="X+", index=0, depth=4)
        flits = _flits()
        vc.push(flits[0])
        assert not vc.is_free
        assert vc.active_packet == flits[0].packet.packet_id

    def test_tail_pop_releases_vc(self):
        vc = VirtualChannel(port="X+", index=0, depth=8)
        flits = _flits()
        for flit in flits:
            vc.push(flit)
        for _ in flits:
            vc.pop()
        assert vc.is_free

    def test_wormhole_order_preserved(self):
        vc = VirtualChannel(port="X+", index=0, depth=8)
        flits = _flits()
        for flit in flits:
            vc.push(flit)
        assert [vc.pop().index for _ in flits] == [0, 1, 2, 3, 4]

    def test_overflow_raises(self):
        vc = VirtualChannel(port="X+", index=0, depth=2)
        flits = _flits()
        vc.push(flits[0])
        vc.push(flits[1])
        with pytest.raises(SimulationError, match="overflow"):
            vc.push(flits[2])

    def test_foreign_head_rejected_when_held(self):
        vc = VirtualChannel(port="X+", index=0, depth=4)
        vc.push(_flits()[0])
        with pytest.raises(SimulationError, match="held by"):
            vc.push(_flits()[0])  # a different packet's head

    def test_reserved_vc_accepts_own_head(self):
        vc = VirtualChannel(port="X+", index=0, depth=4)
        flits = _flits()
        vc.active_packet = flits[0].packet.packet_id  # upstream reservation
        vc.push(flits[0])
        assert vc.head() is flits[0]

    def test_body_flit_needs_matching_allocation(self):
        vc = VirtualChannel(port="X+", index=0, depth=4)
        with pytest.raises(SimulationError, match="not allocated"):
            vc.push(_flits()[1])

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            VirtualChannel(port="X+", index=0, depth=4).pop()


class TestInputUnit:
    def test_make_input_unit(self):
        occupancy = Occupancy()
        unit = make_input_unit("Y-", num_vcs=4, depth=4, occupancy=occupancy)
        assert len(unit) == 4
        assert [vc.index for vc in unit] == [0, 1, 2, 3]
        assert all(vc.port == "Y-" for vc in unit)
        assert all(vc.router_occupancy is occupancy for vc in unit)
