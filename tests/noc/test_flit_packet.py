"""Unit tests for flits, packets, and flitization (Section 5)."""

import pytest

from repro.errors import ProtocolError
from repro.noc import FlitType, MessageType, Packet


class TestFlitType:
    def test_head_tail_is_both(self):
        assert FlitType.HEAD_TAIL.is_head and FlitType.HEAD_TAIL.is_tail

    def test_body_is_neither(self):
        assert not FlitType.BODY.is_head and not FlitType.BODY.is_tail

    def test_head_and_tail(self):
        assert FlitType.HEAD.is_head and not FlitType.HEAD.is_tail
        assert FlitType.TAIL.is_tail and not FlitType.TAIL.is_head


class TestMessageTypes:
    @pytest.mark.parametrize(
        "message",
        [
            MessageType.WRITE_REQUEST,
            MessageType.REPLACEMENT,
            MessageType.HIT_DATA,
            MessageType.MEMORY_FILL,
            MessageType.WRITEBACK,
        ],
    )
    def test_block_carrying_messages(self, message):
        assert message.carries_block

    @pytest.mark.parametrize(
        "message",
        [
            MessageType.READ_REQUEST,
            MessageType.MISS_NOTIFY,
            MessageType.HIT_NOTIFY,
            MessageType.COMPLETION_NOTIFY,
            MessageType.MEMORY_REQUEST,
        ],
    )
    def test_control_messages(self, message):
        assert not message.carries_block


class TestPacket:
    def test_control_packet_single_flit(self):
        packet = Packet(MessageType.READ_REQUEST, source=(0, 0),
                        destinations=((1, 1),))
        flits = packet.flits()
        assert len(flits) == 1
        assert flits[0].kind is FlitType.HEAD_TAIL
        assert flits[0].destinations == ((1, 1),)

    def test_block_packet_five_flits(self):
        packet = Packet(MessageType.HIT_DATA, source=(0, 0),
                        destinations=((1, 1),))
        flits = packet.flits()
        assert len(flits) == 5
        assert [f.kind for f in flits] == [
            FlitType.HEAD, FlitType.BODY, FlitType.BODY, FlitType.BODY,
            FlitType.TAIL,
        ]

    def test_only_head_carries_destinations(self):
        packet = Packet(MessageType.REPLACEMENT, source=(0, 0),
                        destinations=((1, 1),))
        flits = packet.flits()
        assert flits[0].destinations == ((1, 1),)
        assert all(f.destinations == () for f in flits[1:])

    def test_multicast_control_packet_allowed(self):
        packet = Packet(
            MessageType.READ_REQUEST,
            source=(0, 0),
            destinations=tuple((0, y) for y in range(4)),
        )
        assert packet.is_multicast
        assert packet.flits()[0].is_multicast

    def test_multicast_block_packet_rejected(self):
        with pytest.raises(ProtocolError, match="carries a block"):
            Packet(
                MessageType.HIT_DATA,
                source=(0, 0),
                destinations=((0, 1), (0, 2)),
            )

    def test_empty_destinations_rejected(self):
        with pytest.raises(ProtocolError):
            Packet(MessageType.READ_REQUEST, source=(0, 0), destinations=())

    def test_packet_ids_unique(self):
        a = Packet(MessageType.READ_REQUEST, source=0, destinations=(1,))
        b = Packet(MessageType.READ_REQUEST, source=0, destinations=(1,))
        assert a.packet_id != b.packet_id


class TestFlit:
    def _flit(self, destinations=((1, 1),)):
        packet = Packet(MessageType.READ_REQUEST, source=(0, 0),
                        destinations=destinations)
        return packet.flits()[0]

    def test_clone_narrows_destinations(self):
        flit = self._flit(destinations=((1, 1), (2, 2)))
        replica = flit.clone_for(((2, 2),))
        assert replica.destinations == ((2, 2),)
        assert replica.packet is flit.packet
        assert replica.flit_id != flit.flit_id

    def test_clone_preserves_timing_fields(self):
        flit = self._flit(destinations=((1, 1), (2, 2)))
        flit.injected_at = 7
        flit.hops = 3
        flit.eligible_at = 9
        replica = flit.clone_for(((1, 1),))
        assert replica.injected_at == 7
        assert replica.hops == 3
        assert replica.eligible_at == 9
