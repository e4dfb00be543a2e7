"""The message sequences `FlitLevelCacheProtocol` plays, per scheme.

They follow `repro.core.flows`: a multicast request fans out down the
column, a unicast request walks it bank by bank, and a miss's memory
request leaves the core (multicast) or the LRU bank (unicast).
"""

import pytest

from repro.noc.packet import MessageType
from repro.noc.protocol import FlitLevelCacheProtocol


def _deliveries(protocol, message):
    return [
        delivery for delivery in protocol.network.stats.deliveries
        if delivery.packet.message is message
    ]


@pytest.mark.parametrize("design", ["A", "D"])
def test_unicast_miss_requests_memory_from_the_last_bank(design):
    protocol = FlitLevelCacheProtocol(design, "unicast+lru")
    trace = protocol.run_miss(column=5)
    nodes = protocol.geometry.nodes[5]
    [request] = _deliveries(protocol, MessageType.MEMORY_REQUEST)
    assert request.packet.source == nodes[-1]
    assert request.destination == protocol.memory
    assert _deliveries(protocol, MessageType.MISS_NOTIFY) == []
    # The walk visits every bank in turn before memory is asked.
    assert sorted(trace.request_arrivals) == list(range(len(nodes)))
    assert trace.memory_requested > trace.request_arrivals[len(nodes) - 1]


def test_multicast_miss_requests_memory_from_the_core():
    protocol = FlitLevelCacheProtocol("F", "multicast+fast_lru")
    protocol.run_miss(column=2)
    [notify] = _deliveries(protocol, MessageType.MISS_NOTIFY)
    [request] = _deliveries(protocol, MessageType.MEMORY_REQUEST)
    assert notify.packet.source == protocol.geometry.nodes[2][-1]
    assert request.packet.source == protocol.core


def test_unicast_hit_walks_to_the_hit_bank_only():
    protocol = FlitLevelCacheProtocol("E", "unicast+lru")
    trace = protocol.run_hit(column=7, depth=3)
    assert sorted(trace.request_arrivals) == [0, 1, 2, 3]
    [data] = _deliveries(protocol, MessageType.HIT_DATA)
    assert data.packet.source == protocol.geometry.nodes[7][3]
    assert _deliveries(protocol, MessageType.REPLACEMENT) == []
