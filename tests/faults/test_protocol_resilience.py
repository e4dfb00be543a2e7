"""Protocol-layer resilience: typed trace guards."""

import pytest

from repro.errors import ProtocolError
from repro.noc.protocol import FlitLevelCacheProtocol, ProtocolTrace


class TestTraceGuards:
    def test_chain_done_raises_until_set(self):
        trace = ProtocolTrace(issued=0)
        with pytest.raises(ProtocolError):
            trace.chain_done
        trace.chain_done_at = 11
        assert trace.chain_done == 11

    def test_memory_requested_raises_until_set(self):
        trace = ProtocolTrace(issued=0)
        with pytest.raises(ProtocolError):
            trace.memory_requested
        trace.memory_requested_at = 7
        assert trace.memory_requested == 7

    def test_data_latency_raises_until_complete(self):
        with pytest.raises(ProtocolError):
            ProtocolTrace(issued=3).data_latency

    def test_hit_trace_never_requests_memory(self):
        protocol = FlitLevelCacheProtocol("C")  # four banks per column
        trace = protocol.run_hit(column=1, depth=2)
        assert trace.data_latency > 0
        with pytest.raises(ProtocolError):
            trace.memory_requested

