"""Off-chip memory timing model (Table 1).

Pipelined: an access observes ``base + 4 * ceil(bytes/8)`` cycles of
latency (Table 1's base is 130, so 162 for a 64 B block), but the
pipeline accepts a new transfer only every ``4 * ceil(bytes/8)`` cycles,
so back-to-back fills and write-backs queue on the memory channel.
"""

from __future__ import annotations

from repro import config
from repro.errors import ConfigurationError
from repro.sim.resource import Resource


class MemoryModel:
    """A bandwidth-limited, fixed-latency memory behind one channel."""

    def __init__(
        self,
        block_size: int = config.BLOCK_SIZE_BYTES,
        base_latency: int = config.MEMORY_BASE_LATENCY,
    ) -> None:
        if base_latency < 0:
            # A block would be ready before it was requested.
            raise ConfigurationError(
                f"memory base latency must be >= 0, got {base_latency}"
            )
        self.block_size = block_size
        #: Pipeline occupancy of one block transfer.
        self.transfer_cycles = config.MEMORY_CYCLES_PER_8B * (
            (block_size + 7) // 8
        )
        #: Start-to-data latency of one block access.
        self.access_latency = base_latency + self.transfer_cycles
        self.channel = Resource(name="memory-channel")
        self.reads = 0
        self.writebacks = 0

    def read(self, time: int) -> tuple[int, int]:
        """Issue a block read at *time*.

        Returns ``(start, data_ready)``: the cycle the channel accepted the
        request and the cycle the block is available on-chip.
        """
        start = self.channel.acquire(time, self.transfer_cycles)
        self.reads += 1
        return start, start + self.access_latency

    def writeback(self, time: int) -> tuple[int, int]:
        """Issue a dirty-block write-back at *time*.

        Returns ``(start, done)``; the writer only occupies the channel, it
        does not wait for the full round-trip.
        """
        start = self.channel.acquire(time, self.transfer_cycles)
        self.writebacks += 1
        return start, start + self.transfer_cycles

    def reset(self) -> None:
        self.channel.reset()
        self.reads = 0
        self.writebacks = 0
