"""Figure 2 worked example: LRU vs Fast-LRU communication for a hit in bank 4.

The paper walks a 16-bank column where the request hits in the fourth
bank: classic LRU needs 21 hops of communication in total (7 of initial
tag-matching, 14 of post-hit block movement and notification) while
Fast-LRU needs 12, because the eviction chain rides along with the
request.

Rather than re-deriving the paper's exact leg bookkeeping, we *measure*
the communication of both schemes with the flow engine: every channel
acquisition of the transaction is one hop of one message. The absolute
counts differ slightly from the paper's 21/12 (our core-to-column
distance is 0 on the core's own column), but the shape -- Fast-LRU
roughly halving LRU's communication, with identical tag-match cost --
must hold, and the test suite pins it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.address import AddressMapper
from repro.core.system import NetworkedCacheSystem

PAPER_LRU_HOPS = 21
PAPER_FASTLRU_HOPS = 12
#: The paper's example hits the fourth bank (position 3, 0-indexed).
HIT_POSITION = 3
#: A column away from the core, so the request pays realistic row hops.
COLUMN = 4


@dataclass(frozen=True)
class HopMeasurement:
    scheme: str
    total_hops: int
    data_latency: int
    transaction_latency: int


def _measure(scheme: str, column: int = COLUMN) -> HopMeasurement:
    system = NetworkedCacheSystem(design="A", scheme=scheme)
    mapper = AddressMapper()
    index = 7
    # Fill the set so tags 15..0 sit at ways 0..15; tag (15 - HIT_POSITION)
    # then sits exactly at the paper's hit bank.
    for tag in range(16):
        system.access(mapper.encode(tag=tag, index=index, column=column), at=0)
    system.geometry.reset_contention()
    system.memory.reset()
    system.engine.reset()
    before = _channel_grants(system)
    timing = system.access(
        mapper.encode(tag=15 - HIT_POSITION, index=index, column=column),
        at=10_000,
    )
    assert timing.hit and timing.bank_position == HIT_POSITION
    after = _channel_grants(system)
    return HopMeasurement(
        scheme=scheme,
        total_hops=after - before,
        data_latency=timing.latency,
        transaction_latency=timing.transaction_latency,
    )


def _channel_grants(system: NetworkedCacheSystem) -> int:
    channels, _ = system.geometry.resources()
    return sum(resource.grants for resource in channels.values())


def run() -> dict[str, HopMeasurement]:
    return {
        "lru": _measure("unicast+lru"),
        "fast_lru": _measure("unicast+fast_lru"),
    }


def render(results: dict[str, HopMeasurement]) -> str:
    lru = results["lru"]
    fast = results["fast_lru"]
    return "\n".join(
        [
            "Figure 2 example: hit in the 4th bank of a 16-way column",
            f"  LRU:      {lru.total_hops} hops, transaction "
            f"{lru.transaction_latency} cycles (paper: {PAPER_LRU_HOPS} hops)",
            f"  Fast-LRU: {fast.total_hops} hops, transaction "
            f"{fast.transaction_latency} cycles (paper: {PAPER_FASTLRU_HOPS} hops)",
            f"  hop saving: {1 - fast.total_hops / lru.total_hops:.0%} "
            f"(paper: {1 - PAPER_FASTLRU_HOPS / PAPER_LRU_HOPS:.0%})",
        ]
    )
