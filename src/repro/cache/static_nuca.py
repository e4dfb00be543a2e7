"""S-NUCA: the static baseline the paper contrasts D-NUCA against (§2).

In a Static NUCA there is no migration: every *set* lives, whole, in one
bank determined by address bits. A lookup goes straight to that bank (no
bank-set search, no multicast), and the access time is that bank's fixed
distance -- the farther sets are permanently slow, which is exactly the
"access latency determined by the slowest subbank" problem NUCA papers
attack.

Capacity and associativity match the D-NUCA configuration: the same
(column, index) sets with the same ways, under LRU, just pinned to a
single home bank each (``(index + column) % banks`` staggers sets across
rows so the bank distance distribution is uniform). Since every way of a
set sits in one bank, no hit or fill ever moves a block between banks.
"""

from __future__ import annotations

from repro.cache.array import CacheArray
from repro.cache.bank import BankDescriptor
from repro.cache.bankset import BankSetState
from repro.cache.replacement import LRUPolicy


class StaticNUCAArray(CacheArray):
    """Contents of a Static NUCA: LRU sets, each whole in its home bank."""

    def __init__(self, columns: list[list[BankDescriptor]]) -> None:
        super().__init__(columns, LRUPolicy())

    def home_bank(self, column: int, index: int) -> int:
        """The fixed bank position the whole set (*column*, *index*) lives in."""
        return (index + column) % len(self.columns[column])

    def _new_set(self, column: int, index: int) -> BankSetState:
        return BankSetState(
            [self.home_bank(column, index)] * self.associativity(column)
        )
