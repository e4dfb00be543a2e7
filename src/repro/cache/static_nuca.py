"""S-NUCA: the static baseline the paper contrasts D-NUCA against (§2).

In a Static NUCA there is no migration: every *set* lives, whole, in one
bank determined by address bits. A lookup goes straight to that bank (no
bank-set search, no multicast), and the access time is that bank's fixed
distance -- the farther sets are permanently slow, which is exactly the
"access latency determined by the slowest subbank" problem NUCA papers
attack.

Capacity and associativity match the D-NUCA configuration: the same
(column, index) sets with the same 16 ways, just pinned to a single home
bank each (``(index + column) % banks`` staggers sets across rows so the
bank distance distribution is uniform).
"""

from __future__ import annotations

from repro.cache.bankset import AccessOutcome, BankSetState
from repro.errors import ConfigurationError


class StaticNUCAArray:
    """Contents of a Static NUCA: each set whole in its home bank."""

    def __init__(self, columns: int = 16, banks_per_column: int = 16,
                 associativity: int = 16) -> None:
        if columns < 1 or banks_per_column < 1 or associativity < 1:
            raise ConfigurationError("dimensions must be positive")
        self.columns = columns
        self.banks_per_column = banks_per_column
        self.associativity = associativity
        self._sets: dict[tuple[int, int], BankSetState] = {}
        self.hits = 0
        self.misses = 0

    def home_bank(self, column: int, index: int) -> int:
        """The fixed bank position the whole set (*column*, *index*) lives in."""
        return (index + column) % self.banks_per_column

    def set_state(self, column: int, index: int) -> BankSetState:
        key = (column, index)
        state = self._sets.get(key)
        if state is None:
            bank = self.home_bank(column, index)
            # All ways live in the same physical bank.
            state = BankSetState([bank] * self.associativity)
            self._sets[key] = state
        return state

    def access(
        self, column: int, index: int, tag: int, is_write: bool = False
    ) -> AccessOutcome:
        """LRU access within the home bank of set (*column*, *index*)."""
        state = self.set_state(column, index)
        way = state.find(tag)
        if way is None:
            victim, moves = state.fill_front(tag, dirty=is_write)
            self.misses += 1
            return AccessOutcome(hit=False, moved_boundaries=moves,
                                 victim=victim)
        state.move_to_front(way)  # in-bank LRU update: free
        if is_write:
            state.mark_dirty(0)
        self.hits += 1
        # Every way sits in the home bank, so no hit moves a block.
        return state.layout.lru_hits[way]

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
