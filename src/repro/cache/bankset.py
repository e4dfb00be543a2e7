"""Logical contents of one distributed bank set.

A bank set is an ordered stack of ``associativity`` ways; way 0 lives in
the MRU (closest) bank and the last way in the LRU (farthest) bank
(Section 3.2). The *timing* of replacement differs radically between LRU,
Fast-LRU, and Promotion, but the *contents* evolve by two primitive
reorderings, implemented here:

* ``move_to_front`` -- LRU/Fast-LRU hit: the hit block becomes way 0 and
  everything above it shifts one way down (toward the LRU bank);
* ``swap`` -- Promotion hit: the hit block trades places with the
  least-recent way of the next-closer bank;
* ``fill_front`` -- miss fill: the new block enters way 0, everything
  shifts down, and the LRU way's block is evicted.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple


@dataclass
class BlockState:
    """One resident cache block."""

    tag: int
    dirty: bool = False


@dataclass(frozen=True)
class AccessOutcome:
    """What the content model decided for one access.

    ``way``/``bank`` describe where the tag matched (pre-reordering).
    ``moved_boundaries`` counts inter-bank block transfers implied by the
    reordering -- the block movements the network must carry.
    ``victim`` is the evicted block on a fill (``None`` when the LRU way
    was empty), with its dirty bit deciding the write-back.
    """

    hit: bool
    way: int | None = None
    bank: int | None = None
    moved_boundaries: int = 0
    victim: BlockState | None = None
    #: Bank position the victim departs from (None = the LRU bank).
    victim_bank: int | None = None

    @property
    def writeback_required(self) -> bool:
        return self.victim is not None and self.victim.dirty


class _Layout(NamedTuple):
    """Reordering tables and hit outcomes of one ``bank_of_way`` layout."""

    #: Per way: the boundary moves of ``move_to_front(way)``.
    front_moves: tuple[int, ...]
    #: Ways whose block crosses a bank boundary when it shifts one way down.
    boundaries: tuple[int, ...]
    #: Per bank but the MRU bank: the way a Promotion hit in it moves to,
    #: the least-recent way of the next-closer bank.
    promote_to: dict[int, int]
    #: Per way: the outcome of an LRU/Fast-LRU hit there. Outcomes are
    #: frozen, so every hit at that way shares one instance.
    lru_hits: tuple[AccessOutcome, ...]
    #: Per way: the outcome of a Promotion hit there (two block moves
    #: unless the hit stays in the MRU bank).
    promotion_hits: tuple[AccessOutcome, ...]


@functools.lru_cache(maxsize=64)
def _layout_tables(bank_of_way: tuple[int, ...]) -> _Layout:
    boundaries = tuple(
        way for way in range(len(bank_of_way) - 1)
        if bank_of_way[way] != bank_of_way[way + 1]
    )
    front_moves = tuple(
        (bank_of_way[way] != bank_of_way[0])
        + sum(1 for boundary in boundaries if boundary < way)
        for way in range(len(bank_of_way))
    )
    # Ways ascend, so each bank's entry ends at its least-recent way.
    promote_to = {bank + 1: way for way, bank in enumerate(bank_of_way)}
    lru_hits = tuple(
        AccessOutcome(hit=True, way=way, bank=bank, moved_boundaries=moves)
        for way, (bank, moves) in enumerate(zip(bank_of_way, front_moves))
    )
    promotion_hits = tuple(
        AccessOutcome(
            hit=True, way=way, bank=bank,
            moved_boundaries=0 if bank == bank_of_way[0] else 2,
        )
        for way, bank in enumerate(bank_of_way)
    )
    return _Layout(front_moves, boundaries, promote_to, lru_hits, promotion_hits)


class BankSetState:
    """Mutable stack of ways of one bank set."""

    __slots__ = ("ways", "bank_of_way", "layout")

    def __init__(self, bank_of_way: list[int]) -> None:
        if not bank_of_way:
            raise ValueError("bank_of_way must not be empty")
        self.bank_of_way = bank_of_way
        self.ways: list[BlockState | None] = [None] * len(bank_of_way)
        #: The layout's reordering tables and shared hit outcomes.
        self.layout = _layout_tables(tuple(bank_of_way))

    @property
    def associativity(self) -> int:
        return len(self.ways)

    def find(self, tag: int) -> int | None:
        """Way index holding *tag*, or None."""
        for way, block in enumerate(self.ways):
            if block is not None and block.tag == tag:
                return way
        return None

    def resident_tags(self) -> list[int]:
        return [block.tag for block in self.ways if block is not None]

    def signature(self) -> tuple:
        """Hashable snapshot of the set's exact contents and ordering.

        ``None`` marks an empty way; occupied ways contribute ``(tag,
        dirty)``. Used by content digests and conservation checks.
        """
        return tuple(
            None if block is None else (block.tag, block.dirty)
            for block in self.ways
        )

    def promotion_target(self, way: int) -> int:
        """The way a Promotion hit at *way* moves its block to."""
        bank = self.bank_of_way[way]
        if bank == self.bank_of_way[0]:
            return 0
        return self.layout.promote_to[bank]

    # -- primitive reorderings -------------------------------------------

    def move_to_front(self, way: int) -> int:
        """LRU/Fast-LRU hit reordering; returns inter-bank moves implied.

        The hit block becomes way 0; ways ``0..way-1`` shift one position
        down the stack. A shift whose source and destination ways live in
        different banks is a network block transfer; in-bank reshuffles are
        free pointer updates.
        """
        ways = self.ways
        block = ways[way]
        if block is None:
            raise ValueError(f"way {way} is empty")
        del ways[way]
        ways.insert(0, block)
        return self.layout.front_moves[way]

    def promote(self, way: int) -> int:
        """Promotion hit reordering; returns inter-bank moves implied.

        Inside the MRU bank the block just becomes that bank's most recent
        way (free). Otherwise the hit block swaps with the least-recent way
        of the next-closer bank (two block transfers over one link).
        """
        ways = self.ways
        block = ways[way]
        if block is None:
            raise ValueError(f"way {way} is empty")
        bank = self.bank_of_way[way]
        if bank == self.bank_of_way[0]:
            # Local promotion inside the MRU bank: reorder ways 0..way.
            del ways[way]
            ways.insert(0, block)
            return 0
        target = self.layout.promote_to[bank]
        ways[way], ways[target] = ways[target], block
        return 2

    def fill_front(self, tag: int, dirty: bool = False) -> tuple[BlockState | None, int]:
        """Miss fill: insert at way 0, shift everything down, evict the LRU.

        Returns ``(victim, boundary_moves)``. Used by LRU, Fast-LRU, and
        Promotion alike (Promotion's recursive replacement, footnote 4).
        Every occupied way shifts, so each boundary under an occupied way
        is one move: all of them when the set is full (a block is always
        truthy).
        """
        ways = self.ways
        boundaries = self.layout.boundaries
        if all(ways):
            boundary_moves = len(boundaries)
        else:
            boundary_moves = sum(1 for way in boundaries if ways[way] is not None)
        victim = ways.pop()
        ways.insert(0, BlockState(tag=tag, dirty=dirty))
        return victim, boundary_moves

    def fill_replace_front(self, tag: int, dirty: bool = False) -> BlockState | None:
        """Zero-copy fill (footnote 4): the incoming block overwrites the
        MRU way outright; its previous occupant is evicted to memory."""
        victim = self.ways[0]
        self.ways[0] = BlockState(tag=tag, dirty=dirty)
        return victim

    def fill_demote_one(self, tag: int, dirty: bool = False) -> tuple[BlockState | None, int]:
        """One-copy fill (footnote 4): the incoming block takes the MRU
        way; the displaced block demotes one way, evicting *that* way's
        occupant. Returns (victim, boundary_moves)."""
        if len(self.ways) == 1:
            return self.fill_replace_front(tag, dirty), 0
        victim = self.ways[1]
        moves = 1 if self.bank_of_way[0] != self.bank_of_way[1] else 0
        self.ways[1] = self.ways[0]
        self.ways[0] = BlockState(tag=tag, dirty=dirty)
        return victim, moves

    def mark_dirty(self, way: int) -> None:
        block = self.ways[way]
        if block is None:
            raise ValueError(f"way {way} is empty")
        block.dirty = True


@dataclass
class BankSetStats:
    """Aggregated content statistics across a run."""

    hits: int = 0
    misses: int = 0
    hits_per_bank: dict[int, int] = field(default_factory=dict)
    writebacks: int = 0
    boundary_moves: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def record(self, outcome: AccessOutcome) -> None:
        if outcome.hit:
            self.hits += 1
            self.hits_per_bank[outcome.bank] = (
                self.hits_per_bank.get(outcome.bank, 0) + 1
            )
        else:
            self.misses += 1
            if outcome.writeback_required:
                self.writebacks += 1
        self.boundary_moves += outcome.moved_boundaries

    def mru_hit_fraction(self) -> float:
        """Fraction of hits landing in the MRU (closest) bank."""
        if not self.hits:
            return 0.0
        return self.hits_per_bank.get(0, 0) / self.hits

    def publish_metrics(self, registry) -> None:
        """Export content counters into a telemetry registry."""
        registry.counter("cache.bankset.hits").set(self.hits)
        registry.counter("cache.bankset.misses").set(self.misses)
        registry.counter("cache.bankset.writebacks").set(self.writebacks)
        registry.counter("cache.bankset.boundary_moves").set(
            self.boundary_moves
        )
        registry.counter("cache.bankset.hits_mru").set(
            self.hits_per_bank.get(0, 0)
        )
        # Replacement-policy view of the same run: every miss triggers a
        # fill, and a dirty victim becomes a write-back.
        registry.counter("cache.replacement.fills").set(self.misses)
        registry.counter("cache.replacement.dirty_evictions").set(
            self.writebacks
        )
