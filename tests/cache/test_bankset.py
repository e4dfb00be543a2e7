"""Unit and property tests for bank-set content reordering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.bank import NON_UNIFORM_COLUMN, bank_descriptors_for_column, bank_of_way
from repro.cache.bankset import BankSetState, BankSetStats, BlockState

UNIFORM = [0, 1, 2, 3]  # 4 one-way banks
NON_UNIFORM = bank_of_way(bank_descriptors_for_column(list(NON_UNIFORM_COLUMN)))


def _filled(mapping):
    state = BankSetState(list(mapping))
    for tag in range(len(mapping)):
        state.fill_front(tag)
    # After filling 0..n-1, way 0 holds the newest tag (n-1).
    return state


class TestFind:
    def test_find_resident(self):
        state = _filled(UNIFORM)
        assert state.find(3) == 0
        assert state.find(0) == 3

    def test_find_missing(self):
        state = _filled(UNIFORM)
        assert state.find(99) is None

    def test_empty_set(self):
        state = BankSetState(UNIFORM)
        assert state.find(0) is None
        assert state.resident_tags() == []


class TestMoveToFront:
    def test_contents_after_hit(self):
        state = _filled(UNIFORM)  # ways: [3, 2, 1, 0]
        state.move_to_front(2)    # hit tag 1
        assert [b.tag for b in state.ways] == [1, 3, 2, 0]

    def test_boundary_moves_uniform(self):
        state = _filled(UNIFORM)
        # Way 2 -> way 0 crosses banks; ways 0,1 each shift across banks.
        assert state.move_to_front(2) == 3

    def test_hit_at_front_is_free(self):
        state = _filled(UNIFORM)
        assert state.move_to_front(0) == 0
        assert [b.tag for b in state.ways] == [3, 2, 1, 0]

    def test_boundary_moves_skip_intra_bank_shuffles(self):
        state = _filled(NON_UNIFORM)
        # Hit in way 5 (inside the 4-way bank 3): the hit block crosses to
        # bank 0 and each shifted way that crosses a bank boundary counts.
        moves = state.move_to_front(5)
        # Shifts crossing boundaries: ways 0->1, 1->2, 3->4 (2->3 and 4->5
        # stay inside their banks), plus the hit block's own move: 4 total.
        assert moves == 4

    def test_empty_way_rejected(self):
        state = BankSetState(UNIFORM)
        with pytest.raises(ValueError):
            state.move_to_front(1)


class TestPromote:
    def test_swap_with_previous_bank(self):
        state = _filled(UNIFORM)  # [3, 2, 1, 0]
        moves = state.promote(2)
        assert moves == 2
        assert [b.tag for b in state.ways] == [3, 1, 2, 0]

    def test_promotion_in_mru_bank_is_local(self):
        state = _filled(NON_UNIFORM)
        # Way 0 already in bank 0: nothing to move.
        assert state.promote(0) == 0

    def test_multiway_promotes_to_local_lru_slot(self):
        state = _filled(NON_UNIFORM)
        tags_before = [b.tag for b in state.ways]
        # Hit in bank 3 (ways 4..7): swap with bank 2's least-recent way (3).
        moves = state.promote(5)
        assert moves == 2
        tags_after = [b.tag for b in state.ways]
        assert tags_after[3] == tags_before[5]
        assert tags_after[5] == tags_before[3]

    def test_empty_way_rejected(self):
        state = BankSetState(UNIFORM)
        with pytest.raises(ValueError):
            state.promote(2)


class TestFillFront:
    def test_fill_into_empty(self):
        state = BankSetState(UNIFORM)
        victim, moves = state.fill_front(7)
        assert victim is None
        assert moves == 0
        assert state.ways[0].tag == 7

    def test_eviction_from_lru_way(self):
        state = _filled(UNIFORM)  # [3, 2, 1, 0]
        victim, _ = state.fill_front(9)
        assert victim.tag == 0
        assert [b.tag for b in state.ways] == [9, 3, 2, 1]

    def test_dirty_bit_on_write_fill(self):
        state = BankSetState(UNIFORM)
        state.fill_front(7, dirty=True)
        assert state.ways[0].dirty

    def test_boundary_moves_counted(self):
        state = _filled(UNIFORM)
        _, moves = state.fill_front(9)
        assert moves == 3  # three blocks each cross one bank boundary


class TestDirty:
    def test_mark_dirty(self):
        state = _filled(UNIFORM)
        state.mark_dirty(1)
        assert state.ways[1].dirty

    def test_mark_dirty_empty_way_rejected(self):
        with pytest.raises(ValueError):
            BankSetState(UNIFORM).mark_dirty(0)

    def test_dirty_travels_with_block(self):
        state = _filled(UNIFORM)
        state.mark_dirty(2)
        tag = state.ways[2].tag
        state.move_to_front(2)
        assert state.ways[0].tag == tag and state.ways[0].dirty


class TestLRUStackProperty:
    @given(
        tags=st.lists(st.integers(0, 9), min_size=1, max_size=60),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_lru_stack(self, tags):
        """move_to_front + fill_front must behave exactly like a textbook
        LRU stack of the same associativity."""
        state = BankSetState(list(range(8)))
        reference: list[int] = []
        for tag in tags:
            way = state.find(tag)
            if way is None:
                state.fill_front(tag)
                reference.insert(0, tag)
                if len(reference) > 8:
                    reference.pop()
            else:
                assert reference[way] == tag
                state.move_to_front(way)
                reference.remove(tag)
                reference.insert(0, tag)
            assert state.resident_tags() == reference


class TestStats:
    def test_hit_rate_and_mru_fraction(self):
        from repro.cache.bankset import AccessOutcome

        stats = BankSetStats()
        stats.record(AccessOutcome(hit=True, way=0, bank=0))
        stats.record(AccessOutcome(hit=True, way=3, bank=3))
        stats.record(AccessOutcome(hit=False, victim=BlockState(1, dirty=True)))
        assert stats.accesses == 3
        assert stats.hit_rate == pytest.approx(2 / 3)
        assert stats.mru_hit_fraction() == pytest.approx(0.5)
        assert stats.writebacks == 1


class _LoopBankSet:
    """The reorderings as they were written before the list-operation
    versions: one way shifted at a time, boundaries counted as they go."""

    def __init__(self, bank_of_way, ways):
        self.bank_of_way = bank_of_way
        self.ways = ways

    def move_to_front(self, way):
        block = self.ways[way]
        if block is None:
            raise ValueError(f"way {way} is empty")
        boundary_moves = 0
        if self.bank_of_way[way] != self.bank_of_way[0]:
            boundary_moves += 1
        for i in range(way - 1, -1, -1):
            if self.bank_of_way[i] != self.bank_of_way[i + 1]:
                boundary_moves += 1
            self.ways[i + 1] = self.ways[i]
        self.ways[0] = block
        return boundary_moves

    def promote(self, way):
        block = self.ways[way]
        if block is None:
            raise ValueError(f"way {way} is empty")
        bank = self.bank_of_way[way]
        if bank == self.bank_of_way[0]:
            for i in range(way - 1, -1, -1):
                self.ways[i + 1] = self.ways[i]
            self.ways[0] = block
            return 0
        target = max(i for i, b in enumerate(self.bank_of_way) if b == bank - 1)
        self.ways[way], self.ways[target] = self.ways[target], self.ways[way]
        return 2

    def fill_front(self, tag, dirty=False):
        victim = self.ways[-1]
        boundary_moves = 0
        for i in range(len(self.ways) - 2, -1, -1):
            if self.ways[i] is not None and self.bank_of_way[i] != self.bank_of_way[i + 1]:
                boundary_moves += 1
            self.ways[i + 1] = self.ways[i]
        self.ways[0] = BlockState(tag=tag, dirty=dirty)
        return victim, boundary_moves

    def fill_replace_front(self, tag, dirty=False):
        victim = self.ways[0]
        self.ways[0] = BlockState(tag=tag, dirty=dirty)
        return victim

    def fill_demote_one(self, tag, dirty=False):
        if len(self.ways) == 1:
            return self.fill_replace_front(tag, dirty), 0
        victim = self.ways[1]
        moves = 1 if self.bank_of_way[0] != self.bank_of_way[1] else 0
        self.ways[1] = self.ways[0]
        self.ways[0] = BlockState(tag=tag, dirty=dirty)
        return victim, moves


@st.composite
def _planted_sets(draw):
    """A bank_of_way layout of 1-16 ways over 1-5 banks (ascending, every
    bank holding at least one way) and a planted occupancy, empty ways
    anywhere included."""
    ways = draw(st.integers(1, 16))
    banks = draw(st.integers(1, min(5, ways)))
    cuts = draw(
        st.sets(st.integers(1, ways - 1), min_size=banks - 1, max_size=banks - 1)
        if banks > 1 else st.just(set())
    )
    layout = [sum(1 for cut in cuts if cut <= way) for way in range(ways)]
    planted = draw(st.lists(
        st.none() | st.tuples(st.integers(0, 9), st.booleans()),
        min_size=ways, max_size=ways,
    ))
    return layout, planted


_OPS = ("move_to_front", "promote", "fill_front", "fill_demote_one",
        "fill_replace_front")


def _blocks(planted):
    return [None if p is None else BlockState(*p) for p in planted]


def _shape(result):
    """Returned moves and victims, with victims by value."""
    if isinstance(result, tuple):
        return tuple(_shape(part) for part in result)
    if isinstance(result, BlockState):
        return (result.tag, result.dirty)
    return result


class TestReorderingsMatchLoopReference:
    @given(
        planted=_planted_sets(),
        steps=st.lists(
            st.tuples(
                st.sampled_from(_OPS), st.integers(0, 15),
                st.integers(0, 9), st.booleans(),
            ),
            max_size=40,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_every_step_matches(self, planted, steps):
        layout, occupancy = planted
        state = BankSetState(list(layout))
        state.ways = _blocks(occupancy)
        reference = _LoopBankSet(list(layout), _blocks(occupancy))
        for op, way, tag, dirty in steps:
            way %= len(layout)
            if op in ("move_to_front", "promote"):
                if reference.ways[way] is None:
                    with pytest.raises(ValueError):
                        getattr(state, op)(way)
                    with pytest.raises(ValueError):
                        getattr(reference, op)(way)
                    continue
                block = state.ways[way]
                assert getattr(state, op)(way) == getattr(reference, op)(way)
                if op == "promote":
                    # The way the policy marks dirty on a write hit.
                    assert state.ways[state.promotion_target(way)] is block
            else:
                assert _shape(getattr(state, op)(tag, dirty)) == _shape(
                    getattr(reference, op)(tag, dirty)
                )
            assert state.signature() == tuple(
                None if block is None else (block.tag, block.dirty)
                for block in reference.ways
            )
