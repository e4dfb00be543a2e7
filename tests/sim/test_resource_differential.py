"""Differential tests: lazy-pruning Resource vs the eager-pruning original.

``_EagerResource`` is the earlier ``Resource.acquire``/``_prune`` verbatim:
it pruned every reservation behind the floor on every acquire and placed
each request by binary search. The current resource prunes lazily and
grants idle-tail requests in O(1); ``CacheGeometry.reserve_segment``
inlines that fast path over a routed segment. All three must grant the
same intervals and keep the same counters for any request sequence,
including negative times, zero durations and requests below the floor.
"""

from __future__ import annotations

from bisect import bisect_right

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.designs import design_a
from repro.core.geometry import Segment
from repro.errors import SimulationError
from repro.sim import FloorClock, Resource


class _EagerResource:
    """Reference placement with eager floor pruning (the original code)."""

    def __init__(self, floor_clock: FloorClock) -> None:
        self.busy_cycles = 0
        self.grants = 0
        self.queued_cycles = 0
        self.waits = 0
        self.floor_clock = floor_clock
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._floor = 0

    def acquire(self, time: int, duration: int) -> int:
        if duration < 0:
            raise SimulationError(f"negative duration {duration}")
        start = time if time > 0 else 0
        if duration == 0:
            self.grants += 1
            return start
        self._prune()
        starts = self._starts
        ends = self._ends
        i = bisect_right(starts, start)
        if i and ends[i - 1] > start:
            start = ends[i - 1]
        n = len(starts)
        while i < n and starts[i] - start < duration:
            start = ends[i]
            i += 1
        starts.insert(i, start)
        ends.insert(i, start + duration)
        if start > time:
            self.queued_cycles += start - time
            self.waits += 1
        self.busy_cycles += duration
        self.grants += 1
        return start

    def _prune(self) -> None:
        floor = self._floor
        clock = self.floor_clock
        if clock is not None and clock.time > floor:
            floor = self._floor = clock.time
        ends = self._ends
        if not ends or floor <= 0:
            return
        keep_from = bisect_right(ends, floor)
        if keep_from:
            del self._starts[:keep_from]
            del ends[:keep_from]


def _counters(resource) -> tuple[int, int, int, int]:
    return (
        resource.busy_cycles,
        resource.grants,
        resource.queued_cycles,
        resource.waits,
    )


def _live(resource, floor: int) -> list[tuple[int, int]]:
    """Reservations that can still affect a placement at/after *floor*."""
    return [
        (s, e) for s, e in zip(resource._starts, resource._ends) if e > floor
    ]


#: A step either requests (time, duration) or advances the floor by a
#: non-negative amount (so the clock is monotone).
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("acquire"), st.integers(-20, 300), st.integers(0, 25)),
        st.tuples(st.just("advance"), st.integers(0, 40), st.just(0)),
    ),
    min_size=1,
    max_size=80,
)


@given(steps=_steps)
@settings(max_examples=300, deadline=None)
def test_acquire_matches_eager_reference(steps):
    reference_clock, clock = FloorClock(), FloorClock()
    reference = _EagerResource(reference_clock)
    resource = Resource(floor_clock=clock)
    for op, a, b in steps:
        if op == "advance":
            reference_clock.advance(reference_clock.time + a)
            clock.advance(clock.time + a)
            continue
        assert resource.acquire(a, b) == reference.acquire(a, b)
        assert _counters(resource) == _counters(reference)
        assert _live(resource, clock.time) == _live(reference, clock.time)


@given(
    steps=st.lists(
        st.tuples(
            st.integers(-10, 200),  # send time (or floor advance)
            st.integers(1, 5),  # flits
            st.lists(st.integers(0, 3), min_size=1, max_size=4),  # channels
            st.booleans(),  # advance the floor instead of sending
        ),
        min_size=1,
        max_size=40,
    ),
    costs=st.lists(st.integers(0, 4), min_size=4, max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_reserve_segment_matches_per_hop_reference(steps, costs):
    geometry = design_a.build()
    reference_clock, clock = FloorClock(), geometry.floor_clock
    references = [_EagerResource(reference_clock) for _ in range(4)]
    channels = [Resource(floor_clock=clock) for _ in range(4)]
    for time, flits, path, advance in steps:
        if advance:
            reference_clock.advance(time)
            clock.advance(time)
            continue
        heads = [time]
        for index in path:
            heads.append(references[index].acquire(heads[-1], flits) + costs[index])
        segment = Segment(
            "src", "dst",
            tuple((channels[index], costs[index], index) for index in path),
        )
        waypoints: list[int] = []
        tail = geometry.reserve_segment(segment, time, flits, waypoints)
        assert tail == heads[-1] + (flits - 1)
        # Head arrivals at every node but dst, as the per-hop walk saw them.
        assert waypoints == heads[1:-1]
        for channel, reference in zip(channels, references):
            assert _counters(channel) == _counters(reference)
            assert _live(channel, clock.time) == _live(reference, clock.time)
