"""Differential tests: lazy-pruning Resource vs the eager-pruning original.

``_EagerResource`` is the earlier ``Resource.acquire``/``_prune`` verbatim:
it pruned every reservation behind the floor on every acquire and placed
each request by binary search in two parallel lists. The current resource
keeps one flat list, prunes lazily and grants idle-tail requests in O(1);
``CacheGeometry.reserve_segment`` inlines that fast path over a routed
segment, and the column walks (``multicast_column``, ``walk``) inline it
for every link hop and bank. All of them must grant the same intervals as
per-hop ``acquire`` calls for any request sequence, including negative
times, zero durations and requests below the floor. The inline paths
count their grants once per leg, so their counters must match the
reference's once the geometry settles them (``CacheGeometry.resources``).

Each property runs at tier-1 depth and, slow-marked, at ten times as many
examples (``pytest -m slow``).
"""

from __future__ import annotations

from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.designs import design_a
from repro.core.geometry import CacheGeometry, ColumnChain, Segment
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

    @property
    def busy(self) -> list[int]:
        """The reservations in ``Resource``'s flat layout."""
        return [bound for pair in zip(self._starts, self._ends) for bound in pair]

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
    busy = resource.busy
    return [(s, e) for s, e in zip(busy[::2], busy[1::2]) if e > floor]


def _waits(resource) -> tuple[int, int]:
    """The counters a placement keeps itself, before any settling."""
    return resource.queued_cycles, resource.waits


def _property(body, examples: int, **strategies):
    """*body* as a Hypothesis test over *strategies*, run for *examples*
    examples; each property below is one body run at two depths."""
    return settings(max_examples=examples, deadline=None)(
        given(**strategies)(body)
    )


#: A step requests (time, duration) through ``acquire`` or ``place``, or
#: advances the floor by a non-negative amount (so the clock is monotone).
_steps = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(("acquire", "place")),
            st.integers(-20, 300), st.integers(0, 25),
        ),
        st.tuples(st.just("advance"), st.integers(0, 40), st.just(0)),
    ),
    min_size=1,
    max_size=80,
)


def _check_acquire(steps):
    reference_clock, clock = FloorClock(), FloorClock()
    reference = _EagerResource(reference_clock)
    resource = Resource(floor_clock=clock)
    placed = [0, 0]  # busy cycles and grants ``place`` leaves uncounted
    for op, a, b in steps:
        if op == "advance":
            reference_clock.advance(reference_clock.time + a)
            clock.advance(clock.time + a)
            continue
        if op == "place":
            assert resource.place(a, b) == reference.acquire(a, b)
            placed[0] += b
            placed[1] += 1
        else:
            assert resource.acquire(a, b) == reference.acquire(a, b)
        busy, grants, queued, waits = _counters(resource)
        assert (busy + placed[0], grants + placed[1], queued, waits) == (
            _counters(reference)
        )
        assert _live(resource, clock.time) == _live(reference, clock.time)


test_acquire_matches_eager_reference = _property(
    _check_acquire, 300, steps=_steps
)
test_acquire_matches_eager_reference_deep = pytest.mark.slow(
    _property(_check_acquire, 3000, steps=_steps)
)


def _settle_and_compare(geometry, resources, references) -> None:
    """Settle the geometry twice (the second must change nothing) and
    require every counter of the reference."""
    geometry.resources()
    settled = [_counters(resource) for resource in resources]
    geometry.resources()
    assert [_counters(resource) for resource in resources] == settled
    assert settled == [_counters(reference) for reference in references]


_segment_steps = st.lists(
    st.tuples(
        st.integers(-10, 200),  # send time (or floor advance)
        st.integers(1, 5),  # flits
        st.lists(st.integers(0, 3), min_size=1, max_size=4),  # channels
        st.sampled_from(("send", "send", "advance", "settle")),
    ),
    min_size=1,
    max_size=40,
)
_costs = st.lists(st.integers(0, 4), min_size=4, max_size=4)


def _check_reserve_segment(steps, costs):
    geometry = design_a.build()
    reference_clock, clock = FloorClock(), geometry.floor_clock
    references = [_EagerResource(reference_clock) for _ in range(4)]
    channels = [Resource(floor_clock=clock) for _ in range(4)]
    for time, flits, path, op in steps:
        if op == "advance":
            reference_clock.advance(time)
            clock.advance(time)
            continue
        if op == "settle":
            _settle_and_compare(geometry, channels, references)
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
            assert _waits(channel) == _waits(reference)
            assert _live(channel, clock.time) == _live(reference, clock.time)
    _settle_and_compare(geometry, channels, references)


test_reserve_segment_matches_per_hop_reference = _property(
    _check_reserve_segment, 200, steps=_segment_steps, costs=_costs
)
test_reserve_segment_matches_per_hop_reference_deep = pytest.mark.slow(
    _property(_check_reserve_segment, 2000, steps=_segment_steps, costs=_costs)
)


class _PerSegmentGeometry(CacheGeometry):
    """Overrides ``reserve_segment`` without changing it, so the column
    walks reserve every link through it, one call per segment."""

    def reserve_segment(self, segment, time, flits, waypoints=None):
        return super().reserve_segment(segment, time, flits, waypoints)


def _geometry(per_segment: bool) -> CacheGeometry:
    geometry = design_a.build()
    if per_segment:
        geometry = _PerSegmentGeometry(geometry.topology, geometry.columns)
    assert geometry._per_segment is per_segment
    return geometry


#: A planted column: per bank (tag, tag+replace) latencies, and per link
#: p -> p+1 its hops as (channel index, cost). The entry into bank 0 is
#: one more hop list, or None when the core sits at bank 0's router.
_columns = st.integers(2, 6).flatmap(
    lambda banks: st.tuples(
        st.lists(
            st.tuples(st.integers(1, 6), st.integers(1, 9)),
            min_size=banks, max_size=banks,
        ),
        st.none() | st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            min_size=1, max_size=3,
        ),
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 3), st.integers(0, 3)),
                min_size=1, max_size=3,
            ),
            min_size=banks - 1, max_size=banks - 1,
        ),
    )
)

#: One step: advance the floor, plant a grant on a channel (0-3) or bank
#: (4-9), deliver a multicast request, walk down to a bank, send a link
#: (0-4) through ``reserve_segment`` directly, as Promotion's swap does,
#: or settle the per-leg counts.
_walk_steps = st.lists(
    st.one_of(
        st.tuples(st.just("advance"), st.integers(0, 40)),
        st.tuples(
            st.just("plant"), st.integers(0, 9), st.integers(-10, 250),
            st.integers(0, 25),
        ),
        st.tuples(st.just("multicast"), st.integers(-10, 250), st.booleans()),
        st.tuples(
            st.just("walk"), st.integers(-10, 250), st.integers(0, 5),
            st.sampled_from((1, 5)), st.integers(0, 6),
            st.none() | st.lists(st.integers(-10, 300), min_size=6, max_size=6),
        ),
        st.tuples(
            st.just("send"), st.integers(0, 4), st.integers(-10, 250),
            st.sampled_from((1, 5)),
        ),
        st.tuples(st.just("settle")),
    ),
    min_size=1,
    max_size=30,
)


def _check_column_walks(per_segment, column, steps):
    latencies, entry_hops, link_hops = column
    banks = len(latencies)
    geometry = _geometry(per_segment)
    reference_clock, clock = FloorClock(), geometry.floor_clock
    channels = [Resource(floor_clock=clock) for _ in range(4)]
    bank_resources = [Resource(floor_clock=clock) for _ in range(banks)]
    references = [_EagerResource(reference_clock) for _ in range(4 + banks)]
    resources = channels + bank_resources

    def segment(hops):
        return Segment(
            "src", "dst",
            tuple((channels[index], cost, index) for index, cost in hops),
        )

    # Plant the column as column 0's tables, built with the constructors
    # the geometry uses; every row and link is resolved, so the walks
    # create nothing.
    links = [segment(hops) for hops in link_hops]
    geometry.bank_rows[0] = [
        (resource, tag, tag_replace)
        for resource, (tag, tag_replace) in zip(bank_resources, latencies)
    ]
    geometry.links[0] = links
    geometry._chains[(0, geometry.core_node)] = ColumnChain(
        None if entry_hops is None else segment(entry_hops), tuple(links)
    )

    def cross(hops, head, flits):
        for index, cost in hops:
            head = references[index].acquire(head, flits) + cost
        return head

    def bank(position, head, latency):
        return references[4 + position].acquire(head, latency) + latency

    for step in steps:
        queue0 = geometry.traversal_queue_cycles
        if step[0] == "advance":
            reference_clock.advance(reference_clock.time + step[1])
            clock.advance(clock.time + step[1])
            continue
        if step[0] == "settle":
            _settle_and_compare(geometry, resources, references)
            continue
        if step[0] == "plant":
            _, index, time, duration = step
            resource = resources[index % (4 + banks)]
            reference = references[index % (4 + banks)]
            assert resource.acquire(time, duration) == reference.acquire(
                time, duration
            )
        elif step[0] == "send":
            _, index, time, flits = step
            hops = link_hops[index % (banks - 1)]
            assert geometry.reserve_segment(
                links[index % (banks - 1)], time, flits
            ) == cross(hops, time, flits) + (flits - 1)
        elif step[0] == "multicast":
            _, time, evict = step
            head = time if entry_hops is None else cross(entry_hops, time, 1)
            arrivals, done = [head], [
                bank(0, head, latencies[0][1 if evict else 0])
            ]
            for position, hops in enumerate(link_hops, start=1):
                head = cross(hops, head, 1)
                arrivals.append(head)
                done.append(bank(position, head, latencies[position][0]))
            blocked0 = geometry.multicast_blocked_cycles
            assert geometry.multicast_column(0, time, evict=evict) == (
                arrivals, done,
            )
            costs = sum(
                cost for hops in [entry_hops or [], *link_hops]
                for _, cost in hops
            )
            queued = head - time - costs
            assert geometry.multicast_blocked_cycles - blocked0 == queued
            assert geometry.traversal_queue_cycles - queue0 == queued
        else:
            _, time, last, flits, replace_until, gates = step
            last %= banks
            current, bank_cycles, travel, costs = time, 0, 0, 0
            for position in range(1, last + 1):
                hops = link_hops[position - 1]
                head = cross(hops, current, flits)
                travel += head + (flits - 1) - current
                costs += sum(cost for _, cost in hops)
                if gates is not None and head < gates[position]:
                    head = gates[position]
                tag, tag_replace = latencies[position]
                latency = tag_replace if position < replace_until else tag
                current = bank(position, head, latency)
                bank_cycles += latency
            assert geometry.walk(
                0, last, time, flits, replace_until, gates
            ) == (current, bank_cycles)
            assert geometry.traversal_queue_cycles - queue0 == (
                travel - costs - last * (flits - 1)
            )
        for resource, reference in zip(resources, references):
            assert _waits(resource) == _waits(reference)
            assert _live(resource, clock.time) == _live(reference, clock.time)
    _settle_and_compare(geometry, resources, references)


_paths = pytest.mark.parametrize("per_segment", [False, True])
test_column_walks_match_per_hop_reference = _paths(
    _property(_check_column_walks, 150, column=_columns, steps=_walk_steps)
)
test_column_walks_match_per_hop_reference_deep = pytest.mark.slow(_paths(
    _property(_check_column_walks, 1500, column=_columns, steps=_walk_steps)
))


#: Legs on column 3 of design A's own tables: a multicast (time, evict),
#: a walk (time, last bank, flits, replace cut-off), a link sent directly
#: (link, time, flits), or a settle.
_legs = st.lists(
    st.one_of(
        st.tuples(st.just("multicast"), st.integers(0, 200), st.booleans()),
        st.tuples(
            st.just("walk"), st.integers(0, 200), st.integers(0, 15),
            st.sampled_from((1, 5)), st.integers(0, 16),
        ),
        st.tuples(
            st.just("send"), st.integers(0, 14), st.integers(0, 200),
            st.sampled_from((1, 5)),
        ),
        st.tuples(st.just("settle")),
    ),
    min_size=1,
    max_size=12,
)


@pytest.mark.parametrize("per_segment", [False, True])
@given(legs=_legs)
@settings(max_examples=60, deadline=None)
def test_reset_contention_drops_uncharged_counts(per_segment, legs):
    geometry = _geometry(per_segment)
    for leg in legs:
        if leg[0] == "multicast":
            geometry.multicast_column(3, leg[1], evict=leg[2])
        elif leg[0] == "walk":
            _, time, last, flits, replace_until = leg
            geometry.walk(3, last, time, flits, replace_until)
        elif leg[0] == "send":
            _, position, time, flits = leg
            geometry.reserve_segment(geometry.bank_link(3, position), time, flits)
        else:
            geometry.resources()
    geometry.reset_contention()
    channels, banks = geometry.resources()
    for resource in [*channels.values(), *banks.values()]:
        assert _counters(resource) == (0, 0, 0, 0)
        assert resource.busy == [0, 0]


@pytest.mark.parametrize("leg", ["acquire", "send", "multicast", "walk"])
def test_tail_grant_keeps_the_interval_the_floor_falls_inside(leg):
    # A tail grant trims the intervals that ended behind the floor; the
    # one the floor falls inside (an odd prune index) must stay, on every
    # inline copy of the grant.
    geometry = design_a.build()
    link = geometry.bank_link(3, 0)
    [(channel, _, _)] = link.hops
    resources = [channel, geometry.bank_row(3, 0)[0], geometry.bank_row(3, 1)[0]]
    for resource in resources:
        resource.acquire(0, 5)
        resource.acquire(10, 10)
    geometry.floor_clock.advance(15)
    if leg == "acquire":
        for resource in resources:
            assert resource.acquire(20, 1) == 20
    elif leg == "send":
        assert geometry.reserve_segment(link, 20, 1) == 20 + link.cost
    elif leg == "multicast":
        geometry.multicast_column(3, 20)
    else:
        geometry.walk(3, 1, 20, 1, 0)
    for resource in resources:
        assert len(resource.busy) % 2 == 0
        assert _live(resource, 15)[0] == (10, 20)
