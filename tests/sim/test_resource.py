"""Unit tests for interval resources."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.designs import design_a
from repro.core.geometry import Segment
from repro.errors import SimulationError
from repro.sim import FloorClock, Resource


class TestResource:
    def test_grants_immediately_when_free(self):
        resource = Resource()
        assert resource.acquire(10, 5) == 10

    def test_back_to_back_requests_queue(self):
        resource = Resource()
        assert resource.acquire(0, 10) == 0
        assert resource.acquire(0, 10) == 10

    def test_earlier_request_fits_in_gap_before_future_reservation(self):
        resource = Resource()
        # A chain reserves far in the future...
        assert resource.acquire(100, 10) == 100
        # ...but an earlier tag-match slips in front of it.
        assert resource.acquire(5, 10) == 5

    def test_gap_too_small_is_skipped(self):
        resource = Resource()
        resource.acquire(0, 10)     # [0, 10)
        resource.acquire(12, 10)    # [12, 22)
        # A 5-cycle request at t=8 does not fit in [10, 12); starts at 22.
        assert resource.acquire(8, 5) == 22

    def test_exact_fit_gap(self):
        resource = Resource()
        resource.acquire(0, 10)     # [0, 10)
        resource.acquire(15, 10)    # [15, 25)
        assert resource.acquire(0, 5) == 10  # exactly [10, 15)

    def test_zero_duration_is_free(self):
        resource = Resource()
        resource.acquire(0, 10)
        assert resource.acquire(3, 0) == 3

    def test_negative_duration_rejected(self):
        with pytest.raises(SimulationError):
            Resource().acquire(0, -1)
        with pytest.raises(SimulationError):
            Resource().place(0, -1)

    def test_statistics(self):
        resource = Resource()
        resource.acquire(0, 10)
        resource.acquire(0, 5)
        assert resource.grants == 2
        assert resource.busy_cycles == 15
        assert resource.queued_cycles == 10

    def test_reset(self):
        resource = Resource()
        resource.acquire(0, 10)
        resource.reset()
        assert resource.acquire(0, 1) == 0
        assert resource.busy_cycles == 1

    def test_floor_pruning_keeps_results_correct(self):
        clock = FloorClock()
        resource = Resource(floor_clock=clock)
        for t in range(0, 100, 10):
            resource.acquire(t, 5)
        clock.advance(1000)
        # After pruning, new far-future requests still behave.
        assert resource.acquire(1000, 5) == 1000
        assert resource.acquire(1000, 5) == 1005

    def test_floor_pruning_bounds_interval_list(self):
        clock = FloorClock()
        resource = Resource(floor_clock=clock)
        for t in range(0, 10_000, 10):
            clock.advance(t)
            resource.acquire(t, 5)
        assert len(resource.busy) // 2 < 50  # intervals kept

    @pytest.mark.parametrize("via_segment", [False, True])
    def test_tail_appends_prune_a_list_that_never_empties(self, via_segment):
        # Every request lands at the idle tail, ahead of reservations that
        # still end past the floor, so the list never empties; partial
        # pruning must still keep it short, on both grant paths.
        geometry = design_a.build()
        clock = geometry.floor_clock
        resource = Resource(floor_clock=clock)
        segment = Segment(0, 1, ((resource, 0, 1),))
        for t in range(0, 10_000, 10):
            clock.advance(t)
            if via_segment:
                # The tail of a 5-flit packet trails its head by 4 cycles.
                assert geometry.reserve_segment(segment, t + 20, 5) == t + 24
            else:
                assert resource.acquire(t + 20, 5) == t + 20
            assert 1 <= len(resource.busy) // 2 <= 3  # intervals kept

    @given(
        requests=st.lists(
            st.tuples(st.integers(0, 200), st.integers(1, 20)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_granted_intervals_never_overlap(self, requests):
        resource = Resource()
        granted = []
        for time, duration in requests:
            start = resource.acquire(time, duration)
            assert start >= time
            granted.append((start, start + duration))
        granted.sort()
        for (_, end_a), (start_b, _) in zip(granted, granted[1:]):
            assert end_a <= start_b


class TestFloorClock:
    def test_monotone(self):
        clock = FloorClock()
        clock.advance(10)
        clock.advance(5)
        assert clock.time == 10

    def test_reset(self):
        clock = FloorClock()
        clock.advance(10)
        clock.reset()
        assert clock.time == 0
