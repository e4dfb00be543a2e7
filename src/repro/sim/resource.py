"""Occupancy-based resources for the transaction-level simulator.

The transaction-level cache simulator does not simulate individual flits;
instead every contended component (a cache bank, a network channel, the
memory channel) is a :class:`Resource` that hands out time intervals. A
request wanting the resource at time ``t`` for ``d`` cycles is granted
the earliest gap of length ``d`` starting at or after ``t`` -- so a
tag-match arriving *before* a far-future replacement-chain reservation
correctly slips in front of it, exactly as the hardware would serve it
first.

Reservations already granted are never displaced (no preemption), which
keeps the model causal and deterministic.

The busy list is kept as two parallel sorted lists (interval starts and
ends), so placement is a binary search plus a short forward scan from the
first candidate gap instead of a linear walk over every reservation.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.errors import SimulationError


@dataclass
class FloorClock:
    """Shared monotone lower bound on all future request times.

    One clock is shared by every resource of a geometry so the driver can
    advance it once per access instead of touching hundreds of resources.
    """

    time: int = 0

    def advance(self, time: int) -> None:
        if time > self.time:
            self.time = time

    def reset(self) -> None:
        self.time = 0


class Resource:
    """A single-server resource granting earliest-fit time intervals.

    Reservations behind the floor clock are pruned lazily and idle-tail
    requests append in O(1); an unshared resource gets a private clock.
    """

    __slots__ = (
        "name",
        "busy_cycles",
        "grants",
        "queued_cycles",
        "waits",
        "floor_clock",
        "_starts",
        "_ends",
    )

    def __init__(
        self, name: str = "resource", floor_clock: FloorClock | None = None
    ) -> None:
        self.name = name
        self.busy_cycles = 0
        self.grants = 0
        self.queued_cycles = 0
        #: Number of grants that could not start at their requested time --
        #: the transaction-level analogue of a failed same-cycle allocation.
        self.waits = 0
        self.floor_clock = floor_clock if floor_clock is not None else FloorClock()
        self._starts: list[int] = []
        self._ends: list[int] = []

    def acquire(self, time: int, duration: int) -> int:
        """Reserve *duration* cycles at the earliest gap at/after *time*.

        Returns the start of the granted interval.
        """
        if duration < 0:
            raise SimulationError(f"{self.name}: negative duration {duration}")
        start = time if time > 0 else 0
        if duration == 0:
            self.grants += 1
            return start
        starts = self._starts
        ends = self._ends
        floor = self.floor_clock.time
        if ends and ends[0] <= floor:
            if ends[-1] <= floor:
                starts, ends = self._starts, self._ends = [], []
            else:
                self._prune()
        if time >= 0 and (not ends or ends[-1] <= time):
            starts.append(time)
            ends.append(time + duration)
            self.busy_cycles += duration
            self.grants += 1
            return time
        # All reservations starting at or before `start` are behind us; only
        # the latest of them can still be busy (intervals are disjoint).
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
        """Drop the reservations that ended at or before the floor."""
        keep_from = bisect_right(self._ends, self.floor_clock.time)
        del self._starts[:keep_from]
        del self._ends[:keep_from]

    def reset(self) -> None:
        """Return the resource to its initial idle state, keeping its name."""
        self._starts.clear()
        self._ends.clear()
        self.busy_cycles = 0
        self.grants = 0
        self.queued_cycles = 0
        self.waits = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Resource(name={self.name!r}, reservations={len(self._starts)})"
