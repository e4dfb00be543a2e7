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

The reservations are one flat sorted list ``[s0, e0, s1, e1, ...]`` of
half-open intervals, so a grant at the idle tail is two appends and any
other placement is a binary search plus a short forward scan from the
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
        "busy",
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
        #: Reservations as one flat sorted list ``[s0, e0, s1, e1, ...]``:
        #: an even index holds a start, the next odd one its end. Never
        #: empty, so ``busy[-1]`` is always readable: an idle resource
        #: holds ``[0, 0]``, which every request at or after 0 finds
        #: behind the floor (DESIGN.md §8).
        self.busy: list[int] = [0, 0]

    def acquire(self, time: int, duration: int) -> int:
        """Reserve *duration* cycles at the earliest gap at/after *time*
        and count the grant.

        Returns the start of the granted interval.
        """
        start = self.place(time, duration)
        self.grants += 1
        self.busy_cycles += duration
        return start

    def place(self, time: int, duration: int) -> int:
        """Reserve *duration* cycles at the earliest gap at/after *time*
        without counting the grant; returns the start of the interval.

        A placement that cannot start at *time* counts its wait
        (``waits``, ``queued_cycles``). The grant and its busy cycles are
        the caller's to count: :meth:`acquire` counts them per call, and
        the geometry's inline grants count them once per leg.
        """
        if duration < 0:
            raise SimulationError(f"{self.name}: negative duration {duration}")
        start = time if time > 0 else 0
        if duration == 0:
            return start
        busy = self.busy
        floor = self.floor_clock.time
        if busy[-1] <= floor:
            # Every reservation ended behind the floor: start afresh.
            self.busy = [start, start + duration]
        else:
            if busy[1] <= floor:
                # An odd bisect index falls inside an interval, which
                # stays; every whole interval before it goes.
                del busy[: bisect_right(busy, floor) & ~1]
            if busy[-1] <= time:
                busy.append(time)
                busy.append(time + duration)
                return time
            i = bisect_right(busy, start)
            if i & 1:
                # *start* falls inside an interval: try from its end on.
                start = busy[i]
                i += 1
            n = len(busy)
            while i < n and busy[i] - start < duration:
                start = busy[i + 1]
                i += 2
            busy[i:i] = (start, start + duration)
        if start > time:
            self.queued_cycles += start - time
            self.waits += 1
        return start

    def reset(self) -> None:
        """Return the resource to its initial idle state, keeping its name."""
        self.busy = [0, 0]
        self.busy_cycles = 0
        self.grants = 0
        self.queued_cycles = 0
        self.waits = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Resource(name={self.name!r}, reservations={len(self.busy) // 2})"
