"""Interval resources and the fault-recovery deadline queue.

The transaction-level cache simulator times every access with the
interval resources of :mod:`repro.sim.resource`: each bank, channel and
the memory channel is a :class:`Resource`, and each halo spike queue an
:class:`OccupancyTracker`. The flit-level networks step their own cycle
loops. The fault-recovery layer (:mod:`repro.faults.recovery`) keeps its
per-message retry timers in the ``DeadlineQueue`` of
:mod:`repro.sim.kernel`.
"""

from repro.sim.resource import FloorClock, OccupancyTracker, Resource

__all__ = [
    "Resource",
    "OccupancyTracker",
    "FloorClock",
]
