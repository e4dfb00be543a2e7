"""Interval resources: the transaction-level model's contention clock.

The transaction-level cache simulator times every access with the
interval resources of :mod:`repro.sim.resource`: each bank, channel and
the memory channel is a :class:`Resource`, and each halo spike queue an
:class:`OccupancyTracker`. The flit-level networks step their own cycle
loops.
"""

from repro.sim.resource import FloorClock, OccupancyTracker, Resource

__all__ = [
    "Resource",
    "OccupancyTracker",
    "FloorClock",
]
