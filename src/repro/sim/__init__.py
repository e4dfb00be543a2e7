"""Interval resources and a deterministic discrete-event kernel.

The transaction-level cache simulator times every access with the
interval resources of :mod:`repro.sim.resource`: each bank, channel and
the memory channel is a :class:`Resource`, and each halo spike queue an
:class:`OccupancyTracker`. Neither simulator runs on the event kernel of
:mod:`repro.sim.kernel`: the flit-level networks step their own cycle
loops, and the transaction model grants intervals directly. Only the
fault-recovery layer (:mod:`repro.faults.recovery`) uses its
``DeadlineQueue``, for per-message retry timers.
"""

from repro.sim.kernel import Event, EventQueue, Simulator
from repro.sim.resource import FloorClock, OccupancyTracker, Resource

__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
    "Resource",
    "OccupancyTracker",
    "FloorClock",
]
