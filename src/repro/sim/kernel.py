"""Keyed deadline queue: the fault-recovery layer's retry timers.

Fully deterministic: keys armed for the same deadline pop in the order
they were armed (FIFO within a timestamp), which keeps runs reproducible
regardless of key content.
"""

from __future__ import annotations

import heapq
import itertools


class DeadlineQueue:
    """A keyed min-heap of deadlines with lazy deletion.

    Re-arming a key replaces its previous deadline; stale heap entries are
    skipped on :meth:`peek`/:meth:`pop_due`. Same-deadline keys pop in
    arm order (FIFO within a timestamp). Used by the resilience layer for
    per-message retry timers.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, object]] = []
        self._counter = itertools.count()
        self._deadline: dict[object, int] = {}

    def __len__(self) -> int:
        """Number of armed keys (not heap entries)."""
        return len(self._deadline)

    def arm(self, key: object, time: int) -> None:
        """Set *key*'s deadline to absolute *time*, replacing any prior one."""
        self._deadline[key] = time
        heapq.heappush(self._heap, (time, next(self._counter), key))

    def disarm(self, key: object) -> None:
        """Remove *key*'s deadline. Idempotent."""
        self._deadline.pop(key, None)

    def _prune(self) -> None:
        heap = self._heap
        while heap:
            time, _, key = heap[0]
            if self._deadline.get(key) == time:
                return
            heapq.heappop(heap)

    def peek(self) -> int | None:
        """Earliest armed deadline, or ``None`` if nothing is armed."""
        self._prune()
        return self._heap[0][0] if self._heap else None

    def pop_due(self, now: int) -> list[object]:
        """Remove and return every key whose deadline is ``<= now``,
        ordered by (deadline, arm order)."""
        due: list[object] = []
        while True:
            self._prune()
            if not self._heap or self._heap[0][0] > now:
                return due
            _, _, key = heapq.heappop(self._heap)
            del self._deadline[key]
            due.append(key)
