"""How fast the host runs Python right now, to correct timings for it.

The benchmark runs on shared hosts whose other tenants slow every vCPU
down by up to about 1.9x, in steps that last seconds to minutes. A run is
too short to wait such a step out, so each timing is divided by the
host's slowdown measured around it: the time a fixed pure-Python loop
takes then, over the time it takes on the reference host when quiet. The
loop touches no code of the program, so a change to the program moves
the timings and never the correction.
"""

from __future__ import annotations

import time

#: Seconds :func:`calibration_s` takes on the reference host (README.md,
#: "Baseline") when no other tenant slows it. Every corrected timing is
#: in seconds of that host, so this value must never change.
CALIBRATION_S = 0.022

_LOOP = 200_000


def calibration_s() -> float:
    """Seconds a fixed loop of interpreter work takes on this host now."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(_LOOP):
        total += (i * 7) % 13
        table[i & 1023] = total
    return time.perf_counter() - start


def slowdown(before: float, after: float) -> float:
    """The host's slowdown over an interval, from the calibrations taken
    just before and just after it."""
    return (before + after) / (2 * CALIBRATION_S)
