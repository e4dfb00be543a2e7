"""Analytic core/issue model substituting for sim-alpha.

The paper drives its cache simulator with L2 access chunks produced by a
validated Alpha 21264 simulator and reports IPC. We model the core
analytically with a *blocking-read* retirement clock:

* instructions retire at the benchmark's perfect-L2 IPC while the L2 is
  not in the way;
* every L2 **read** is an L1 miss whose consumer stalls the pipeline:
  retirement cannot progress past the access until its data returns
  (minus ``hide_cycles`` the out-of-order window can overlap);
* **writes** are fire-and-forget (store buffer): they occupy cache and
  network resources but do not stall retirement.

``IPC = instructions / final retirement-clock value``

This collapses to the perfect IPC when L2 latency is zero and degrades
proportionally to (read rate x read latency) otherwise -- the regime the
paper's Figures 8/9 IPC deltas live in. Normalized-IPC comparisons are
insensitive to modest ``hide_cycles`` choices.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass
class IssueModel:
    """Tracks the retirement clock and L2 access issue times.

    :meth:`~repro.core.system.NetworkedCacheSystem.replay` applies
    :meth:`issue_time` and :meth:`complete` inline, on locals it writes
    back to these fields; ``tests/core/test_replay_kernel.py`` checks the
    two against each other; change them together.
    """

    perfect_ipc: float
    #: Cycles of L2 latency the out-of-order window hides per read.
    hide_cycles: int = 0
    instructions: int = 0
    #: The retirement clock, in cycles.
    clock: float = 0.0
    #: The latest data-return time seen.
    last_event: int = 0

    def __post_init__(self) -> None:
        if self.perfect_ipc <= 0:
            raise ConfigurationError("perfect_ipc must be positive")
        if self.hide_cycles < 0:
            raise ConfigurationError("hide_cycles must be non-negative")

    def issue_time(self, gap_instructions: int) -> int:
        """Cycle at which the next L2 access issues.

        *gap_instructions* is how many instructions retire between the
        previous access and this one.
        """
        if gap_instructions < 0:
            raise ConfigurationError("gap_instructions must be non-negative")
        self.instructions += gap_instructions
        self.clock += gap_instructions / self.perfect_ipc
        return int(self.clock)

    def complete(self, data_at_core: int, is_write: bool = False) -> None:
        """Record the data-return time of the access just issued.

        Reads block the retirement clock until their data returns (minus
        the hidden overlap); writes only record activity.
        """
        self.last_event = max(self.last_event, data_at_core)
        if is_write:
            return
        resume = data_at_core - self.hide_cycles
        if resume > self.clock:
            self.clock = float(resume)

    def finish(self, tail_instructions: int = 0) -> tuple[int, float]:
        """Close the run: returns ``(total_cycles, ipc)``.

        *tail_instructions* are instructions after the last L2 access.
        """
        if tail_instructions:
            self.instructions += tail_instructions
            self.clock += tail_instructions / self.perfect_ipc
        total = int(self.clock)
        if total <= 0:
            return 0, self.perfect_ipc
        return total, self.instructions / total

    def reset(self) -> None:
        self.instructions = 0
        self.clock = 0.0
        self.last_event = 0
