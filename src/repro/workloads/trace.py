"""Trace containers: the unit of exchange between workloads and the cache.

A trace is an ordered sequence of L2 accesses. Each access carries the
32-bit address, whether it is a write, and how many instructions retired
since the previous access (which paces the issue model).

A :class:`Trace` stores them as three columns of plain Python values --
``addresses`` (int), ``writes`` (bool) and ``gaps`` (int) -- checked once
when the trace is built. The replay loop reads the columns directly;
:class:`TraceAccess` views exist only for callers that iterate over or
index a trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from repro.errors import TraceError

#: Addresses are 32-bit.
_ADDRESS_LIMIT = 1 << 32


@dataclass(frozen=True, slots=True)
class TraceAccess:
    """One L2 access: a row of a :class:`Trace`."""

    address: int
    is_write: bool
    gap_instructions: int


def _check_column(
    column: Sequence[object],
    valid: Callable[[object], bool],
    clean: bool,
    problem: str,
) -> None:
    """Raise :class:`TraceError` naming the first row *valid* rejects.

    *clean* is a whole-column fast check; the per-row scan runs only when
    it fails.
    """
    if clean:
        return
    for row, value in enumerate(column):
        if not valid(value):
            raise TraceError(f"trace row {row}: {problem.format(value)}", row=row)


class Trace:
    """An immutable, column-stored list of accesses with summary helpers."""

    __slots__ = ("addresses", "writes", "gaps", "name")

    def __init__(
        self,
        addresses: Iterable[int],
        writes: Iterable[bool],
        gaps: Iterable[int],
        name: str = "trace",
    ) -> None:
        self.addresses: tuple[int, ...] = tuple(addresses)
        self.writes: tuple[bool, ...] = tuple(writes)
        self.gaps: tuple[int, ...] = tuple(gaps)
        self.name = name
        self._check()

    def _check(self) -> None:
        addresses, writes, gaps = self.addresses, self.writes, self.gaps
        lengths = (len(addresses), len(writes), len(gaps))
        if len(set(lengths)) > 1:
            row = min(lengths)
            raise TraceError(
                f"trace row {row}: columns differ in length ({lengths[0]} "
                f"addresses, {lengths[1]} write flags, {lengths[2]} gaps)",
                row=row,
            )
        if not addresses:
            return
        _check_column(
            addresses,
            lambda a: type(a) is int and 0 <= a < _ADDRESS_LIMIT,
            set(map(type, addresses)) == {int}
            and min(addresses) >= 0
            and max(addresses) < _ADDRESS_LIMIT,
            "address {!r} is not a 32-bit int",
        )
        _check_column(
            writes,
            lambda w: type(w) is bool,
            set(map(type, writes)) == {bool},
            "write flag {!r} is not a bool",
        )
        _check_column(
            gaps,
            lambda g: type(g) is int and g >= 0,
            set(map(type, gaps)) == {int} and min(gaps) >= 0,
            "gap {!r} is not a non-negative int",
        )

    def __len__(self) -> int:
        return len(self.addresses)

    def __iter__(self) -> Iterator[TraceAccess]:
        return map(TraceAccess, self.addresses, self.writes, self.gaps)

    def __getitem__(self, i: int) -> TraceAccess:
        return TraceAccess(self.addresses[i], self.writes[i], self.gaps[i])

    @property
    def total_instructions(self) -> int:
        return sum(self.gaps)

    @property
    def write_count(self) -> int:
        return self.writes.count(True)

    @property
    def read_count(self) -> int:
        return len(self) - self.write_count

    def distinct_blocks(self, offset_bits: int = 6) -> int:
        return len({address >> offset_bits for address in self.addresses})
