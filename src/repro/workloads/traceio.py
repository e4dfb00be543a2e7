"""Trace file I/O.

A compact, diffable text format so traces can be archived, shared, or
hand-written for experiments:

    # repro-trace v1 name=<name>
    <address-hex> <r|w> <gap-instructions>
    ...

Round-trips exactly through :func:`save_trace` / :func:`load_trace`.
"""

from __future__ import annotations

import io
import pathlib

from repro.errors import TraceError
from repro.workloads.trace import Trace

_MAGIC = "# repro-trace v1"


def save_trace(trace: Trace, path: str | pathlib.Path) -> None:
    """Write *trace* to *path* in the v1 text format."""
    path = pathlib.Path(path)
    with path.open("w", encoding="utf-8") as handle:
        _write(trace, handle)


def dumps_trace(trace: Trace) -> str:
    """The v1 text form of *trace*."""
    buffer = io.StringIO()
    _write(trace, buffer)
    return buffer.getvalue()


def _write(trace: Trace, handle) -> None:
    handle.write(f"{_MAGIC} name={trace.name}\n")
    handle.writelines(
        f"{address:08x} {'w' if write else 'r'} {gap}\n"
        for address, write, gap in zip(trace.addresses, trace.writes, trace.gaps)
    )


def load_trace(path: str | pathlib.Path) -> Trace:
    """Read a v1 trace file."""
    path = pathlib.Path(path)
    with path.open("r", encoding="utf-8") as handle:
        return _read(handle, default_name=path.stem)


def loads_trace(text: str, default_name: str = "trace") -> Trace:
    """Parse the v1 text form."""
    return _read(io.StringIO(text), default_name=default_name)


def _read(handle, default_name: str) -> Trace:
    header = handle.readline().rstrip("\n")
    if not header.startswith(_MAGIC):
        raise TraceError(f"not a repro-trace file (header {header!r})")
    name = default_name
    if "name=" in header:
        name = header.split("name=", 1)[1].strip() or default_name
    addresses: list[int] = []
    writes: list[bool] = []
    gaps: list[int] = []
    # File line of each row, for the errors the column checks raise.
    line_numbers: list[int] = []
    for line_number, line in enumerate(handle, start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3 or parts[1] not in ("r", "w"):
            raise TraceError(f"malformed trace line {line_number}: {line!r}")
        try:
            addresses.append(int(parts[0], 16))
            gaps.append(int(parts[2]))
        except ValueError as error:
            raise TraceError(
                f"malformed trace line {line_number}: {line!r}"
            ) from error
        writes.append(parts[1] == "w")
        line_numbers.append(line_number)
    if not addresses:
        raise TraceError("trace file contains no accesses")
    try:
        return Trace(addresses, writes, gaps, name=name)
    except TraceError as error:
        raise TraceError(
            f"trace line {line_numbers[error.row]}: {error}", row=error.row
        ) from error
