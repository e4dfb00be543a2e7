"""Explore a ``--metrics-out`` file: time series, heatmap, breakdown.

``repro report <metrics.json>`` renders the registry snapshot a sweep
wrote with ``--metrics-out`` (or the newest such file in a directory)
into three views:

- per-window time-series tables of every ``Series`` metric (sampled
  with ``--window N``), with rolling p50/p95/p99 for histogram series;
- a mesh congestion heatmap built from the per-link counters
  (``noc.link.busy_cycles.(r, c)->(r', c')`` and friends) -- ASCII art
  when the nodes are mesh coordinates, a top-links table always;
- a latency breakdown summarizing the ``cache.span.*`` leg histograms
  (injection queueing / serialization / hop traversal / bank / memory).

Everything here is a pure function of the snapshot dict, so the same
file renders identically anywhere.
"""

from __future__ import annotations

import ast
import json
import pathlib
from typing import Any

from repro.errors import TelemetryError
from repro.telemetry.registry import quantiles_from_counts

#: Per-link counter families that can seed the heatmap, in preference
#: order: occupancy first (transaction model), raw flit counts last
#: (flit cores).
HEATMAP_METRICS = (
    "noc.link.busy_cycles",
    "noc.link.grants",
    "noc.link.wait_cycles",
    "noc.link.flits",
)

#: Low-to-high intensity ramp for the ASCII heatmap.
_INTENSITY = " .:-=+*#%@"

#: Windows shown per series in the text view before eliding the middle.
_MAX_WINDOW_ROWS = 24


# -- loading -----------------------------------------------------------------


def load_metrics(path: str | pathlib.Path) -> dict[str, Any]:
    """Registry snapshot from a ``--metrics-out`` file or run directory.

    Accepts either the CLI's ``{"metrics": ..., "provenance": ...}``
    payload or a bare registry snapshot. For a directory, scans its
    ``*.json`` files (sorted by name) and uses the last one that parses
    to a snapshot.
    """
    target = pathlib.Path(path)
    if target.is_dir():
        found = None
        for candidate in sorted(target.glob("*.json")):
            try:
                found = _coerce_snapshot(
                    json.loads(candidate.read_text(encoding="utf-8"))
                )
            except (ValueError, TelemetryError):
                continue
        if found is None:
            raise TelemetryError(
                f"no metrics JSON found in directory {target}; expected a "
                "file written by --metrics-out"
            )
        return found
    return _coerce_snapshot(json.loads(target.read_text(encoding="utf-8")))


def _coerce_snapshot(data: Any) -> dict[str, Any]:
    if isinstance(data, dict) and isinstance(data.get("metrics"), dict):
        data = data["metrics"]
    if not isinstance(data, dict) or not all(
        isinstance(value, dict) and "type" in value for value in data.values()
    ):
        raise TelemetryError(
            "not a metrics snapshot: expected a --metrics-out payload or a "
            "registry snapshot dict"
        )
    return data


# -- extraction (pure snapshot -> JSON-able report) --------------------------


def _parse_node(text: str) -> Any:
    """``"(3, 4)"`` -> ``(3, 4)``; anything unparseable stays a string."""
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def extract_series(metrics: dict[str, Any]) -> dict[str, Any]:
    """Every ``Series`` snapshot, with quantiles for histogram series."""
    out: dict[str, Any] = {}
    for name in sorted(metrics):
        snap = metrics[name]
        if snap.get("type") != "series":
            continue
        entry: dict[str, Any] = {
            "window": snap["window"],
            "agg": snap["agg"],
        }
        if snap["agg"] == "hist":
            edges = snap["edges"]
            entry["windows"] = [
                {
                    "index": index,
                    "start": index * snap["window"],
                    "count": sum(counts),
                    **quantiles_from_counts(edges, counts),
                }
                for index, counts in snap["windows"]
            ]
        else:
            entry["windows"] = [
                {
                    "index": index,
                    "start": index * snap["window"],
                    "value": value,
                }
                for index, value in snap["windows"]
            ]
        out[name] = entry
    return out


def extract_heatmap(
    metrics: dict[str, Any], metric: str | None = None
) -> dict[str, Any] | None:
    """Per-link loads and, for int-pair meshes, a dense per-node grid.

    Node load is the sum over a node's *outgoing* links, the standard
    router-load proxy. Returns None when the snapshot has no per-link
    counters at all (e.g. a run without network instrumentation).
    """
    families = (metric,) if metric else HEATMAP_METRICS
    links: list[dict[str, Any]] = []
    chosen = None
    for family in families:
        prefix = f"{family}."
        for name in sorted(metrics):
            if not name.startswith(prefix):
                continue
            src_text, _, dst_text = name[len(prefix):].partition("->")
            links.append(
                {
                    "src": src_text,
                    "dst": dst_text,
                    "value": metrics[name]["value"],
                }
            )
        if links:
            chosen = family
            break
    if chosen is None:
        return None
    node_load: dict[str, int] = {}
    for link in links:
        node_load[link["src"]] = node_load.get(link["src"], 0) + link["value"]
    report: dict[str, Any] = {
        "metric": chosen,
        "links": sorted(
            links, key=lambda e: (-e["value"], e["src"], e["dst"])
        ),
        "node_load": {key: node_load[key] for key in sorted(node_load)},
    }
    grid = _mesh_grid(node_load)
    if grid is not None:
        report["grid"] = grid
    return report


def _mesh_grid(node_load: dict[str, int]) -> dict[str, Any] | None:
    """Dense (rows x cols) value grid when every node is an int pair."""
    coords: dict[tuple[int, int], int] = {}
    for text, value in node_load.items():
        node = _parse_node(text)
        if not (
            isinstance(node, tuple)
            and len(node) == 2
            and all(isinstance(part, int) for part in node)
        ):
            return None
        coords[node] = value
    if not coords:
        return None
    rows = max(node[0] for node in coords) + 1
    cols = max(node[1] for node in coords) + 1
    values = [
        [coords.get((row, col), 0) for col in range(cols)]
        for row in range(rows)
    ]
    return {"rows": rows, "cols": cols, "values": values}


def extract_breakdown(metrics: dict[str, Any]) -> dict[str, Any]:
    """Summary stats for every ``cache.span.*`` latency-leg histogram."""
    out: dict[str, Any] = {}
    for name in sorted(metrics):
        if not name.startswith("cache.span."):
            continue
        snap = metrics[name]
        count = snap["count"]
        out[name.removeprefix("cache.span.")] = {
            "count": count,
            "total": snap["total"],
            "mean": snap["total"] / count if count else 0.0,
            **quantiles_from_counts(snap["edges"], snap["counts"]),
        }
    return out


def explore(metrics: dict[str, Any]) -> dict[str, Any]:
    """The full structured report (the ``--format json`` payload)."""
    return {
        "series": extract_series(metrics),
        "heatmap": extract_heatmap(metrics),
        "breakdown": extract_breakdown(metrics),
    }


# -- text rendering ----------------------------------------------------------


def _render_series(series: dict[str, Any]) -> list[str]:
    if not series:
        return ["no windowed series recorded (rerun with --window N)"]
    lines: list[str] = []
    for name, entry in series.items():
        windows = entry["windows"]
        lines.append(
            f"{name}  (window={entry['window']} cycles, agg={entry['agg']}, "
            f"{len(windows)} windows)"
        )
        shown = windows
        elided = 0
        if len(windows) > _MAX_WINDOW_ROWS:
            half = _MAX_WINDOW_ROWS // 2
            shown = windows[:half] + windows[-half:]
            elided = len(windows) - len(shown)
        for i, row in enumerate(shown):
            if elided and i == len(shown) // 2:
                lines.append(f"    ... {elided} windows elided ...")
            if entry["agg"] == "hist":
                lines.append(
                    f"    @{row['start']:>8}  n={row['count']:<6} "
                    f"p50={row['p50']:<6g} p95={row['p95']:<6g} "
                    f"p99={row['p99']:g}"
                )
            else:
                lines.append(f"    @{row['start']:>8}  {row['value']}")
        lines.append("")
    return lines[:-1]


def _render_heatmap(heatmap: dict[str, Any] | None) -> list[str]:
    if heatmap is None:
        return ["no per-link counters in this snapshot"]
    lines = [f"per-node load from {heatmap['metric']} (outgoing-link sum)"]
    grid = heatmap.get("grid")
    if grid is not None:
        peak = max(max(row) for row in grid["values"]) or 1
        top = len(_INTENSITY) - 1
        lines.append(
            f"{grid['rows']}x{grid['cols']} mesh, peak node load {peak} "
            f"(scale '{_INTENSITY}')"
        )
        for row in grid["values"]:
            lines.append(
                "  " + "".join(_INTENSITY[value * top // peak] for value in row)
            )
    lines.append("hottest links:")
    for link in heatmap["links"][:10]:
        lines.append(f"  {link['src']}->{link['dst']}  {link['value']}")
    return lines


def _render_breakdown(breakdown: dict[str, Any]) -> list[str]:
    if not breakdown:
        return ["no cache.span.* leg histograms in this snapshot"]
    lines = [
        f"{'leg':<20} {'count':>8} {'mean':>8} {'p50':>6} {'p95':>6} {'p99':>6}"
    ]
    for leg, stats in sorted(
        breakdown.items(), key=lambda item: -item[1]["total"]
    ):
        lines.append(
            f"{leg:<20} {stats['count']:>8} {stats['mean']:>8.2f} "
            f"{stats['p50']:>6g} {stats['p95']:>6g} {stats['p99']:>6g}"
        )
    return lines


def render_text(report: dict[str, Any]) -> str:
    sections = (
        ("Windowed series", _render_series(report["series"])),
        ("Congestion heatmap", _render_heatmap(report["heatmap"])),
        ("Latency breakdown (cycles)", _render_breakdown(report["breakdown"])),
    )
    lines: list[str] = []
    for title, body in sections:
        lines += [title, "=" * len(title)]
        lines += body
        lines.append("")
    return "\n".join(lines[:-1])
