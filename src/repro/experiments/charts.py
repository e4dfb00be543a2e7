"""ASCII chart rendering for the paper's figures.

The paper's evaluation figures are bar charts; these helpers render the
same series as text so the benchmark harness can show the *shape* (who
wins, by how much) directly in a terminal, with no plotting dependency.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.errors import ConfigurationError

#: Fill characters for stacked-bar segments, in series order.
STACK_GLYPHS = "#=:.+*"


def horizontal_bars(
    values: Mapping[str, float],
    width: int = 50,
    unit: str = "",
    baseline: float | None = None,
) -> str:
    """One horizontal bar per labeled value, scaled to the maximum.

    *baseline* draws a ``|`` marker at that value (e.g. normalized 1.0).
    """
    if not values:
        raise ConfigurationError("nothing to chart")
    maximum = max(values.values())
    if maximum <= 0:
        raise ConfigurationError("chart needs a positive maximum")
    label_width = max(len(label) for label in values)
    lines = []
    marker = None
    if baseline is not None and baseline <= maximum:
        marker = round(baseline / maximum * width)
    for label, value in values.items():
        filled = round(value / maximum * width)
        bar = list("#" * filled + " " * (width - filled))
        if marker is not None and 0 <= marker < width and bar[marker] == " ":
            bar[marker] = "|"
        lines.append(
            f"{label.rjust(label_width)} {''.join(bar)} {value:.2f}{unit}"
        )
    return "\n".join(lines)


def stacked_bars(
    rows: Mapping[str, Mapping[str, float]],
    width: int = 50,
    normalize: bool = True,
) -> str:
    """Stacked horizontal bars (e.g. Fig. 7's bank/network/memory split).

    Each row maps series name -> value; with *normalize* every bar spans
    the full width (percent stacking, like the paper's Figure 7).
    """
    if not rows:
        raise ConfigurationError("nothing to chart")
    series = list(next(iter(rows.values())))
    label_width = max(len(label) for label in rows)
    global_max = max(sum(parts.values()) for parts in rows.values())
    if global_max <= 0:
        raise ConfigurationError("chart needs positive totals")
    lines = []
    for label, parts in rows.items():
        if list(parts) != series:
            raise ConfigurationError("all rows must share the same series")
        total = sum(parts.values())
        scale = width / (total if normalize and total > 0 else global_max)
        bar = ""
        for glyph, value in zip(STACK_GLYPHS, parts.values()):
            bar += glyph * round(value * scale)
        bar = bar[:width].ljust(width if normalize else 0)
        lines.append(f"{label.rjust(label_width)} {bar}")
    legend = "  ".join(
        f"{glyph}={name}" for glyph, name in zip(STACK_GLYPHS, series)
    )
    lines.append(f"{' ' * label_width} [{legend}]")
    return "\n".join(lines)


def sparkline(values: Iterable[float]) -> str:
    """Compact one-line trend (e.g. a load-latency curve)."""
    values = list(values)
    if not values:
        raise ConfigurationError("nothing to chart")
    glyphs = " .:-=+*#%@"
    low, high = min(values), max(values)
    span = high - low or 1.0
    return "".join(
        glyphs[min(len(glyphs) - 1, int((v - low) / span * (len(glyphs) - 1)))]
        for v in values
    )
