"""Dependency-free ASCII charts for experiment results.

The original figures are line plots; with no plotting stack available
offline, these renderers draw the same series as terminal charts so the
examples and CLI can show *shapes*, not just tables.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

_MARKERS = "*o+x@%"


def _scale(value: float, lo: float, hi: float, width: int) -> int:
    if hi <= lo:
        return 0
    return int(round((value - lo) / (hi - lo) * (width - 1)))


def line_chart(
    series: Dict[str, Sequence[Tuple[float, float]]],
    width: int = 60,
    height: int = 16,
    y_label: str = "",
    x_label: str = "",
) -> str:
    """Render one or more (x, y) series as an ASCII scatter/line chart.

    Each series gets a marker from ``* o + x @ %`` in insertion order;
    the legend maps markers back to names.  Axes are auto-scaled to the
    union of all points.
    """
    if not series or all(not pts for pts in series.values()):
        return "(no data)"
    xs = [x for pts in series.values() for x, __ in pts]
    ys = [y for pts in series.values() for __, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    grid = [[" "] * width for __ in range(height)]
    for idx, (name, points) in enumerate(series.items()):
        marker = _MARKERS[idx % len(_MARKERS)]
        for x, y in points:
            col = _scale(x, x_lo, x_hi, width)
            row = height - 1 - _scale(y, y_lo, y_hi, height)
            grid[row][col] = marker

    lines: List[str] = []
    if y_label:
        lines.append(y_label)
    lines.append(f"{y_hi:8.2f} ┤" + "".join(grid[0]))
    for row in grid[1:-1]:
        lines.append(" " * 8 + " │" + "".join(row))
    lines.append(f"{y_lo:8.2f} ┤" + "".join(grid[-1]))
    lines.append(" " * 9 + "└" + "─" * width)
    lines.append(
        " " * 10 + f"{x_lo:<10.6g}" + " " * max(0, width - 20) + f"{x_hi:>10.6g}"
    )
    if x_label:
        lines.append(" " * 10 + x_label)
    legend = "   ".join(
        f"{_MARKERS[i % len(_MARKERS)]} {name}" for i, name in enumerate(series)
    )
    lines.append(" " * 10 + legend)
    return "\n".join(lines)


def ratio_series_from_rows(rows, x_attr: str) -> Dict[str, List[Tuple[float, float]]]:
    """Convert fig4a/fig4c-style row lists into chart series
    (SPRITE vs eSearch precision ratios over *x_attr*)."""
    return {
        "SPRITE": [
            (float(getattr(r, x_attr)), r.sprite.precision_ratio) for r in rows
        ],
        "eSearch": [
            (float(getattr(r, x_attr)), r.esearch.precision_ratio) for r in rows
        ],
    }
