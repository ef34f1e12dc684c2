"""Terminal charts: dependency-free bar charts and sparklines.

The benchmarks regenerate the paper's figures as data; these helpers
make the shapes visible directly in a terminal — horizontal bars for
figure-style comparisons, stacked bars for latency breakdowns, and
sparklines for scraped time series.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..sim.sums import float_sum

__all__ = ["bar_chart", "stacked_bar_chart", "sparkline"]

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"
_BAR = "█"
_STACK_GLYPHS = "█▓▒░▫▪·"


def bar_chart(
    values: Mapping[str, float],
    width: int = 48,
    unit: str = "",
    title: str = "",
) -> str:
    """Horizontal bar chart of label -> value."""
    if not values:
        raise ValueError("no values to chart")
    if width < 4:
        raise ValueError("width must be >= 4")
    peak = max(values.values())
    if peak <= 0:
        peak = 1.0
    label_width = max(len(label) for label in values)
    lines = []
    if title:
        lines.append(title)
    for label, value in values.items():
        bar = _BAR * max(1 if value > 0 else 0, round(width * value / peak))
        lines.append(f"{label.ljust(label_width)}  {bar} {value:,.4g}{unit}")
    return "\n".join(lines)


def stacked_bar_chart(
    rows: Mapping[str, Mapping[str, float]],
    width: int = 48,
    title: str = "",
) -> str:
    """Stacked horizontal bars (e.g. latency breakdowns per config).

    All rows share one scale; a legend maps glyphs to segment names.
    """
    if not rows:
        raise ValueError("no rows to chart")
    segment_names: list = []
    for segments in rows.values():
        for name in segments:
            if name not in segment_names:
                segment_names.append(name)
    if len(segment_names) > len(_STACK_GLYPHS):
        raise ValueError(f"too many segments (max {len(_STACK_GLYPHS)})")
    glyphs: Dict[str, str] = {
        name: _STACK_GLYPHS[i] for i, name in enumerate(segment_names)
    }
    peak = max(float_sum(segments.values()) for segments in rows.values())
    if peak <= 0:
        peak = 1.0
    label_width = max(len(label) for label in rows)

    lines = []
    if title:
        lines.append(title)
    legend = "  ".join(f"{glyph}={name}" for name, glyph in glyphs.items())
    lines.append(legend)
    for label, segments in rows.items():
        bar = ""
        for name in segment_names:
            value = segments.get(name, 0.0)
            cells = round(width * value / peak)
            bar += glyphs[name] * cells
        total = float_sum(segments.values())
        lines.append(f"{label.ljust(label_width)}  {bar} {total:,.4g}")
    return "\n".join(lines)


def sparkline(
    values: Sequence[float],
    bounds: Optional[Tuple[float, float]] = None,
) -> str:
    """One-line unicode sparkline of a series."""
    if not values:
        raise ValueError("no values for sparkline")
    lo, hi = bounds if bounds is not None else (min(values), max(values))
    if hi <= lo:
        return _SPARK_LEVELS[0] * len(values)
    span = hi - lo
    out = []
    for value in values:
        index = int((value - lo) / span * (len(_SPARK_LEVELS) - 1))
        out.append(_SPARK_LEVELS[max(0, min(len(_SPARK_LEVELS) - 1, index))])
    return "".join(out)
