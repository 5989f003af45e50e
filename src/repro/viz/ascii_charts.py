"""Dependency-free ASCII charts for experiment output.

The paper's Figs. 3, 7 and 8 are bar and line charts; these helpers render
their reproduced series as bars and sparklines directly in the terminal, so
benchmark output can be eyeballed against the paper without a plotting
stack.
"""

from __future__ import annotations

from collections.abc import Sequence

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"
_BAR_CHAR = "█"


def _check_series(values: Sequence[float]) -> list[float]:
    out = [float(v) for v in values]
    if not out:
        raise ValueError("series must be non-empty")
    return out


def sparkline(values: Sequence[float]) -> str:
    """One-line sparkline, e.g. ``▁▃▆█▆▃``."""
    vals = _check_series(values)
    lo, hi = min(vals), max(vals)
    if hi == lo:
        return _SPARK_LEVELS[0] * len(vals)
    span = hi - lo
    chars = []
    for v in vals:
        idx = int((v - lo) / span * (len(_SPARK_LEVELS) - 1))
        chars.append(_SPARK_LEVELS[idx])
    return "".join(chars)


def bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 40,
    title: str | None = None,
    unit: str = "",
) -> str:
    """Horizontal bar chart with aligned labels and value annotations."""
    vals = _check_series(values)
    if len(labels) != len(vals):
        raise ValueError("labels and values must align")
    if width < 1:
        raise ValueError("width must be >= 1")
    peak = max(max(vals), 0.0)
    label_width = max(len(str(label)) for label in labels)
    lines = [title] if title else []
    for label, value in zip(labels, vals):
        if value < 0:
            raise ValueError("bar_chart requires non-negative values")
        filled = 0 if peak == 0 else int(round(value / peak * width))
        lines.append(f"{str(label).rjust(label_width)} | {_BAR_CHAR * filled} {value:g}{unit}")
    return "\n".join(lines)
