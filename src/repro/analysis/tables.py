"""Plain-text table rendering for experiment output.

Produces aligned ASCII tables in the spirit of the paper's Tables 1-3, so
runner output reads directly against the paper.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

__all__ = ["render_table", "fmt_seconds", "fmt_percent"]


def fmt_seconds(value: float) -> str:
    """Seconds with sub-second precision where it matters."""
    if value != value:  # NaN
        return "-"
    if abs(value) >= 100:
        return f"{value:.0f}"
    if abs(value) >= 10:
        return f"{value:.1f}"
    return f"{value:.2f}"


def fmt_percent(value: float) -> str:
    if value != value:
        return "-"
    return f"{value:.2f} %"


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: Optional[str] = None,
    fmt: Optional[Callable[[Any], str]] = None,
) -> str:
    """Align *rows* under *headers*; numbers go through *fmt* (or str)."""

    def cell(value: Any) -> str:
        if isinstance(value, str):
            return value
        if value is None:
            return "-"
        if fmt is not None and isinstance(value, (int, float)):
            return fmt(value)
        return str(value)

    text_rows: List[List[str]] = [[cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, item in enumerate(row):
            widths[i] = max(widths[i], len(item))

    def line(items: Sequence[str]) -> str:
        out = []
        for i, item in enumerate(items):
            out.append(item.ljust(widths[i]) if i == 0 else item.rjust(widths[i]))
        return "  ".join(out).rstrip()

    parts: List[str] = []
    if title:
        parts.append(title)
        parts.append("=" * len(title))
    parts.append(line(list(headers)))
    parts.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        parts.append(line(row))
    return "\n".join(parts)
