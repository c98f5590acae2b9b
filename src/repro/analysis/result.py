"""Shared experiment-result container: tables, shapes, summary.

Every experiment used to carry its own result dataclass with bespoke
``render()`` / ``shape_holds()`` / ``summary()`` methods (and the runner
grew ``_T2View``/``_T3View`` adapters on top).  :class:`TableResult`
replaces all of that: an experiment's ``reduce`` step distils its raw
:class:`~repro.chklib.runtime.RunReport`s into one or more named
:class:`TableView`s (rendered tables), a dict of boolean shape checks
(the paper's qualitative claims) and optional summary lines.  Experiment-
specific structured data (per-row measurements, comparisons, raw reports)
rides along in ``data`` for tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from .tables import render_table

__all__ = ["TableView", "TableResult"]


@dataclass
class TableView:
    """One rendered table: headers, rows and an optional number format."""

    name: str
    title: str
    headers: Sequence[str]
    rows: Sequence[Sequence[Any]]
    fmt: Optional[Callable[[Any], str]] = None
    footer: str = ""

    def render(self) -> str:
        text = render_table(
            list(self.headers), list(self.rows), title=self.title, fmt=self.fmt
        )
        if self.footer:
            text += "\n" + self.footer
        return text


@dataclass
class TableResult:
    """An experiment's reduced result: views + shape checks + summary."""

    name: str
    views: List[TableView]
    shapes: Dict[str, bool] = field(default_factory=dict)
    summary_lines: List[str] = field(default_factory=list)
    #: experiment-specific structured payload (rows, reports, comparisons).
    data: Dict[str, Any] = field(default_factory=dict)

    def view(self, name: str) -> TableView:
        for v in self.views:
            if v.name == name:
                return v
        raise KeyError(
            f"{self.name!r} has no view {name!r} "
            f"(have {[v.name for v in self.views]})"
        )

    def render(self, view: Optional[str] = None) -> str:
        """The named view, or every view joined with blank lines."""
        if view is not None:
            return self.view(view).render()
        return "\n\n".join(v.render() for v in self.views)

    def summary(self) -> str:
        return "\n".join(self.summary_lines)

    def shape_holds(self) -> Dict[str, bool]:
        return dict(self.shapes)
