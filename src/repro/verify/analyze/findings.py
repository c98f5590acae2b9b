"""Findings and analysis reports.

A :class:`Finding` is one analyzer diagnostic; an :class:`AnalysisReport`
holds every finding of one run, and it is clean only when it holds none.
The one waiver is a ``# verify: allow[rule]`` pragma on the flagged line
(:meth:`~.frontend.Module.allowed`), which no module under
``repro/core/`` can use.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

from .frontend import default_target

__all__ = ["Finding", "AnalysisReport"]


def _relpath(path: str) -> str:
    """Paths relative to the repo root when under it, POSIX separators."""
    p = Path(path)
    root = default_target().parents[1]
    if p.is_absolute() and p.is_relative_to(root):
        return p.relative_to(root).as_posix()
    return p.as_posix()


@dataclass(frozen=True)
class Finding:
    """One analyzer diagnostic."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"

    def to_json(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": _relpath(self.path),
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass
class AnalysisReport:
    """Every finding from one run; any finding fails the gate."""

    findings: List[Finding]

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_json(self) -> Dict[str, object]:
        return {
            "version": 2,
            "findings": [f.to_json() for f in self.findings],
        }

    def render_text(self) -> List[str]:
        """Human-readable report lines: one per finding, then a count."""
        lines = [str(f) for f in sorted(self.findings, key=_sort_key)]
        lines.append(f"[verify:analyze] {len(self.findings)} finding(s)")
        return lines


def _sort_key(f: Finding) -> Tuple[str, int, int, str]:
    return (f.path, f.line, f.col, f.rule)
