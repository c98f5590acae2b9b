"""Whole-program static analysis for the simulation's contracts.

The repo's one static gate. This package builds one
:class:`~.frontend.Project` — every module parsed once, indexed once —
and runs five passes over it:

==============================  ==============================================
pass                            what it proves
==============================  ==============================================
``hygiene``                     no wall-clock read, global RNG or bare
                                assert
``yield-discipline``            no generator is created and silently dropped
                                (engine primitives and project coroutines
                                called as plain statements, or bound and
                                never driven)
``cleanup-mutation``            no ``finally``/``except GeneratorExit`` in a
                                process coroutine touches machine state
                                outside the quiesce-guard API (the
                                ``_quiesced`` bug class)
``trace-conformance``           trace emitters and invariant checkers agree
                                on the ``EVENT_KINDS`` vocabulary
``nondet-taint``                no order-unstable value (set iteration,
                                ``id``/``hash``, ``os.environ``) reaches a
                                trace event, RNG seed, or report output
==============================  ==============================================

Any finding fails. Waive a single line with ``# verify:
allow[rule-name]``; no waiver works under ``repro/core/``.

Entry points: ``python -m repro.verify analyze`` (text or ``--format
json``), :func:`analyze` programmatically, :func:`check_tree` as the
memoized gate the experiment runner's ``--verify`` uses.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Iterable, List, Optional

from ..._lazy import lazy_surface

if TYPE_CHECKING:
    from .findings import AnalysisReport, Finding
    from .frontend import Project

#: name -> the submodule defining it, imported on first use.
_LAZY = {
    "AnalysisReport": "findings",
    "Finding": "findings",
    "Module": "frontend",
    "Project": "frontend",
    "ALL_PASSES": "passes",
    "build_project": "frontend",
    "default_target": "frontend",
}

__all__ = [*_LAZY, "run_passes", "analyze", "check_tree"]
__getattr__, __dir__ = lazy_surface(__name__, _LAZY)


def run_passes(project: Project) -> List[Finding]:
    """Run every pass over *project*; findings in pass order."""
    from . import ALL_PASSES

    findings: List[Finding] = []
    for _name, pass_fn in ALL_PASSES:
        findings.extend(pass_fn(project))
    return findings


def analyze(paths: Optional[Iterable[Path]] = None) -> AnalysisReport:
    """Analyze *paths* (default: the whole ``src/repro`` tree)."""
    from . import AnalysisReport, build_project

    return AnalysisReport(findings=run_passes(build_project(paths)))


_TREE_REPORT: Optional[AnalysisReport] = None


def check_tree(force: bool = False) -> AnalysisReport:
    """Whole-tree report, memoized per process — the runner's
    ``--verify`` gate calls this once however many experiment cells
    run."""
    global _TREE_REPORT
    if _TREE_REPORT is None or force:
        _TREE_REPORT = analyze()
    return _TREE_REPORT
