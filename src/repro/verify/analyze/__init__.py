"""Whole-program static analysis for the simulation's contracts.

The fourth verification layer. Where the hygiene lint polices single
expressions, this package builds one :class:`~.frontend.Project` — every
module parsed once, indexed once — and runs multi-module passes over it:

==============================  ==============================================
pass                            what it proves
==============================  ==============================================
``hygiene``                     the legacy lint rules (wall clock, global
                                RNG, bare asserts, unyielded primitives)
``yield-discipline``            no generator is created and silently dropped
                                (dataflow: bound-but-never-driven, plain
                                calls of project coroutines)
``cleanup-mutation``            no ``finally``/``except GeneratorExit`` in a
                                process coroutine touches machine state
                                outside the quiesce-guard API (the PR 5
                                ``_quiesced`` bug class)
``capture-completeness``        every attribute of runtime/scheme/policy/
                                transport/storage classes appears in a
                                capture manifest, so halt/resume stays
                                bitwise-complete
``trace-conformance``           trace emitters and invariant checkers agree
                                on the ``EVENT_KINDS`` vocabulary
``nondet-taint``                no order-unstable value (set iteration,
                                ``id``/``hash``, ``os.environ``) reaches a
                                trace event, RNG seed, or report output
==============================  ==============================================

Findings are gated against the committed ``ANALYZE_BASELINE.json`` at the
repo root — new findings fail, and so do stale suppressions, so the
baseline tracks reality in both directions. Waive a single line with
``# verify: allow[rule-name]``.

Entry points: ``python -m repro.verify analyze`` (text or ``--format
json``), :func:`analyze` programmatically, :func:`check_tree` as the
memoized gate the experiment runner's ``--verify`` uses.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Iterable, List, Optional, Union

from ..._lazy import lazy_surface

if TYPE_CHECKING:
    from .findings import AnalysisReport, Baseline, Finding
    from .frontend import Project

#: name -> the submodule defining it, imported on first use.
_LAZY = {
    "AnalysisReport": "findings",
    "Baseline": "findings",
    "Finding": "findings",
    "Module": "frontend",
    "Project": "frontend",
    "ALL_PASSES": "passes",
    "build_project": "frontend",
    "default_target": "frontend",
}

__all__ = [*_LAZY, "default_baseline_path", "run_passes", "analyze", "check_tree"]
__getattr__, __dir__ = lazy_surface(__name__, _LAZY)


def default_baseline_path() -> Path:
    """``ANALYZE_BASELINE.json`` at the repository root (may not exist).

    Two levels above the analysed package root, found without importing
    the analyzer: the runner keys its cached gate verdict on this file."""
    return Path(__file__).resolve().parents[4] / "ANALYZE_BASELINE.json"


def run_passes(project: Project) -> List[Finding]:
    """Run every pass over *project*; findings in pass order."""
    from . import ALL_PASSES

    findings: List[Finding] = []
    for _name, pass_fn in ALL_PASSES:
        findings.extend(pass_fn(project))
    return findings


def analyze(
    paths: Optional[Iterable[Path]] = None,
    baseline: Union[Baseline, Path, str, None] = None,
) -> AnalysisReport:
    """Analyze *paths* (default: the whole ``src/repro`` tree).

    *baseline* may be a :class:`Baseline`, a path to one, or None —
    None means the default repo-root baseline when analysing the whole
    tree, and an empty baseline for explicit path subsets.
    """
    from . import AnalysisReport, Baseline, build_project

    if isinstance(baseline, Baseline):
        base = baseline
    elif baseline is not None:
        base = Baseline.load(Path(baseline))
    elif paths is None:
        base = Baseline.load(default_baseline_path())
    else:
        base = Baseline()
    project = build_project(paths)
    return AnalysisReport(findings=run_passes(project), baseline=base)


_TREE_REPORT: Optional[AnalysisReport] = None


def check_tree(force: bool = False) -> AnalysisReport:
    """Whole-tree report against the committed baseline, memoized per
    process — the runner's ``--verify`` gate calls this once however many
    experiment cells run."""
    global _TREE_REPORT
    if _TREE_REPORT is None or force:
        _TREE_REPORT = analyze()
    return _TREE_REPORT
