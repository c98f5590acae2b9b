"""Sim-hygiene lint: AST checks against nondeterminism leaks.

The simulation's headline property is determinism — same seed, same run,
bit for bit. That dies quietly the moment simulation code reads the wall
clock, pulls from a global RNG, or validates correctness with a statement
``python -O`` deletes. This layer rejects:

``wall-clock``
    ``time.time()``, ``time.perf_counter()``, ``time.monotonic()``,
    ``datetime.now()``/``utcnow()``, ``date.today()``,
    ``time.strftime()`` of the current time — simulated code must read
    :attr:`Engine.now`.
``nondeterminism``
    the global ``random`` module and NumPy's global RNG
    (``np.random.*``), plus ``os.urandom``, ``uuid.*``, and
    ``random.Random()`` without an explicit seed — streams must come
    from :class:`repro.core.rng.RngStreams`, which is seeded per run.
``bare-assert``
    ``assert`` used for runtime validation — stripped under ``python -O``;
    correctness checks must raise
    :class:`~repro.core.errors.InvariantViolation` (or another typed
    exception). ``assert isinstance(...)`` is tolerated as the standard
    type-narrowing idiom (it guards nothing at runtime by contract).
``unyielded-primitive``
    an engine primitive called as a bare expression statement —
    ``ctx.compute(n)`` instead of ``yield from ctx.compute(n)`` returns a
    generator that never runs; the simulation silently skips the work.

A finding can be waived for one line with a trailing ``# verify: allow``
comment (optionally naming the rule: ``# verify: allow[wall-clock]``) —
e.g. the experiment runner legitimately reports wall-clock duration.

The rules themselves live in :mod:`repro.verify.analyze.passes.hygiene`,
running on the shared one-walk front-end every analyzer pass uses; this
module is the stable, list-of-issues entry point ``python -m repro.verify
lint`` has always exposed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional

from .analyze.frontend import (
    ALLOW_RE as _ALLOW_RE,
    GENERATOR_PRIMITIVES,
    Module as _Module,
    default_target,
    iter_python_files as _iter_python_files,
)
from .analyze.passes.hygiene import WALL_CLOCK, module_hygiene

__all__ = ["LintIssue", "lint_source", "lint_paths", "default_target"]


@dataclass
class LintIssue:
    """One finding of the hygiene pass."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


def lint_source(source: str, path: str = "<string>") -> List[LintIssue]:
    """Lint one module's source text."""
    module = _Module.from_source(source, path=path)
    return [
        LintIssue(
            path=f.path, line=f.line, col=f.col, rule=f.rule, message=f.message
        )
        for f in module_hygiene(module)
    ]


def lint_paths(paths: Optional[Iterable[Path]] = None) -> List[LintIssue]:
    """Lint every ``*.py`` file under *paths* (default: all of repro)."""
    issues: List[LintIssue] = []
    for file in _iter_python_files(paths):
        issues.extend(
            lint_source(file.read_text(encoding="utf-8"), path=str(file))
        )
    issues.sort(key=lambda i: (i.path, i.line, i.col))
    return issues
