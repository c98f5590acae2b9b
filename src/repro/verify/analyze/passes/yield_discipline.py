"""Yield-discipline dataflow: generators that are created but never run.

The kernel's simulation primitives (``ctx.compute``, ``node.send``, …)
and every project coroutine built on them return *generators* — inert
until driven by ``yield from`` (or spawned as a process) — or, like
``comm.recv``, an event that must be yielded:

``undriven-generator``
    * an engine primitive (:data:`~..frontend.GENERATOR_PRIMITIVES`) or
      a **project** generator-returning helper (classified by the
      front-end: every definition of that simple name is a generator or a
      thin wrapper around one) called as a bare expression statement —
      ``ctx.compute(n)`` instead of ``yield from ctx.compute(n)``, so the
      simulation silently skips the work; and
    * either kind **bound to a name that is never read again** in the
      enclosing function — assignment hides the discarded generator from
      the statement-level rule, but a name with zero subsequent loads
      cannot have been driven.

A callee is named by its attribute or bare name, so ``a().compute(x)``
counts as ``compute``.

A name that *is* read later (``yield from g``, ``spawn(g)``,
``return g``, a loop over it) is presumed driven: the read is where the
responsibility transfers.
"""

from __future__ import annotations

import ast
import io
from typing import List

from ..findings import Finding
from ..frontend import GENERATOR_PRIMITIVES, Project

__all__ = ["yield_discipline_pass"]

RULE = "undriven-generator"

#: simple names that also exist as methods on ubiquitous stdlib types
#: (file objects, containers, strings) — a call like ``fh.write(...)``
#: cannot be attributed to a project generator by name alone, so these
#: are excluded from the by-name classification.
_AMBIENT_NAMES = (
    set(dir(io.RawIOBase))
    | set(dir(io.TextIOBase))
    | set(dir(list))
    | set(dir(dict))
    | set(dir(set))
    | set(dir(str))
)


def _callee(call: ast.Call) -> str | None:
    """The called attribute's or bare name's identifier."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def yield_discipline_pass(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    # the primitives, plus project generator names no stdlib type shares
    generators = GENERATOR_PRIMITIVES | (project.generator_names - _AMBIENT_NAMES)

    # generator-returning calls made as plain statements.
    for module in project.modules:
        for stmt in module.expr_statements:
            call = stmt.value
            if not isinstance(call, ast.Call):
                continue
            name = _callee(call)
            if name in generators:
                if module.allowed(stmt.lineno, RULE):
                    continue
                findings.append(
                    Finding(
                        rule=RULE,
                        path=module.path,
                        line=stmt.lineno,
                        col=stmt.col_offset,
                        message=(
                            f"`{name}(...)` returns a generator or event but "
                            f"is called as a plain statement — it is never "
                            f"driven; `yield from` / `yield` it (or spawn it)"
                        ),
                    )
                )

    # generator bound to a name with zero subsequent loads.
    for fns in project.functions_by_name.values():
        for fn in fns:
            for node in fn.own:
                if not (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                ):
                    continue
                value = node.value
                if not isinstance(value, ast.Call):
                    continue
                name = _callee(value)
                if name not in generators:
                    continue
                var = node.targets[0].id
                if var in fn.loaded:
                    continue
                module = fn.module
                if module.allowed(node.lineno, RULE):
                    continue
                findings.append(
                    Finding(
                        rule=RULE,
                        path=module.path,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            f"generator from `{name}(...)` bound to `{var}` "
                            f"is never driven — `{var}` has no later use in "
                            f"`{fn.qualname}`; drive it with `yield from` "
                            f"(or spawn it)"
                        ),
                    )
                )
    findings.sort(key=lambda f: (f.path, f.line, f.col))
    return findings

