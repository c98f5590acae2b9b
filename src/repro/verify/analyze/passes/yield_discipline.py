"""Yield-discipline dataflow: generators that are created but never run.

The kernel's simulation primitives (``ctx.compute``, ``node.send``, …)
and every project coroutine built on them return *generators* — inert
until driven by ``yield from`` (or spawned as a process). The hygiene
lint catches the bare-statement form for the fixed primitive set; this
pass upgrades the check with whole-program knowledge and dataflow:

``undriven-generator``
    * a **project** generator-returning helper (classified by the
      front-end: every definition of that simple name is a generator or a
      thin wrapper around one) called as a bare expression statement —
      the plain-call form of the bug for names the primitive set cannot
      list; and
    * a generator primitive or project generator **bound to a name that
      is never read again** in the enclosing function — assignment hides
      the discarded generator from the statement-level rule, but a name
      with zero subsequent loads cannot have been driven.

A name that *is* read later (``yield from g``, ``spawn(g)``,
``return g``, a loop over it) is presumed driven: the read is where the
responsibility transfers.
"""

from __future__ import annotations

import ast
import io
from typing import List

from ..findings import Finding
from ..frontend import GENERATOR_PRIMITIVES, Project, dotted_name

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


def _terminal(call: ast.Call) -> str | None:
    dotted = dotted_name(call.func)
    if dotted is None:
        return None
    return dotted.split(".")[-1]


def yield_discipline_pass(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    gen_names = project.generator_names
    all_gen = gen_names | GENERATOR_PRIMITIVES

    # plain-statement calls of project generator helpers (the primitives
    # themselves are the hygiene pass's `unyielded-primitive` rule).
    for module in project.modules:
        for stmt in module.expr_statements:
            call = stmt.value
            if not isinstance(call, ast.Call):
                continue
            name = _terminal(call)
            if (
                name in gen_names
                and name not in GENERATOR_PRIMITIVES
                and name not in _AMBIENT_NAMES
            ):
                if module.allowed(stmt.lineno, RULE):
                    continue
                findings.append(
                    Finding(
                        rule=RULE,
                        path=module.path,
                        line=stmt.lineno,
                        col=stmt.col_offset,
                        message=(
                            f"`{name}(...)` is generator-returning but called "
                            f"as a plain statement — the coroutine never runs; "
                            f"drive it with `yield from` (or spawn it)"
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
                name = _terminal(value)
                if name not in all_gen:
                    continue
                if name in _AMBIENT_NAMES and name not in GENERATOR_PRIMITIVES:
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

