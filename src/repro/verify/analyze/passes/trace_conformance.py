"""Trace-event conformance: emitters and checkers speak the same names.

The invariant engine (``repro.verify.invariants``) audits protocol traces
by event kind. Both halves of that contract are stringly typed: a typo'd
name at a ``tracer.event("proto.comit", ...)`` emission site, or a
checker subscribing to an event nothing emits, makes an invariant pass
*vacuously* — the worst kind of green.

The vocabulary is ``EVENT_KINDS`` in :mod:`repro.core.tracing`. This pass
cross-checks three directions:

``trace-conformance``
    * an event-name literal at an emission site (``*.tracer.event("…")``)
      that is not in ``EVENT_KINDS``;
    * a name a checker consumes (``ev.kind == "…"`` comparisons, a
      ``consumes = ("…",)`` class attribute) that is not in
      ``EVENT_KINDS``;
    * — whole-program runs only — a vocabulary entry no site emits, or a
      consumed name no site emits (the vacuous-checker case).

The global-completeness checks are gated on
:attr:`Project.whole_program` so analysing a file subset (as the
mutation tests do) cannot false-positive on events emitted elsewhere.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Tuple

from ..findings import Finding
from ..frontend import Module, Project, dotted_name
from ....core.tracing import EVENT_KINDS

__all__ = ["trace_conformance_pass"]

RULE = "trace-conformance"

#: receiver segment names that identify a Tracer emission site.
_TRACER_NAMES = {"tracer", "_tracer"}


def _emission_sites(module: Module) -> List[Tuple[ast.Call, str]]:
    """(call, event-name) for every ``<…>.tracer.event("name", …)``."""
    sites = []
    for call, dotted in module.calls:
        parts = dotted.split(".") if dotted else ()
        if len(parts) < 2 or parts[-1] != "event" or parts[-2] not in _TRACER_NAMES:
            continue
        if call.args and isinstance(call.args[0], ast.Constant):
            if isinstance(call.args[0].value, str):
                sites.append((call, call.args[0].value))
    return sites


def _consumption_sites(module: Module) -> List[Tuple[ast.AST, str]]:
    """(node, event-name) for every place a checker names an event:
    ``consumes`` manifests, then ``ev.kind`` comparisons."""
    sites: List[Tuple[ast.AST, str]] = [
        (stmt, name)
        for cls in module.classes
        for stmt, names in cls.consumes
        for name in names
    ]
    sites.extend(
        (node, name) for node, names, _cls in module.kind_compares for name in names
    )
    return sites


def trace_conformance_pass(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    emitted: Dict[str, Tuple[Module, ast.AST]] = {}
    consumed: Dict[str, Tuple[Module, ast.AST]] = {}

    for module in project.modules:
        for node, name in _emission_sites(module):
            emitted.setdefault(name, (module, node))
            if name not in EVENT_KINDS:
                _flag(
                    findings, module, node,
                    f"trace event `{name}` is emitted but absent from "
                    f"EVENT_KINDS (repro.core.tracing) — invariant checkers "
                    f"will never audit it",
                )
        for node, name in _consumption_sites(module):
            if name == "*":
                continue
            consumed.setdefault(name, (module, node))
            if name not in EVENT_KINDS:
                _flag(
                    findings, module, node,
                    f"checker consumes trace event `{name}` which is not in "
                    f"EVENT_KINDS (repro.core.tracing) — likely a typo; the "
                    f"invariant would pass vacuously",
                )

    if project.whole_program:
        for name, (module, node) in sorted(consumed.items()):
            if name in EVENT_KINDS and name not in emitted:
                _flag(
                    findings, module, node,
                    f"checker consumes trace event `{name}` which no site "
                    f"emits — the invariant passes vacuously",
                )
        vocab_home = _vocab_module(project)
        if vocab_home is not None:
            module, node = vocab_home
            for name in sorted(EVENT_KINDS):
                if name not in emitted:
                    _flag(
                        findings, module, node,
                        f"EVENT_KINDS entry `{name}` is emitted nowhere — "
                        f"stale vocabulary",
                    )

    findings.sort(key=lambda f: (f.path, f.line, f.col))
    return findings


def _vocab_module(project: Project):
    for module in project.modules:
        if module.tree is None:
            continue
        for node in module.tree.body:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "EVENT_KINDS"
            ):
                return module, node
    return None


def _flag(findings: List[Finding], module: Module, node: ast.AST, message: str) -> None:
    line = getattr(node, "lineno", 0)
    if module.allowed(line, RULE):
        return
    findings.append(
        Finding(
            rule=RULE,
            path=module.path,
            line=line,
            col=getattr(node, "col_offset", 0),
            message=message,
        )
    )
