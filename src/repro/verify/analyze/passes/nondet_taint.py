"""Nondeterminism taint: order-unstable values reaching observable sinks.

The hygiene lint bans the obvious entropy sources (wall clock, global
RNG). The subtler determinism killers are *order-unstable* values —
``set``/``frozenset`` iteration order, ``id()``, ``hash()`` of objects,
``os.environ`` — which are perfectly legal right up until they flow into
something externally observable: a trace event (breaks invariant audits
and golden traces), RNG seeding (breaks bit-identical replay), or report
output (breaks the byte-compared resume sweep).

``nondet-taint``
    intraprocedural forward taint, per function: taint starts at an
    unstable source, propagates through assignments, loops over tainted
    iterables, containers and string formatting, and is *cleansed* by
    order-fixing operations (``sorted``, ``min``, ``max``, ``len``,
    ``sum``). A tainted expression used as an argument to a sink —
    ``tracer.event(...)``, ``.seed(...)``, ``RngStreams(...)``,
    ``print(...)`` — is flagged.

Statements are processed in source order twice, so taint carried around
a loop back-edge still reaches a sink above its source line.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

from ..findings import Finding
from ..frontend import FunctionInfo, Module, Project, dotted_name

__all__ = ["nondet_taint_pass"]

RULE = "nondet-taint"

#: calls that return order-stable results whatever their input.
_CLEANSERS = {"sorted", "min", "max", "len", "sum", "repr", "str", "int", "float", "abs", "round"}

#: calls that preserve the order (and hence the taint) of their argument.
_PROPAGATORS = {"list", "tuple", "iter", "enumerate", "reversed", "zip", "dict"}

_TRACER_NAMES = {"tracer", "_tracer"}


class _Taint:
    """Sequential, per-function taint environment."""

    def __init__(self) -> None:
        self.names: Dict[str, str] = {}

    def of(self, node: ast.AST) -> Optional[str]:
        """Source description if *node*'s value is order-unstable."""
        if isinstance(node, ast.Set):
            return "a set literal"
        if isinstance(node, ast.SetComp):
            return "a set comprehension"
        if isinstance(node, ast.Name):
            return self.names.get(node.id)
        if isinstance(node, ast.Attribute):
            dotted = dotted_name(node)
            if dotted == "os.environ":
                return "`os.environ`"
            return self.of(node.value)
        if isinstance(node, ast.Call):
            dotted = dotted_name(node.func)
            terminal = dotted.split(".")[-1] if dotted else None
            if terminal in _CLEANSERS:
                return None
            if terminal in ("set", "frozenset"):
                return f"`{terminal}(...)`"
            if terminal in ("id", "hash"):
                return f"`{terminal}()`"
            if terminal in _PROPAGATORS:
                for arg in node.args:
                    src = self.of(arg)
                    if src:
                        return src
                return None
            if isinstance(node.func, ast.Attribute):
                # a method call on an unstable receiver stays unstable
                # (`os.environ.get(...)`, `set(...).union(...)`)
                return self.of(node.func.value)
            return None
        if isinstance(node, (ast.BinOp,)):
            return self.of(node.left) or self.of(node.right)
        if isinstance(node, ast.BoolOp):
            for v in node.values:
                src = self.of(v)
                if src:
                    return src
            return None
        if isinstance(node, ast.IfExp):
            return self.of(node.body) or self.of(node.orelse)
        if isinstance(node, ast.JoinedStr):
            for v in node.values:
                if isinstance(v, ast.FormattedValue):
                    src = self.of(v.value)
                    if src:
                        return src
            return None
        if isinstance(node, (ast.Tuple, ast.List)):
            for el in node.elts:
                src = self.of(el)
                if src:
                    return src
            return None
        if isinstance(node, (ast.Subscript, ast.Starred)):
            return self.of(node.value)
        if isinstance(node, ast.UnaryOp):
            return self.of(node.operand)
        return None

    def assign(self, target: ast.expr, source: Optional[str]) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for el in target.elts:
                self.assign(el, source)
        elif isinstance(target, ast.Name):
            if source:
                self.names[target.id] = source
            else:
                self.names.pop(target.id, None)


def _sink_kind(dotted: Optional[str], call: ast.Call) -> Optional[str]:
    if dotted is None:
        return None
    parts = dotted.split(".")
    if parts == ["print"]:
        return "report output (`print`)"
    if len(parts) >= 2 and parts[-2] in _TRACER_NAMES and parts[-1] == "event":
        return "a trace event emission"
    if parts[-1] == "seed" and len(parts) >= 2:
        return "RNG seeding"
    if parts[-1] == "RngStreams":
        return "RNG stream construction"
    return None


def nondet_taint_pass(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    for module in project.modules:
        for fn in module.functions:
            findings.extend(_analyze_function(module, fn))
    findings.sort(key=lambda f: (f.path, f.line, f.col))
    return findings


def _analyze_function(module: Module, fn: FunctionInfo) -> List[Finding]:
    env = _Taint()
    stmts = sorted(
        (n for n in fn.own if isinstance(n, ast.stmt)),
        key=lambda n: (n.lineno, n.col_offset),
    )
    # two sequential passes: the second sees loop-carried taint.
    for _ in range(2):
        for stmt in stmts:
            if isinstance(stmt, ast.Assign):
                src = env.of(stmt.value)
                for target in stmt.targets:
                    env.assign(target, src)
            elif isinstance(stmt, ast.AugAssign):
                src = env.of(stmt.value) or (
                    isinstance(stmt.target, ast.Name)
                    and env.names.get(stmt.target.id)
                    or None
                )
                env.assign(stmt.target, src)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                env.assign(stmt.target, env.of(stmt.iter))

    out: List[Finding] = []
    calls = [(n, dotted_name(n.func)) for n in fn.own if isinstance(n, ast.Call)]
    for call, dotted in calls:
        sink = _sink_kind(dotted, call)
        if sink is None:
            continue
        args = list(call.args) + [kw.value for kw in call.keywords]
        for arg in args:
            src = env.of(arg)
            if src is None:
                continue
            if module.allowed(call.lineno, RULE):
                break
            out.append(
                Finding(
                    rule=RULE,
                    path=module.path,
                    line=call.lineno,
                    col=call.col_offset,
                    message=(
                        f"value derived from {src} flows into {sink} in "
                        f"`{fn.qualname}` — iteration/identity order is not "
                        f"stable across runs; sort or avoid the unstable "
                        f"source"
                    ),
                )
            )
            break
    out.sort(key=lambda f: (f.line, f.col))
    return out
