"""Cleanup-mutation detector: the PR 5 ``_quiesced`` bug class.

When a recovery interrupts in-flight process coroutines, their
``finally``/``except GeneratorExit`` bodies run *mid-restore*, while the
runtime has quiesced cluster storage so restore readers see a stable
machine. PR 5's worst bug was exactly such a handler reaching into
``cluster`` state and un-quiescing the storage rate, making restarted
runs diverge from uninterrupted ones.

``cleanup-mutation``
    inside a generator function (process coroutine), within a
    ``finally:`` body or an ``except GeneratorExit:`` handler, any write
    to cluster/storage/shared-server state — an attribute store through a
    chain containing one of the shared-state roots (``cluster``,
    ``storage``, ``server``, ``local_disks``, ``store``), or a
    mutating-looking method call on such a chain — **outside** the
    quiesce-guard API (``Cluster.set_rank_blocked`` /
    ``set_all_blocked``, which respect ``_quiesced``).

Modules under ``repro/machine/`` are exempt: they *implement* the guarded
state and its cancellation paths; the rule polices their clients.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List

from ..findings import Finding
from ..frontend import FunctionInfo, Project, dotted_name

__all__ = ["cleanup_mutation_pass"]

RULE = "cleanup-mutation"

#: dotted-chain segments naming shared machine/storage state.
STATE_ROOTS = {"cluster", "storage", "server", "local_disks", "store"}

#: the sanctioned quiesce-guard entry points.
SAFE_METHODS = {"set_rank_blocked", "set_all_blocked"}

#: method-name shapes that mutate their receiver.
_MUTATING_PREFIXES = (
    "set_",
    "add",
    "append",
    "discard",
    "remove",
    "clear",
    "pop",
    "update",
    "reset",
    "apply",
    "insert",
    "extend",
)


def _is_mutating_method(name: str) -> bool:
    return name.startswith("_") or name.startswith(_MUTATING_PREFIXES)


def _touches_state_root(dotted: str) -> bool:
    return any(seg in STATE_ROOTS for seg in dotted.split("."))


def _cleanup_bodies(fn: FunctionInfo):
    """(kind, stmt-list) for every finally / except-GeneratorExit in
    *fn*'s own scope."""
    for node in fn.own:
        if not isinstance(node, ast.Try):
            continue
        if node.finalbody:
            yield "finally", node.finalbody
        for handler in node.handlers:
            if _catches_generator_exit(handler.type):
                yield "except GeneratorExit", handler.body


def _catches_generator_exit(type_node) -> bool:
    if type_node is None:
        return False
    if isinstance(type_node, ast.Tuple):
        return any(_catches_generator_exit(el) for el in type_node.elts)
    return (
        isinstance(type_node, ast.Name) and type_node.id == "GeneratorExit"
    ) or (
        isinstance(type_node, ast.Attribute) and type_node.attr == "GeneratorExit"
    )


def _body_nodes(stmts):
    """All descendants of the cleanup body, without entering nested defs."""
    stack = list(stmts)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def cleanup_mutation_pass(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    for module in project.modules:
        if "machine" in Path(module.path).parts:
            continue
        for fn in module.functions:
            if not fn.is_generator:
                continue
            for kind, body in _cleanup_bodies(fn):
                for node in _body_nodes(body):
                    finding = _check_node(module, fn, kind, node)
                    if finding is not None:
                        findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col))
    return findings


def _check_node(module, fn, kind, node):
    if isinstance(node, (ast.Assign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            while isinstance(target, ast.Subscript):
                target = target.value
            dotted = dotted_name(target)
            if dotted is not None and _touches_state_root(dotted):
                if module.allowed(node.lineno, RULE):
                    return None
                return Finding(
                    rule=RULE,
                    path=module.path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"`{kind}` in `{fn.qualname}` writes shared state "
                        f"`{dotted}` during cleanup — restore-time teardown "
                        f"must go through the quiesce-guard API "
                        f"(Cluster.set_rank_blocked / set_all_blocked)"
                    ),
                )
    elif isinstance(node, ast.Call):
        dotted = dotted_name(node.func)
        if dotted is None or "." not in dotted:
            return None
        method = dotted.split(".")[-1]
        receiver = dotted.rsplit(".", 1)[0]
        if (
            _touches_state_root(receiver)
            and method not in SAFE_METHODS
            and _is_mutating_method(method)
        ):
            if module.allowed(node.lineno, RULE):
                return None
            return Finding(
                rule=RULE,
                path=module.path,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"`{kind}` in `{fn.qualname}` mutates shared state via "
                    f"`{dotted}()` during cleanup — only the quiesce-guard "
                    f"API (Cluster.set_rank_blocked / set_all_blocked) may "
                    f"touch machine state here"
                ),
            )
    return None
