"""Hygiene pass: the sim-determinism rules.

The simulation's headline property is determinism — same seed, same run,
bit for bit. That dies quietly the moment simulation code reads the wall
clock, pulls from a global RNG, or validates correctness with a statement
``python -O`` deletes. This pass rejects:

``wall-clock``
    ``time.time()``, ``time.perf_counter()``, ``time.monotonic()`` (and
    their ``_ns`` twins), ``datetime.now()``/``utcnow()``,
    ``date.today()``, ``time.strftime()`` of the current time —
    simulated code must read :attr:`Engine.now`.
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

A primitive called without ``yield`` is the yield-discipline pass's
``undriven-generator``.

A finding can be waived for one line with a trailing ``# verify: allow``
comment (optionally naming the rule: ``# verify: allow[wall-clock]``) —
e.g. the experiment runner legitimately reports wall-clock duration —
anywhere but ``repro/core/``. Findings sort by (line, col).
"""

from __future__ import annotations

import ast
from typing import List

from ..findings import Finding
from ..frontend import WALL_CLOCK, WALL_CLOCK_FROM_TIME, Module, Project

__all__ = ["WALL_CLOCK", "module_hygiene", "hygiene_pass"]


class _Emitter:
    def __init__(self, module: Module) -> None:
        self.module = module
        self.found: List[Finding] = []

    def flag(self, node: ast.AST, rule: str, message: str) -> None:
        line = getattr(node, "lineno", 0)
        if self.module.allowed(line, rule):
            return
        self.found.append(
            Finding(
                rule=rule,
                path=self.module.path,
                line=line,
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )

    def findings(self) -> List[Finding]:
        return sorted(self.found, key=lambda f: (f.line, f.col))


def module_hygiene(module: Module) -> List[Finding]:
    """All hygiene findings for one module."""
    if module.syntax_error is not None:
        exc = module.syntax_error
        return [
            Finding(
                rule="syntax",
                path=module.path,
                line=exc.lineno or 0,
                col=exc.offset or 0,
                message=str(exc.msg),
            )
        ]
    out = _Emitter(module)
    _check_imports(module, out)
    _check_calls(module, out)
    _check_asserts(module, out)
    return out.findings()


def hygiene_pass(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    for module in project.modules:
        findings.extend(module_hygiene(module))
    return findings


# -- imports -------------------------------------------------------------


def _check_imports(module: Module, out: _Emitter) -> None:
    for node in module.import_froms:
        if node.module == "time":
            for alias in node.names:
                if alias.name in WALL_CLOCK_FROM_TIME:
                    out.flag(
                        node,
                        "wall-clock",
                        f"importing wall-clock `{alias.name}` from `time`; "
                        f"simulation code must use Engine.now",
                    )
        if node.module == "random":
            out.flag(
                node,
                "nondeterminism",
                "importing from the global `random` module; use "
                "repro.core.rng.RngStreams",
            )


# -- calls ---------------------------------------------------------------


def _check_calls(module: Module, out: _Emitter) -> None:
    for node, dotted in module.calls:
        if dotted is None:
            continue
        parts = dotted.split(".")
        suffix2 = ".".join(parts[-2:])
        if suffix2 in WALL_CLOCK:
            out.flag(
                node,
                "wall-clock",
                f"wall-clock call `{dotted}()` in simulation code; "
                f"use Engine.now (waive with `# verify: allow[wall-clock]` "
                f"for wall-clock *reporting*)",
            )
        if len(parts) == 1 and parts[0] in module.from_time_names:
            out.flag(
                node,
                "wall-clock",
                f"wall-clock call `{dotted}()` in simulation code",
            )
        if module.imports_random and parts[0] == "random" and len(parts) == 2:
            if parts[1] == "Random" and not (node.args or node.keywords):
                out.flag(
                    node,
                    "nondeterminism",
                    "`random.Random()` without an explicit seed draws from "
                    "OS entropy; seed it, or draw from RngStreams",
                )
            else:
                out.flag(
                    node,
                    "nondeterminism",
                    f"global RNG call `{dotted}()`; draw from a seeded "
                    f"RngStreams stream instead",
                )
        if (
            module.imports_numpy
            and len(parts) >= 3
            and parts[0] in module.numpy_aliases
            and parts[1] == "random"
        ):
            # `default_rng(seed)` builds an explicitly-seeded Generator
            # — that IS the sanctioned idiom; only the unseeded form
            # (OS entropy) and the global-state functions are leaks.
            seeded = parts[2] == "default_rng" and (node.args or node.keywords)
            if not seeded:
                out.flag(
                    node,
                    "nondeterminism",
                    f"NumPy global RNG call `{dotted}()`; use the run's "
                    f"RngStreams / an explicitly seeded default_rng",
                )
        if suffix2 == "os.urandom":
            out.flag(
                node,
                "nondeterminism",
                "`os.urandom()` reads OS entropy; deterministic runs must "
                "draw from RngStreams",
            )
        if len(parts) >= 2 and parts[0] == "uuid":
            out.flag(
                node,
                "nondeterminism",
                f"`{dotted}()` derives from host state/entropy; "
                f"deterministic runs must not mint UUIDs",
            )
        if suffix2 == "time.strftime" and len(node.args) < 2:
            out.flag(
                node,
                "wall-clock",
                "`time.strftime()` without an explicit time tuple formats "
                "the wall clock; pass a value derived from Engine.now",
            )


# -- asserts -------------------------------------------------------------


def _check_asserts(module: Module, out: _Emitter) -> None:
    for node in module.asserts:
        test = node.test
        is_narrowing = (
            isinstance(test, ast.Call)
            and isinstance(test.func, ast.Name)
            and test.func.id == "isinstance"
        )
        if not is_narrowing:
            out.flag(
                node,
                "bare-assert",
                "bare `assert` for runtime validation is stripped by "
                "`python -O`; raise InvariantViolation (repro.core.errors) "
                "instead",
            )
