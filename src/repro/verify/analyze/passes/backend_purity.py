"""Backend-purity pass: the kernel stays deterministic and layered.

Everything above it trusts the kernel's firing order, so the kernel is
exactly where hidden nondeterminism or an upward import would do the
most damage. This pass polices the whole ``repro/core/`` layer (the
one :class:`~repro.core.engine.Engine` and whatever is added beside it):

``backend-purity``
    * a core module may not import ``repro.chklib`` or
      ``repro.experiments`` (absolute or relative): protocols and
      experiment plumbing sit *above* the kernel, and a backend that
      reaches up can special-case workloads, which the parity suite
      could never certify;
    * a core module may not read the wall clock or the global RNG —
      and unlike the hygiene pass, **no pragma waiver applies**: a
      ``# verify: allow[...]`` comment must never be able to launder
      nondeterminism into the kernel itself.

The runtime counterpart of this rule is the parity suite
(``tests/core/test_backends.py``), which certifies the *observable*
firing order; this pass closes the static side.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Optional

from ..findings import Finding
from ..frontend import Project
from .hygiene import WALL_CLOCK

__all__ = ["backend_purity_pass"]

RULE = "backend-purity"

#: layers a kernel module may never reach up into.
_FORBIDDEN_LAYERS = ("chklib", "experiments")

#: numpy's explicitly-seeded RNG constructors (pure given a seed arg).
_SEEDED_CTORS = {"default_rng", "Generator", "SeedSequence", "PCG64", "Philox", "MT19937"}


def _kernel_module(path: str) -> bool:
    parts = Path(path).parts
    return "core" in parts and "repro" in parts


def _forbidden_import(module_name: Optional[str]) -> Optional[str]:
    """The forbidden layer *module_name* resolves into, if any.

    Catches ``repro.chklib.x``, bare ``chklib`` (relative ``from ..chklib
    import y`` carries ``module="chklib"``), and their ``experiments``
    twins.
    """
    if not module_name:
        return None
    parts = module_name.split(".")
    for layer in _FORBIDDEN_LAYERS:
        if layer in parts:
            return layer
    return None


def backend_purity_pass(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    for module in project.modules:
        if not _kernel_module(module.path):
            continue
        if module.syntax_error is not None:
            continue  # the hygiene pass reports the syntax error

        def flag(node: ast.AST, message: str) -> None:
            # deliberately NOT consulting module.allowed(): purity
            # violations in the kernel cannot be waived by pragma
            findings.append(
                Finding(
                    rule=RULE,
                    path=module.path,
                    line=getattr(node, "lineno", 0),
                    col=getattr(node, "col_offset", 0),
                    message=message,
                )
            )

        for node in module.imports:
            for alias in node.names:
                layer = _forbidden_import(alias.name)
                if layer:
                    flag(
                        node,
                        f"kernel module imports `{alias.name}` — backends "
                        f"sit below the {layer} layer and may not reach up",
                    )
        for node in module.import_froms:
            layer = _forbidden_import(node.module)
            if layer:
                flag(
                    node,
                    f"kernel module imports from "
                    f"`{'.' * node.level}{node.module}` — backends sit "
                    f"below the {layer} layer and may not reach up",
                )
            if node.module == "time" or node.module == "random":
                flag(
                    node,
                    f"kernel module imports from `{node.module}` — "
                    f"backends must be deterministic (no wall clock, no "
                    f"global RNG; not waivable in the kernel)",
                )

        for node, dotted in module.calls:
            if dotted is None:
                continue
            parts = dotted.split(".")
            suffix2 = ".".join(parts[-2:])
            if suffix2 in WALL_CLOCK or parts[0] in module.from_time_names:
                flag(
                    node,
                    f"kernel module calls wall-clock `{dotted}()` — a "
                    f"backend's only clock is Engine.now (not waivable "
                    f"in the kernel)",
                )
            elif parts[0] == "random" and module.imports_random:
                flag(
                    node,
                    f"kernel module calls global RNG `{dotted}()` — "
                    f"backends must not draw entropy (not waivable in "
                    f"the kernel)",
                )
            elif (
                len(parts) >= 3
                and parts[-3] in module.numpy_aliases | {"np"}
                and parts[-2] == "random"
            ):
                # np.random.default_rng(seed) / Generator(bitgen) etc.
                # are the *seeded*-stream constructors RngStreams is
                # built on — pure, provided a seed is actually passed.
                seeded_ctor = parts[-1] in _SEEDED_CTORS and (
                    node.args or node.keywords
                )
                if not seeded_ctor:
                    flag(
                        node,
                        f"kernel module calls `{dotted}()` — numpy's "
                        f"global/unseeded RNG is nondeterministic state "
                        f"a backend may not touch",
                    )
    findings.sort(key=lambda f: (f.path, f.line, f.col))
    return findings
