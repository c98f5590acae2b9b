"""The analyzer's passes, in the order ``run_passes`` executes them.

Each pass is a function ``(Project) -> List[Finding]`` (hygiene is
additionally usable per-module, as :func:`module_hygiene`). Pragma
waivers (``# verify: allow[rule]``) are honoured by every pass through
:meth:`Module.allowed`, which refuses every waiver under ``repro/core/``.
"""

from __future__ import annotations

from .hygiene import hygiene_pass, module_hygiene
from .yield_discipline import yield_discipline_pass
from .cleanup_mutation import cleanup_mutation_pass
from .trace_conformance import trace_conformance_pass
from .nondet_taint import nondet_taint_pass

__all__ = [
    "ALL_PASSES",
    "hygiene_pass",
    "module_hygiene",
    "yield_discipline_pass",
    "cleanup_mutation_pass",
    "trace_conformance_pass",
    "nondet_taint_pass",
]

#: (name, pass) in execution order.
ALL_PASSES = (
    ("hygiene", hygiene_pass),
    ("yield-discipline", yield_discipline_pass),
    ("cleanup-mutation", cleanup_mutation_pass),
    ("trace-conformance", trace_conformance_pass),
    ("nondet-taint", nondet_taint_pass),
)
