"""Three-layer verification subsystem for the reproduction.

1. **Schedule exploration** (:mod:`.explorer`) — the real schemes, run
   through one checkpoint round of a tiny ring app at 2–4 ranks under
   chosen crash instants, storage-write failures and per-transfer wire
   delays; every run is audited by the trace checkers, drained to
   quiescence and checked for undecided 2PC rounds and a changed result.
2. **Trace invariants** (:mod:`.invariants`, :mod:`.trace_check`) —
   declarative checkers subscribed to the structured event stream the
   simulator emits (FIFO delivery, 2PC commit rules, staggered-write
   mutual exclusion, GC line safety, recovery-line soundness). Live on
   any run via ``--verify`` on the experiment runner; the ``smoke``
   layer audits a traced run of every scheme.
3. **Whole-program static analysis** (:mod:`.analyze`) — the one static
   gate: five passes over one shared front-end (per-module ASTs, project
   symbol table, generator classification): sim hygiene (wall clock,
   global RNG, bare asserts), yield discipline (generators never
   driven), cleanup-mutation detection, trace-event conformance against
   ``EVENT_KINDS``, and nondeterminism taint tracking. Any
   finding fails; a ``# verify: allow[rule]`` pragma waives one line,
   never under ``repro/core/``.

CLI: ``python -m repro.verify [model|smoke|analyze|all]``; each layer has
a distinct failure exit code (model=3, smoke=4, analyze=5).
"""

from .._lazy import lazy_surface

#: name -> the submodule defining it, imported on first use.
_LAZY = {
    "AnalysisReport": "analyze.findings",
    "Finding": "analyze.findings",
    "RunMeta": "invariants",
    "TraceViolation": "invariants",
    "default_checkers": "invariants",
    "TraceReport": "trace_check",
    "check_runtime": "trace_check",
    "check_trace": "trace_check",
    "meta_for_runtime": "trace_check",
    "runtime_verification_enabled": "trace_check",
    "set_runtime_verification": "trace_check",
    "verified": "trace_check",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_surface(__name__, _LAZY)
