"""Replay a run's event stream through the invariant checkers.

Two entry points:

* :func:`check_trace` — audit a raw event list against a :class:`RunMeta`;
* :func:`check_runtime` — audit a finished
  :class:`~repro.chklib.runtime.CheckpointRuntime` (metadata is derived
  from its scheme).

Post-run verification can be switched on globally
(:func:`set_runtime_verification` or the :func:`verified` context manager):
the runtime then audits its own trace at the end of ``run()`` and raises
:class:`~repro.core.errors.VerificationError` on any violation. This is
what ``--verify`` on the experiment runner toggles — every run of every
experiment is audited post-hoc, at zero cost to the measured simulation
(checking happens after the simulated clock stops).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Sequence

from ..core.errors import VerificationError

if TYPE_CHECKING:
    from ..core.tracing import TraceEvent
    from .invariants import Checker, RunMeta, TraceViolation

__all__ = [
    "TraceReport",
    "check_trace",
    "check_runtime",
    "meta_for_runtime",
    "set_runtime_verification",
    "runtime_verification_enabled",
    "verified",
]


@dataclass
class TraceReport:
    """Outcome of one trace audit."""

    events_checked: int
    invariants_run: List[str]
    violations: List[TraceViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return (
            f"{status}: {self.events_checked} events through "
            f"{len(self.invariants_run)} invariant checkers"
        )

    def raise_if_violated(self) -> None:
        if self.ok:
            return
        lines = [f"trace verification failed ({len(self.violations)} violation(s)):"]
        for v in self.violations[:20]:
            lines.append(f"  [{v.invariant}] t={v.time:.6f} {v.message}")
        if len(self.violations) > 20:
            lines.append(f"  … and {len(self.violations) - 20} more")
        raise VerificationError("\n".join(lines), violations=self.violations)


def check_trace(events: Sequence[TraceEvent], meta: RunMeta) -> TraceReport:
    """Replay *events* through the full checker battery.

    Each event visits only the checkers that consume its kind, in battery
    order (a ``"*"`` checker sees every event); the result is what
    feeding every event to every checker gives."""
    from .invariants import default_checkers

    checkers = default_checkers(meta)
    everyone = [c for c in checkers if "*" in c.consumes]
    table: Dict[str, List[Checker]] = {
        kind: [c for c in checkers if kind in c.consumes or "*" in c.consumes]
        for checker in checkers
        for kind in checker.consumes
    }
    for index, ev in enumerate(events):
        for checker in table.get(ev.kind, everyone):
            checker._index = index
            checker.on_event(ev)
    end = events[-1].time if events else 0.0
    for checker in checkers:  # finish() stamps the stream's end, not its last own event
        checker._index, checker._now = len(events) - 1, end
    violations: List[TraceViolation] = []
    for checker in checkers:
        violations.extend(checker.finish())
    violations.sort(key=lambda v: (v.time, v.event_index or 0))
    return TraceReport(
        events_checked=len(events),
        invariants_run=[c.name for c in checkers],
        violations=violations,
    )


def meta_for_runtime(runtime: Any) -> RunMeta:
    """Derive checker metadata from a (duck-typed) runtime's scheme."""
    from .invariants import RunMeta

    scheme = runtime.scheme
    storage = getattr(runtime, "storage", None)
    return RunMeta(
        n_ranks=runtime.n_ranks,
        scheme=getattr(scheme, "name", "none"),
        klass=getattr(scheme, "klass", "none"),
        staggered=bool(getattr(scheme, "staggered", False)),
        logging=bool(getattr(scheme, "logging", False)),
        storage_servers=int(getattr(storage, "n_servers", 1)),
    )


def check_runtime(runtime: Any) -> TraceReport:
    """Audit a finished runtime's recorded trace.

    Requires the runtime to have been built with tracing enabled
    (``trace=True``, the default) — with tracing off there are no events
    to audit and the report trivially passes on zero events.
    """
    return check_trace(runtime.tracer.events, meta_for_runtime(runtime))


# -- global post-run verification toggle ---------------------------------------

_RUNTIME_VERIFICATION = False


def set_runtime_verification(enabled: bool) -> None:
    """Globally toggle post-run trace auditing inside ``run()``."""
    global _RUNTIME_VERIFICATION
    _RUNTIME_VERIFICATION = bool(enabled)


def runtime_verification_enabled() -> bool:
    return _RUNTIME_VERIFICATION


@contextmanager
def verified() -> Iterator[None]:
    """Audit every runtime that finishes inside this context."""
    previous = _RUNTIME_VERIFICATION
    set_runtime_verification(True)
    try:
        yield
    finally:
        set_runtime_verification(previous)
