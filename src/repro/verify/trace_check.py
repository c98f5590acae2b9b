"""The trace audit: the checker battery as a sink on a run's event stream.

:class:`Audit` subscribes each invariant checker to a
:class:`~repro.core.tracing.Tracer` for the kinds it ``consumes``. With
verification on (:func:`set_runtime_verification`, the :func:`verified`
context manager, the experiment runner's ``--verify``), ``run()`` attaches
one to its own tracer, so every event is checked as it is emitted and
nothing is stored for the purpose; the end of ``run()`` raises
:class:`~repro.core.errors.VerificationError` on any violation.
:func:`check_trace` feeds a recorded list through the same sink, and
:func:`check_runtime` gives a finished runtime's report.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, List

from ..core.errors import VerificationError
from ..core.tracing import RunMeta, TraceEvent, Tracer, TraceViolation

__all__ = [
    "Audit",
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


class Audit:
    """The checker battery for one run, subscribed to *tracer*.

    Each checker sees only the kinds it ``consumes`` (the tracer folds
    ``"*"`` in), through :meth:`~repro.core.tracing.Checker.feed`
    with the event's index in the run's stream."""

    def __init__(self, tracer: Tracer, meta: RunMeta) -> None:
        from .invariants import default_checkers

        self.checkers = default_checkers(meta)
        self.events_checked = 0
        self.end = 0.0
        tracer.subscribe(("*",), self._tick)
        for checker in self.checkers:
            tracer.subscribe(checker.consumes, checker.feed)

    def _tick(self, index: int, ev: TraceEvent) -> None:
        self.events_checked = index + 1
        self.end = ev.time

    def report(self) -> TraceReport:
        """End the stream: every checker's end-of-stream checks, stamped
        with the stream's last event whatever its kind, then the report."""
        violations: List[TraceViolation] = []
        for checker in self.checkers:
            checker._index, checker._now = self.events_checked - 1, self.end
            violations.extend(checker.finish())
        violations.sort(key=lambda v: (v.time, v.event_index or 0))
        return TraceReport(
            events_checked=self.events_checked,
            invariants_run=[c.name for c in self.checkers],
            violations=violations,
        )


def check_trace(events: Iterable[TraceEvent], meta: RunMeta) -> TraceReport:
    """Feed *events*, a whole recorded stream, through an :class:`Audit`."""
    tracer = Tracer(engine=None)
    audit = Audit(tracer, meta)
    for ev in events:
        tracer.publish(ev)
    return audit.report()


def meta_for_runtime(runtime: Any) -> RunMeta:
    """Derive checker metadata from a (duck-typed) runtime's scheme."""
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
    """The trace report of a finished runtime: its live audit's when
    ``run()`` was audited, else a replay of its recording. A runtime with
    neither has nothing to report, and says so with a
    :class:`VerificationError` rather than pass on zero events."""
    if runtime.audit_report is not None:
        return runtime.audit_report
    if runtime.tracer.recording:
        return check_trace(runtime.tracer.events, meta_for_runtime(runtime))
    raise VerificationError(
        "nothing to audit: the run was neither audited live (verified()) "
        "nor recorded (trace=True)"
    )


# -- the global live-audit toggle ------------------------------------------------

_RUNTIME_VERIFICATION = False


def set_runtime_verification(enabled: bool) -> None:
    """Globally toggle the live trace audit of every ``run()``."""
    global _RUNTIME_VERIFICATION
    _RUNTIME_VERIFICATION = bool(enabled)


def runtime_verification_enabled() -> bool:
    return _RUNTIME_VERIFICATION


@contextmanager
def verified() -> Iterator[None]:
    """Audit every runtime whose ``run()`` starts inside this context."""
    previous = _RUNTIME_VERIFICATION
    set_runtime_verification(True)
    try:
        yield
    finally:
        set_runtime_verification(previous)
