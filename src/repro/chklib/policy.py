"""Composable checkpoint-scheduling policies.

The paper's schemes take checkpoints on a fixed interval — one knob. Real
checkpointing runtimes (and the replication/adaptive FT literature) choose
*when* to checkpoint from observed conditions: failure rate, storage
pressure, application phase. A :class:`CheckpointPolicy` factors that
decision out of the schemes: both scheme families ask their policy for the
next checkpoint time (or, for point-driven policies, whether the current
checkpoint point should trigger a cut), and the policy emits structured
``policy.*`` trace events so the verify invariants can audit every
decision.

Policies are deliberately *picklable* and engine-free: the runtime is
passed into every decision call and never stored, so a policy is
pickled whole with its scheme into a durable recovery line
(:mod:`repro.chklib.resume`). Decisions are
memoised per (rank, shot): a resumed run replays the pre-halt shots
through :meth:`CheckpointPolicy.next_time` and gets the recorded answers
back without re-running the decision logic — no duplicate ``policy.*``
events, no double-advanced adaptive state.

Event vocabulary (checked by
:class:`repro.verify.invariants.PolicyAdaptation`):

* ``policy.decide`` — one scheduling decision: ``policy`` (kind), ``rank``,
  ``shot`` (0-based decision ordinal), ``at`` (the chosen time); interval
  policies add ``interval``/``lo``/``hi``.
* ``policy.adapt`` — an adaptive policy changed its interval: ``policy``,
  ``rank``, ``direction`` (``narrow``/``widen``), ``interval`` (the new
  value), ``lo``/``hi`` (the clamp), ``cause`` (``fault``/``quiet``/
  ``pressure``) and ``observed`` (what triggered it).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from ..core.errors import SimulationError

__all__ = [
    "CheckpointPolicy",
    "FixedTimes",
    "Periodic",
    "PhaseTriggered",
    "FailureRateAdaptive",
    "StoragePressure",
    "POLICY_KINDS",
    "policy_spec",
    "build_policy",
]


class CheckpointPolicy:
    """Decides when each rank takes its next checkpoint.

    Time-driven policies answer :meth:`next_time`; point-driven policies
    (``point_driven = True``) answer :meth:`on_point` instead and the
    schemes skip their timer/initiator daemons entirely.
    """

    kind = "abstract"
    #: True: cuts are triggered from application checkpoint points, not
    #: from a timer (``next_time`` is never consulted).
    point_driven = False
    #: interval clamp advertised in ``policy.decide`` events (None for
    #: policies without a notion of interval, e.g. an explicit schedule).
    lo: Optional[float] = None
    hi: Optional[float] = None

    def __init__(self) -> None:
        #: per-rank memo of every decision: ``{rank: {shot: time|None}}``.
        #: Replayed verbatim on resume so decisions happen exactly once.
        self._memo: Dict[int, Dict[int, Optional[float]]] = {}

    # -- the decision surface ------------------------------------------------

    def next_time(self, runtime: Any, rank: int, shot: int) -> Optional[float]:
        """The simulated time of *rank*'s checkpoint number *shot* (0-based),
        or None when the schedule is exhausted. Idempotent per (rank, shot):
        repeated calls (resume replay) return the memoised decision with no
        side effects."""
        memo = self._memo.setdefault(rank, {})
        if shot in memo:
            return memo[shot]
        t = self._decide(runtime, rank, shot)
        memo[shot] = t
        if t is not None:
            fields = self._decide_fields()
            runtime.tracer.event(
                "policy.decide",
                policy=self.kind,
                rank=rank,
                shot=shot,
                at=t,
                **fields,
            )
            runtime.tracer.add("policy.decisions")
            if "interval" in fields:
                runtime.tracer.add("policy.interval_sum", fields["interval"])
        return t

    def on_point(self, runtime: Any, rank: int) -> bool:
        """Point-driven hook: should the checkpoint point *rank* just
        reached trigger a cut? (Only consulted when ``point_driven``.)"""
        return False

    # -- subclass surface ----------------------------------------------------

    def _decide(self, runtime: Any, rank: int, shot: int) -> Optional[float]:
        raise NotImplementedError

    def _decide_fields(self) -> Dict[str, Any]:
        """Extra ``policy.decide`` payload (interval policies report the
        chosen spacing and its clamp)."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__}>"


class FixedTimes(CheckpointPolicy):
    """The legacy behaviour: an explicit, pre-computed schedule.

    Wrapping a scheme's ``times`` list in this policy reproduces the old
    fixed-interval runs exactly (same checkpoint times, same RNG draws).
    """

    kind = "fixed"

    def __init__(self, times: Sequence[float]) -> None:
        super().__init__()
        self.times = tuple(sorted(float(t) for t in times))

    def _decide(self, runtime: Any, rank: int, shot: int) -> Optional[float]:
        if shot >= len(self.times):
            return None
        return self.times[shot]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<FixedTimes n={len(self.times)}>"


class Periodic(CheckpointPolicy):
    """A fixed interval, open-ended (or bounded by *stop*)."""

    kind = "periodic"

    def __init__(
        self,
        interval: float,
        start: Optional[float] = None,
        stop: Optional[float] = None,
    ) -> None:
        super().__init__()
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        self.interval = float(interval)
        self.start = float(start) if start is not None else self.interval
        self.stop = float(stop) if stop is not None else None
        self.lo = self.hi = self.interval
        self._prev: Dict[int, float] = {}

    def _decide(self, runtime: Any, rank: int, shot: int) -> Optional[float]:
        prev = self._prev.get(rank)
        t = self.start if prev is None else prev + self.interval
        if self.stop is not None and t > self.stop:
            return None
        self._prev[rank] = t
        return t

    def _decide_fields(self) -> Dict[str, Any]:
        return {"interval": self.interval, "lo": self.lo, "hi": self.hi}


class PhaseTriggered(CheckpointPolicy):
    """Cut at application phase boundaries: every *every*-th checkpoint
    point a rank reaches triggers a cut there (no timers at all)."""

    kind = "phase"
    point_driven = True

    def __init__(self, every: int = 1) -> None:
        super().__init__()
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every!r}")
        self.every = int(every)
        self._points: Dict[int, int] = {}
        self._shots: Dict[int, int] = {}

    def _decide(self, runtime: Any, rank: int, shot: int) -> Optional[float]:
        return None  # never time-driven

    def on_point(self, runtime: Any, rank: int) -> bool:
        count = self._points.get(rank, 0) + 1
        self._points[rank] = count
        if count % self.every != 0:
            return False
        shot = self._shots.get(rank, 0)
        self._shots[rank] = shot + 1
        runtime.tracer.event(
            "policy.decide",
            policy=self.kind,
            rank=rank,
            shot=shot,
            at=runtime.engine.now,
        )
        runtime.tracer.add("policy.decisions")
        return True


class _AdaptiveInterval(CheckpointPolicy):
    """Shared machinery: an interval clamped to [lo, hi], adapted per
    decision, with the next shot scheduled one interval ahead."""

    def __init__(
        self, base_interval: float, lo: float, hi: float, stop: Optional[float]
    ) -> None:
        super().__init__()
        if base_interval <= 0:
            raise ValueError(
                f"base_interval must be positive, got {base_interval!r}"
            )
        if not (0 < lo <= base_interval <= hi):
            raise ValueError(
                f"need 0 < lo <= base <= hi, got lo={lo!r} "
                f"base={base_interval!r} hi={hi!r}"
            )
        self.base_interval = float(base_interval)
        self.lo = float(lo)
        self.hi = float(hi)
        self.stop = float(stop) if stop is not None else None
        self._interval = self.base_interval
        self._prev: Dict[int, float] = {}

    def _adapt(
        self, runtime: Any, rank: int, new: float, cause: str, observed: Any
    ) -> None:
        new = min(self.hi, max(self.lo, new))
        if new == self._interval:
            return
        direction = "narrow" if new < self._interval else "widen"
        self._interval = new
        runtime.tracer.event(
            "policy.adapt",
            policy=self.kind,
            rank=rank,
            direction=direction,
            interval=new,
            lo=self.lo,
            hi=self.hi,
            cause=cause,
            observed=observed,
        )
        runtime.tracer.add(f"policy.{direction}ings")

    def _decide(self, runtime: Any, rank: int, shot: int) -> Optional[float]:
        self._observe(runtime, rank)
        t = max(self._prev.get(rank, 0.0), runtime.engine.now) + self._interval
        if self.stop is not None and t > self.stop:
            return None
        self._prev[rank] = t
        return t

    def _decide_fields(self) -> Dict[str, Any]:
        return {"interval": self._interval, "lo": self.lo, "hi": self.hi}

    def _observe(self, runtime: Any, rank: int) -> None:
        raise NotImplementedError


class FailureRateAdaptive(_AdaptiveInterval):
    """Checkpoint more often while failures are being observed.

    Each decision diffs the runtime's recovery count and injected storage
    faults against what it last saw: new activity multiplies the interval
    by *narrow* (clamped to *lo*); *quiet_shots* consecutive quiet
    decisions multiply it by *widen* (clamped to *hi*). The classic
    failure-rate feedback loop, applied to the paper's schemes.
    """

    kind = "failure_adaptive"

    def __init__(
        self,
        base_interval: float,
        min_interval: Optional[float] = None,
        max_interval: Optional[float] = None,
        narrow: float = 0.5,
        widen: float = 1.5,
        quiet_shots: int = 2,
        stop: Optional[float] = None,
    ) -> None:
        lo = float(min_interval) if min_interval is not None else base_interval / 4.0
        hi = float(max_interval) if max_interval is not None else base_interval * 4.0
        super().__init__(base_interval, lo, hi, stop)
        if not (0.0 < narrow < 1.0):
            raise ValueError(f"narrow must be in (0, 1), got {narrow!r}")
        if widen <= 1.0:
            raise ValueError(f"widen must be > 1, got {widen!r}")
        if quiet_shots < 1:
            raise ValueError(f"quiet_shots must be >= 1, got {quiet_shots!r}")
        self.narrow = float(narrow)
        self.widen = float(widen)
        self.quiet_shots = int(quiet_shots)
        self._seen_recoveries = 0
        self._seen_faults = 0
        self._quiet = 0

    def _observe(self, runtime: Any, rank: int) -> None:
        recoveries = len(runtime.recoveries)
        tracer = runtime.tracer
        faults = int(
            tracer.get("storage.write_faults") + tracer.get("storage.read_faults")
        )
        observed = (recoveries - self._seen_recoveries) + (
            faults - self._seen_faults
        )
        self._seen_recoveries = recoveries
        self._seen_faults = faults
        if observed > 0:
            self._quiet = 0
            self._adapt(
                runtime, rank, self._interval * self.narrow, "fault", observed
            )
        else:
            self._quiet += 1
            if self._quiet >= self.quiet_shots and self._interval < self.hi:
                self._quiet = 0
                self._adapt(
                    runtime, rank, self._interval * self.widen, "quiet", 0
                )


class StoragePressure(_AdaptiveInterval):
    """Checkpoint less often as stable storage fills toward a budget.

    The interval scales with occupancy: at or below *budget_bytes* the base
    interval holds; past it the interval stretches proportionally (clamped
    to *hi*) — trading recovery distance for storage headroom, the pressure
    valve independent checkpointing needs when GC lags.
    """

    kind = "storage_pressure"

    def __init__(
        self,
        base_interval: float,
        budget_bytes: float,
        max_interval: Optional[float] = None,
        stop: Optional[float] = None,
    ) -> None:
        hi = float(max_interval) if max_interval is not None else base_interval * 8.0
        super().__init__(base_interval, base_interval, hi, stop)
        if budget_bytes <= 0:
            raise ValueError(f"budget_bytes must be positive, got {budget_bytes!r}")
        self.budget_bytes = float(budget_bytes)

    def _observe(self, runtime: Any, rank: int) -> None:
        pressure = runtime.store.total_bytes() / self.budget_bytes
        target = self.base_interval * max(1.0, pressure)
        self._adapt(runtime, rank, target, "pressure", round(pressure, 6))


# -- declarative construction (the experiment grid's policy config) -----------

POLICY_KINDS = {
    "fixed": FixedTimes,
    "periodic": Periodic,
    "phase": PhaseTriggered,
    "failure_adaptive": FailureRateAdaptive,
    "storage_pressure": StoragePressure,
}


def policy_spec(kind: str, **options: Any) -> Tuple[str, Tuple[Tuple[str, Any], ...]]:
    """The canonical (hashable, cache-key-stable) form of a policy config:
    ``(kind, ((option, value), ...))`` with options sorted and sequence
    values normalised to tuples."""
    if kind not in POLICY_KINDS:
        raise SimulationError(
            f"unknown policy kind {kind!r} (have: {sorted(POLICY_KINDS)})"
        )
    normalised = tuple(
        (k, tuple(v) if isinstance(v, (list, tuple)) else v)
        for k, v in sorted(options.items())
    )
    return (kind, normalised)


def build_policy(spec: Tuple[str, Tuple[Tuple[str, Any], ...]]) -> CheckpointPolicy:
    """Instantiate a policy from its :func:`policy_spec` form."""
    kind, options = spec
    if kind not in POLICY_KINDS:
        raise SimulationError(
            f"unknown policy kind {kind!r} (have: {sorted(POLICY_KINDS)})"
        )
    return POLICY_KINDS[kind](**dict(options))
