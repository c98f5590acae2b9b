"""Schedule exploration of the real checkpoint protocols.

The ``model`` layer of ``python -m repro.verify``: the schemes the
simulator measures run in a :class:`~repro.chklib.runtime.CheckpointRuntime`
through one checkpoint round of :class:`Ring` under chosen schedules. A
schedule is the choices one run makes, in call order: a machine crash
(none, or midway between two distinct ``proto.*`` event times of the
default run), a storage-write failure (none, or the k-th write, with no
retries) and, per wire transfer, an extra delay from :data:`EXTRA_DELAYS`,
added by wrapping that runtime's ``cluster.message_time``, which every
transfer calls once.

The default schedule chooses 0 everywhere. Prefixes run in order of how
many choices they change, each child changing one more choice past its
parent's prefix; a run is expanded only if its projection, the ordered
``proto.*`` and ``msg.deliver`` events, is new. Past :data:`BUDGET` runs,
:data:`RANDOM_RUNS` schedules follow, drawn from seeded
:class:`~repro.core.rng.RngStreams`. The first violating schedule ends
the search.

A run violates when it raises, when its trace fails a checker, when its
result differs from the crash-free run's, or when it is not quiescent: a
:class:`~repro.core.errors.Deadlock` while draining the engine after
``run()``, or a round of the last generation that every rank acked, or
that got an abort vote, with no decision.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator, List, Sequence, Tuple

from ..apps.base import Application
from ..chklib.runtime import CheckpointRuntime
from ..core.errors import Deadlock
from ..core.rng import RngStreams
from ..fault.model import FaultModel, StorageFaultSpec
from ..machine.params import MachineParams
from ..net.collectives import reduce
from .trace_check import check_runtime

__all__ = ["Ring", "Exploration", "explore"]

#: a wire transfer's extra delay: none, ε (reorders transfers that land
#: together) and Δ (about a ring iteration: passes protocol phases).
EXTRA_DELAYS = (0.0, 1e-6, 5e-3)
#: systematic runs per scheme and size before the search turns random.
BUDGET = 200
#: seeded random schedules run once the budget is spent.
RANDOM_RUNS = 40


class Ring(Application):
    """N-rank ring exchanger with per-iteration checkpoint points. Each
    rank folds what it receives in order, so a replay that reorders a
    channel changes the result."""

    name = "ring"
    image_bytes = 8 * 1024

    def __init__(self, iters=40, flops=50_000.0):
        self.iters = iters
        self.flops = flops

    def make_state(self, rank, size, seed):
        return {"iter": 0, "acc": 0}

    def run(self, ctx, state):
        right = (ctx.rank + 1) % ctx.size
        left = (ctx.rank - 1) % ctx.size
        while state["iter"] < self.iters:
            yield from ctx.comm.send(right, state["iter"], tag=1)
            msg = yield ctx.comm.recv(source=left, tag=1)
            state["acc"] = (state["acc"] * 31 + msg.payload) % 1_000_003
            yield from ctx.compute(self.flops)
            state["iter"] += 1
            yield from ctx.checkpoint_point()
        total = yield from reduce(ctx.comm, state["acc"], operator.add, root=0)
        return total if ctx.rank == 0 else None


#: the explored workload: its checkpoint round spans a few iterations
APP = Ring(iters=12, flops=10_000.0)


@dataclass
class Exploration:
    """What exploring one scheme at one size found."""

    scheme: str
    n_ranks: int
    runs: int = 0
    projections: int = 0
    #: every new projection was expanded before the budget ran out
    complete: bool = False
    #: the first violating schedule and what it broke (empty = clean)
    schedule: str = ""
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        search = "complete" if self.complete else "budgeted" if self.ok else "stopped"
        return (
            f"{status}: {self.runs} runs, {self.projections} distinct "
            f"projections ({search})"
        )


class _Chooser:
    """Replays a prefix of choices, then takes the default (or draws);
    records every choice made and how many there were."""

    def __init__(self, prefix: Sequence[int] = (), rng: Any = None) -> None:
        self.prefix = prefix
        self.rng = rng
        self.made: List[int] = []
        self.arity: List[int] = []

    def __call__(self, arity: int) -> int:
        i = len(self.made)
        if i < len(self.prefix):
            choice = self.prefix[i]
        else:
            choice = int(self.rng.integers(arity)) if self.rng is not None else 0
        self.made.append(choice)
        self.arity.append(arity)
        return choice


@dataclass(frozen=True)
class _Plan:
    """The fixed part of the choice space, read off the default run."""

    interval: float  #: the time of the one checkpoint round
    expected: Any  #: the application result of the crash-free run
    crashes: Tuple[float, ...] = ()
    writes: int = 0

    def describe(self, schedule: Sequence[int]) -> str:
        crash, fail, *delays = schedule
        moved = " ".join(
            f"#{i}+{('0', 'eps', 'Delta')[c]}" for i, c in enumerate(delays) if c
        )
        return (
            (f"crash at t={self.crashes[crash - 1]:.6f}" if crash else "no crash")
            + (f"; write #{fail} fails" if fail else "; no write fails")
            + f"; transfer delays {moved or 'none'}"
        )


def _undecided(events, n_ranks: int) -> List[str]:
    """Rounds of the last generation that every rank acked, or that got
    an abort vote, but that no commit or abort decision closed."""
    start = max(
        (i for i, ev in enumerate(events) if ev.kind == "recover.line"), default=-1
    )
    acks: dict = {}
    votes, decided = set(), set()
    for ev in events[start + 1 :]:
        if ev.kind == "proto.ack":
            acks.setdefault(ev["round"], set()).add(ev["rank"])
        elif ev.kind == "proto.abort_report":
            votes.add(ev["round"])
        elif ev.kind in ("proto.commit", "proto.abort"):
            decided.add(ev["round"])
    return [
        f"round {n}: every rank acked but no decision"
        for n, who in sorted(acks.items())
        if len(who) == n_ranks and n not in decided
    ] + [f"round {n}: abort vote but no decision" for n in sorted(votes - decided)]


def _projection(events) -> tuple:
    return tuple(
        (ev.kind, tuple(sorted(ev.fields.items())))
        for ev in events
        if ev.kind.startswith("proto.") or ev.kind == "msg.deliver"
    )


def _children(queue: deque) -> Iterator[_Chooser]:
    """Breadth-first over *queue*: each parent's prefixes that change one
    more choice, past the parent's own prefix."""
    while queue:
        parent = queue.popleft()
        for pos in range(len(parent.prefix), len(parent.made)):
            for alt in range(1, parent.arity[pos]):
                yield _Chooser(parent.made[:pos] + [alt])


def explore(
    make_scheme: Callable[[List[float], float], Any], n_ranks: int
) -> Exploration:
    """Explore schedules of the scheme ``make_scheme(times, interval)``
    builds, on an *n_ranks* ring with one checkpoint round."""
    machine = MachineParams(n_nodes=n_ranks)
    normal = CheckpointRuntime(APP, machine=machine).run()
    plan = _Plan(interval=normal.sim_time / 2, expected=normal.result)

    def run(choose: _Chooser):
        crash = choose(1 + len(plan.crashes))
        fail = choose(1 + plan.writes)
        fault = FaultModel(
            machine_crash_times=(plan.crashes[crash - 1],) if crash else (),
            storage=StorageFaultSpec(fail_writes_at=(fail,) if fail else ()),
            max_retries=0,
        )
        scheme = make_scheme([plan.interval], plan.interval)
        rt = CheckpointRuntime(APP, scheme=scheme, machine=machine, fault_model=fault)
        wire_time = rt.cluster.message_time
        rt.cluster.message_time = lambda nbytes, src=None, dst=None: (
            wire_time(nbytes, src, dst) + EXTRA_DELAYS[choose(len(EXTRA_DELAYS))]
        )
        found: List[str] = []
        try:
            result = rt.run().result
            if result != plan.expected:
                found.append(f"result {result!r}, crash-free run {plan.expected!r}")
            rt.engine.run()  # drain to quiescence
        except Deadlock as exc:
            found.append(f"not quiescent: {exc}")
        except Exception as exc:  # any exception is a finding, not a crash
            found.append(f"raised {type(exc).__name__}: {exc}")
        found += [f"[{v.invariant}] {v.message}" for v in check_runtime(rt).violations]
        return rt, found + _undecided(rt.tracer.events, n_ranks)

    # the default schedule fixes the crash instants and the write count
    root = _Chooser()
    rt, found = run(root)
    events = rt.tracer.events
    instants = sorted({ev.time for ev in events if ev.kind.startswith("proto.")})
    plan = replace(
        plan,
        crashes=tuple((a + b) / 2 for a, b in zip(instants, instants[1:])),
        writes=int(rt.tracer.counters.get("storage.write_ops", 0)),
    )
    root.arity[:2] = [1 + len(plan.crashes), 1 + plan.writes]
    outcome = Exploration(scheme=rt.scheme.name, n_ranks=n_ranks)
    seen: set = set()

    def record(choose: _Chooser, rt, found: List[str]) -> bool:
        """Count one run; whether it is clean with a new projection."""
        outcome.runs += 1
        projection = _projection(rt.tracer.events)
        new = projection not in seen
        seen.add(projection)
        outcome.projections = len(seen)
        if found:
            outcome.schedule = plan.describe(choose.made)
            outcome.violations = found
        return new and not found

    queue = deque([root] if record(root, rt, found) else [])
    for child in _children(queue):
        if outcome.runs >= BUDGET:
            break
        if record(child, *run(child)):
            queue.append(child)
        if not outcome.ok:
            return outcome
    else:
        outcome.complete = outcome.ok
        return outcome
    streams = RngStreams(0)
    for i in range(RANDOM_RUNS):
        choose = _Chooser(rng=streams.get(f"explore:{outcome.scheme}:n{n_ranks}:{i}"))
        record(choose, *run(choose))
        if not outcome.ok:
            break
    return outcome
