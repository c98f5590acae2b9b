"""Mutation tests: deliberately-broken schemes must be caught by the
trace invariant engine.

Each mutation subclasses a real scheme and re-runs a small application;
the recorded event stream is then audited with ``check_runtime``. The
liveness-style mutations (dropped ack, skipped token hand-off) wedge the
protocol rather than corrupt state, so they are caught by the model
checker instead — see ``test_model_checker.py``.
"""

import operator

import pytest

from repro.apps.base import Application
from repro.chklib import (
    CheckpointRuntime,
    CICScheme,
    CoordinatedScheme,
    FaultModel,
    IndependentScheme,
)
from repro.chklib.schemes.coordinated import CTL_COMMIT
from repro.chklib.schemes.msglog import MessageLoggingScheme
from repro.core.errors import VerificationError
from repro.machine import MachineParams
from repro.net.collectives import reduce
from repro.net.message import KIND_CONTROL
from repro.verify import check_runtime, verified


class Ring(Application):
    """N-rank ring exchanger with per-iteration checkpoint points."""

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
            msg = yield from ctx.comm.recv(source=left, tag=1)
            state["acc"] += msg.payload
            yield from ctx.compute(self.flops)
            state["iter"] += 1
            yield from ctx.checkpoint_point()
        total = yield from reduce(ctx.comm, state["acc"], operator.add, root=0)
        return total if ctx.rank == 0 else None


MACHINE3 = MachineParams(n_nodes=3)


def _run(scheme=None, machine=MACHINE3):
    rt = CheckpointRuntime(Ring(), scheme=scheme, machine=machine, seed=1)
    rt.run()
    return rt


def _times(machine=MACHINE3):
    base = _run(machine=machine)
    return [base.engine.now / 3, base.engine.now * 2 / 3]


# -- mutation: commit before all votes ----------------------------------------


class CommitEarly(CoordinatedScheme):
    """BUG: the coordinator broadcasts COMMIT at quorum N-1, one vote
    short — a crashed straggler whose write never landed would be
    'committed' on recovery with nothing on stable storage."""

    def _on_ack(self, agent_at_coord, src, n):
        rt = agent_at_coord.runtime
        if n in self._aborted:
            return
        acks = self._acks.setdefault(n, set())
        acks.add(src)
        if len(acks) < rt.n_ranks - 1:  # BUG: should be rt.n_ranks
            return
        self._acks.pop(n, None)
        rt.tracer.event("proto.commit", round=n, acks=tuple(sorted(acks)))
        comm = rt.comms[self.coordinator_rank]
        for dst in range(rt.n_ranks):
            if dst != self.coordinator_rank:
                rt.spawn(
                    comm.send_control(dst, KIND_CONTROL, type=CTL_COMMIT, n=n),
                    name=f"commit:{n}->{dst}",
                )
        self._apply_commit(rt.agents[self.coordinator_rank], n)


def test_commit_before_all_votes_is_flagged():
    rt = _run(scheme=CommitEarly.NB(_times()))
    report = check_runtime(rt)
    assert not report.ok
    assert any(
        v.invariant == "coordinated_two_phase" and "committed with acks" in v.message
        for v in report.violations
    )


def test_commit_before_all_votes_raises_under_verified():
    times = _times()
    with verified():
        with pytest.raises(VerificationError):
            _run(scheme=CommitEarly.NB(times))


# -- mutation: broken staggering (token ignored) ------------------------------


class NoTokenWait(CoordinatedScheme):
    """BUG: background writers start immediately instead of waiting for
    the staggering token — concurrent writes hammer the storage path the
    token ring exists to serialise."""

    def write_gate(self, agent, rnd):
        return None  # BUG: skip the token wait


def test_skipped_token_wait_breaks_write_mutex():
    rt = _run(scheme=NoTokenWait.NBMS(_times()))
    report = check_runtime(rt)
    assert not report.ok
    assert any(
        v.invariant == "staggered_write_mutex" for v in report.violations
    )


def test_shipped_nbms_write_mutex_holds():
    rt = _run(scheme=CoordinatedScheme.NBMS(_times()))
    report = check_runtime(rt)
    assert report.ok, report.violations


# -- mutation: GC eats a live checkpoint --------------------------------------


class GreedyGc(IndependentScheme):
    """BUG: the 'space reclamation' pass discards the recovery-line member
    itself (each rank's newest checkpoint) instead of what lies behind it."""

    def _write_finished(self, agent, job):
        super()._write_finished(agent, job)
        rt = agent.runtime
        latest = {r: rt.store.latest_index(r) for r in range(rt.n_ranks)}
        rt.tracer.event(
            "gc.run",
            line=tuple(sorted(latest.items())),
            protected=tuple(
                (r, (i,) if i else ()) for r, i in sorted(latest.items())
            ),
        )
        idx = latest[agent.rank]
        if idx:
            rt.tracer.event("gc.discard", rank=agent.rank, index=idx)
            rt.store.discard(agent.rank, idx)  # BUG: that's the line member


def test_gc_of_live_checkpoint_is_flagged():
    scheme = GreedyGc(_times(), name="indep_greedy", logging=True)
    rt = _run(scheme=scheme)
    report = check_runtime(rt)
    assert not report.ok
    assert any(
        v.invariant == "gc_line_safety" and "protected" in v.message
        for v in report.violations
    )


def test_shipped_gc_is_line_safe():
    scheme = IndependentScheme(_times(), name="indep_gc", logging=True, gc=True)
    rt = _run(scheme=scheme)
    report = check_runtime(rt)
    assert report.ok, report.violations


# -- mutation: CIC receiver ignores the index rule ----------------------------


class CicSkipForced(CICScheme):
    """BUG: a higher piggybacked index no longer forces (or promotes) a
    checkpoint — the receiver's interval can depend on an interval the
    sender may roll away, exactly what CIC exists to prevent."""

    def on_app_deliver(self, agent, msg):
        pass  # BUG: index rule ignored


def _cic_setup():
    base = _run()
    T = base.engine.now
    return [T / 3, 2 * T / 3], T / 10


def test_skipped_forced_checkpoint_is_flagged():
    times, skew = _cic_setup()
    rt = _run(scheme=CicSkipForced.BCS(times, skew=skew))
    report = check_runtime(rt)
    assert not report.ok
    assert any(
        v.invariant == "cic_index_rule" for v in report.violations
    )


def test_shipped_cic_index_rule_holds():
    times, skew = _cic_setup()
    for make in (CICScheme.BCS, CICScheme.FDAS):
        rt = _run(scheme=make(times, skew=skew))
        report = check_runtime(rt)
        assert report.ok, report.violations


# -- mutation: msglog recovery rolls back too far ------------------------------


class MlogDeepRollback(MessageLoggingScheme):
    """BUG: recovery ignores the stable logs and restores each rank's
    *oldest* committed checkpoint — a domino-style deep rollback the
    logging scheme's whole point is to make unnecessary."""

    def recovery_line(self, runtime):
        line = super().recovery_line(runtime)
        for rank in line:
            eligible = [
                rec
                for rec in runtime.store.chain(rank)
                if rec.committed and not rec.quarantined
            ]
            if eligible:
                line[rank] = eligible[0]  # BUG: oldest, not newest
        return line


def _mlog_run(cls):
    times, skew = _cic_setup()
    T = times[-1] * 1.5
    rt = CheckpointRuntime(
        Ring(),
        scheme=cls.Mlog(times, skew=skew),
        machine=MACHINE3,
        seed=1,
        fault_model=FaultModel.machine_crash(0.8 * T),
    )
    rt.run()
    return rt


def test_deep_rollback_past_logs_is_flagged():
    rt = _mlog_run(MlogDeepRollback)
    report = check_runtime(rt)
    assert not report.ok
    assert any(
        v.invariant == "msglog_replay_bounds"
        and "newest stable checkpoint" in v.message
        for v in report.violations
    )


def test_shipped_msglog_replay_bounds_hold():
    rt = _mlog_run(MessageLoggingScheme)
    report = check_runtime(rt)
    assert report.ok, report.violations
