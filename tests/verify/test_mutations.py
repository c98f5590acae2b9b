"""Mutation tests: deliberately-broken schemes must be caught.

Each mutation subclasses a real scheme. The single-run tests audit one
recorded event stream with ``check_runtime``; ``test_explorer_catches``
hands every mutation to the schedule explorer (``repro.verify model``),
which also catches the liveness bugs — a dropped ack, an ignored abort —
by draining each run to quiescence.
"""

from functools import partial

import pytest

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
from repro.core.tracing import TraceEvent
from repro.experiments.harness import INDEP_SKEW_FRACTION
from repro.machine import MachineParams
from repro.net.message import KIND_CONTROL
from repro.verify import check_runtime, verified
from repro.verify import explorer
from repro.verify.explorer import Ring, explore
from repro.verify.smoke import SMOKE_SCHEMES, make_smoke_scheme


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


# -- the schedule explorer: every mutation is caught, every scheme clean ------


class AckBeforeWrite(CoordinatedScheme):
    """BUG: a rank acks once its markers are in, without waiting for its
    stable write — the coordinator can commit a record nobody stored."""

    def _maybe_ack(self, agent, rnd):
        rnd.write_done = True  # BUG: the write has not ended
        super()._maybe_ack(agent, rnd)


class DropAck(CoordinatedScheme):
    """BUG: rank 1's ack is lost on its way to the coordinator, so the
    round is never decided."""

    def _on_ack(self, agent_at_coord, src, n):
        if src != 1:  # BUG
            super()._on_ack(agent_at_coord, src, n)


class IgnoreAbort(CoordinatedScheme):
    """BUG: the coordinator drops abort votes — a round whose write
    failed is never decided."""

    def _on_abort(self, agent_at_coord, n):
        pass  # BUG: no abort decision


class CommitOnAbort(CoordinatedScheme):
    """BUG: the coordinator answers an abort vote with a commit."""

    def _on_abort(self, agent_at_coord, n):
        rt = agent_at_coord.runtime
        acks = self._acks.pop(n, set())
        rt.tracer.event("proto.commit", round=n, acks=tuple(sorted(acks)))
        comm = rt.comms[self.coordinator_rank]
        for dst in range(rt.n_ranks):
            if dst != self.coordinator_rank:
                rt.spawn(
                    comm.send_control(dst, KIND_CONTROL, type=CTL_COMMIT, n=n),
                    name=f"commit:{n}->{dst}",
                )
        self._apply_commit(agent_at_coord, n)


class SkipTokenHop(CoordinatedScheme):
    """BUG: rank 2 drops the staggering token, so its background write
    (and every write behind it on the ring) waits forever."""

    def _on_token(self, agent, n):
        if agent.rank != 2:  # BUG
            super()._on_token(agent, n)


class SkipLog(MessageLoggingScheme):
    """BUG: sends skip the synchronous log write, so receivers depend on
    messages that are logged only in the sender's volatile memory."""

    def send_extra(self, agent, msg):
        return None  # BUG


class OutOfOrderReplay(MessageLoggingScheme):
    """BUG: recovery replays each channel's logged suffix newest first:
    the oldest replayed sequence number carries the newest payload."""

    def replay_messages(self, runtime, line):
        logged = super().replay_messages(runtime, line)
        replayed = []
        for msg in logged:
            chan = [m for m in logged if (m.src, m.dst) == (msg.src, msg.dst)]
            clone = msg.shell_copy()
            clone.payload = chan[-1 - chan.index(msg)].payload  # BUG
            replayed.append(clone)
        return replayed


def _skew(interval):
    return INDEP_SKEW_FRACTION * interval


#: mutation -> (scheme factory, text its first finding contains)
MUTATIONS = {
    "commit_early": (lambda t, i: CommitEarly.NB(t), "committed with acks"),
    "no_token_wait": (lambda t, i: NoTokenWait.NBMS(t), "staggered_write_mutex"),
    "skip_token_hop": (lambda t, i: SkipTokenHop.NBMS(t), "not quiescent"),
    "cic_skip_forced": (
        lambda t, i: CicSkipForced.BCS(t, skew=_skew(i)),
        "cic_index_rule",
    ),
    "ack_before_write": (
        lambda t, i: AckBeforeWrite.NBM(t),
        "before its write ended",
    ),
    "drop_ack": (lambda t, i: DropAck.NB(t), "every rank acked but no decision"),
    "ignore_abort": (lambda t, i: IgnoreAbort.NB(t), "abort vote but no decision"),
    "commit_on_abort": (
        lambda t, i: CommitOnAbort.NB(t),
        "committed after abort vote",
    ),
    "skip_log": (
        lambda t, i: SkipLog.Mlog(t, skew=_skew(i)),
        "delivered before its log record",
    ),
    "out_of_order_replay": (
        lambda t, i: OutOfOrderReplay.Mlog(t, skew=_skew(i)),
        "crash-free run",
    ),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_explorer_catches(mutation):
    make, text = MUTATIONS[mutation]
    result = explore(make, 3)
    assert not result.ok, result.summary()
    assert result.schedule
    assert any(text in v for v in result.violations), result.violations


@pytest.mark.parametrize("name", SMOKE_SCHEMES)
def test_explorer_finds_shipped_scheme_clean(name):
    result = explore(partial(make_smoke_scheme, name), 3)
    assert result.ok, (result.schedule, result.violations)
    assert result.runs > 1 and result.projections > 1


def test_explorer_turns_random_past_its_budget(monkeypatch):
    monkeypatch.setattr(explorer, "BUDGET", 3)
    monkeypatch.setattr(explorer, "RANDOM_RUNS", 2)
    result = explore(partial(make_smoke_scheme, "coord_nb"), 2)
    assert result.ok and not result.complete
    assert result.runs == 5
    assert result.summary().endswith("(budgeted)")


def test_explorer_completes_a_small_choice_space(monkeypatch):
    # no transfer delays: only the crash instant and the failing write vary
    monkeypatch.setattr(explorer, "EXTRA_DELAYS", (0.0,))
    result = explore(partial(make_smoke_scheme, "coord_nbms"), 2)
    assert result.ok and result.complete, result.summary()
    assert 1 < result.runs < explorer.BUDGET
    assert result.summary().endswith("(complete)")


def test_undecided_rounds_of_the_last_generation_are_reported():
    def ev(kind, **fields):
        return TraceEvent(0.0, kind, fields)

    events = [
        ev("proto.ack", rank=0, round=1),
        ev("proto.ack", rank=1, round=1),  # round 1: all acked, undecided
        ev("recover.line", gen=1),
        ev("proto.ack", rank=0, round=2),
        ev("proto.ack", rank=1, round=2),
        ev("proto.abort_report", rank=1, round=3),
        ev("proto.ack", rank=0, round=4),  # one ack short: still open
        ev("proto.ack", rank=0, round=5),
        ev("proto.ack", rank=1, round=5),
        ev("proto.commit", round=5, acks=(0, 1)),
    ]
    assert explorer._undecided(events, 2) == [
        "round 2: every rank acked but no decision",
        "round 3: abort vote but no decision",
    ]
