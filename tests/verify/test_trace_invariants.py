"""Unit tests for the trace invariant engine on synthetic event streams,
plus clean-run audits of real simulations."""

import pytest

from repro.chklib import CheckpointRuntime, CoordinatedScheme, FaultModel, IndependentScheme
from repro.core.errors import VerificationError
from repro.core.tracing import TraceEvent
from repro.machine import MachineParams
from repro.verify import (
    RunMeta,
    check_runtime,
    check_trace,
    meta_for_runtime,
    runtime_verification_enabled,
    set_runtime_verification,
    verified,
)

COORD = RunMeta(n_ranks=2, scheme="coord_nb", klass="coordinated")
INDEP = RunMeta(n_ranks=2, scheme="indep", klass="independent")


def _ev(time, kind, **fields):
    return TraceEvent(time, kind, fields)


def _names(report):
    return {v.invariant for v in report.violations}


# -- per-checker synthetic streams --------------------------------------------


def test_clean_synthetic_trace_passes():
    events = [
        _ev(0.1, "msg.send", src=0, dst=1, seq=1, epoch=0, gen=0),
        _ev(0.2, "msg.deliver", src=0, dst=1, seq=1, epoch=0, gen=0),
        _ev(0.3, "proto.cut", rank=0, round=1, scheme="coord_nb"),
    ]
    report = check_trace(events, COORD)
    assert report.ok
    assert report.events_checked == 3


def test_monotonic_clock_violation():
    events = [
        _ev(5.0, "proto.cut", rank=0, round=1, scheme="x"),
        _ev(4.0, "proto.cut", rank=1, round=1, scheme="x"),
    ]
    assert "monotonic_clock" in _names(check_trace(events, COORD))


def test_fifo_out_of_order_delivery():
    events = [
        _ev(0.1, "msg.send", src=0, dst=1, seq=1, epoch=0, gen=0),
        _ev(0.2, "msg.send", src=0, dst=1, seq=2, epoch=0, gen=0),
        _ev(0.3, "msg.deliver", src=0, dst=1, seq=2, epoch=0, gen=0),
        _ev(0.4, "msg.deliver", src=0, dst=1, seq=1, epoch=0, gen=0),
    ]
    assert "channel_fifo" in _names(check_trace(events, COORD))


def test_fifo_never_sent_delivery():
    events = [
        _ev(0.1, "msg.deliver", src=0, dst=1, seq=7, epoch=0, gen=0),
    ]
    assert "channel_fifo" in _names(check_trace(events, COORD))


def test_fifo_replay_reuses_old_seq_numbers():
    """Re-injected channel state keeps pre-crash sequence numbers in a new
    generation — that must NOT be a violation."""
    events = [
        _ev(0.1, "msg.send", src=0, dst=1, seq=1, epoch=0, gen=0),
        _ev(0.2, "msg.send", src=0, dst=1, seq=2, epoch=0, gen=0),
        _ev(0.3, "msg.deliver", src=0, dst=1, seq=1, epoch=0, gen=0),
        _ev(0.5, "recover.crash", gen=1),
        _ev(0.5, "recover.line", gen=1, indices=((0, 1), (1, 1)),
            klass="coordinated", logging=False, consistent=True,
            sent=((0, ((1, 2),)), (1, ())), consumed=((0, ()), (1, ((0, 1),)))),
        _ev(0.5, "recover.replay", gen=1, count=1),
        _ev(0.6, "msg.deliver", src=0, dst=1, seq=2, epoch=0, gen=1),
    ]
    assert check_trace(events, COORD).ok


def test_cut_regression_flagged():
    events = [
        _ev(1.0, "proto.cut", rank=0, round=2, scheme="x"),
        _ev(2.0, "proto.cut", rank=0, round=1, scheme="x"),
    ]
    assert "cut_monotonic" in _names(check_trace(events, COORD))


def test_cut_rewind_after_recovery_is_legal():
    events = [
        _ev(1.0, "proto.cut", rank=0, round=2, scheme="x"),
        _ev(2.0, "recover.line", gen=1, indices=((0, 1), (1, 1)),
            klass="coordinated", logging=False, consistent=True,
            sent=((0, ()), (1, ())), consumed=((0, ()), (1, ()))),
        _ev(2.0, "recover.replay", gen=1, count=0),
        _ev(3.0, "proto.cut", rank=0, round=3, scheme="x"),
    ]
    assert check_trace(events, COORD).ok


def test_commit_on_recovery_without_decision_flagged():
    events = [
        _ev(1.0, "proto.commit_on_recovery", rank=1, round=3),
    ]
    assert "coordinated_two_phase" in _names(check_trace(events, COORD))


def _line(time, gen):
    return _ev(time, "recover.line", gen=gen, indices=((0, 1), (1, 1)),
               klass="coordinated", logging=False, consistent=True,
               sent=((0, ()), (1, ())), consumed=((0, ()), (1, ())))


def test_ack_before_write_end_flagged():
    events = [
        _ev(1.0, "proto.ack", rank=1, round=1),
        _ev(2.0, "proto.write_end", rank=1, round=1, ok=True),
    ]
    report = check_trace(events, COORD)
    assert [v.message for v in report.violations] == [
        "rank 1 acked round 1 before its write ended"
    ]


def test_ack_after_ok_write_end_passes():
    events = [
        _ev(1.0, "proto.write_end", rank=1, round=1, ok=True),
        _ev(2.0, "proto.ack", rank=1, round=1),
    ]
    assert check_trace(events, COORD).ok


def test_ack_after_failed_write_end_flagged():
    events = [
        _ev(1.0, "proto.write_end", rank=1, round=1, ok=False),
        _ev(2.0, "proto.ack", rank=1, round=1),
    ]
    assert "coordinated_two_phase" in _names(check_trace(events, COORD))


def test_ack_needs_a_write_since_the_last_recovery():
    # the write ended in generation 0; the ack in generation 1 cites it
    events = [
        _ev(1.0, "proto.write_end", rank=1, round=2, ok=True),
        _line(2.0, gen=1),
        _ev(2.0, "recover.replay", gen=1, count=0),
        _ev(3.0, "proto.ack", rank=1, round=2),
    ]
    assert "coordinated_two_phase" in _names(check_trace(events, COORD))


MLOG = RunMeta(n_ranks=2, scheme="indep_m_mlog", klass="msglog", logging=True)


def test_msglog_delivery_before_log_record_flagged():
    events = [
        _ev(0.1, "msg.send", src=0, dst=1, seq=1, epoch=0, gen=0),
        _ev(0.2, "msg.deliver", src=0, dst=1, seq=1, epoch=0, gen=0),
        _ev(0.3, "proto.mlog.logged", src=0, dst=1, seq=1),
    ]
    assert _names(check_trace(events, MLOG)) == {"msglog_replay_bounds"}


def test_msglog_delivery_after_log_or_degraded_write_passes():
    events = [
        _ev(0.1, "proto.mlog.logged", src=0, dst=1, seq=1),
        _ev(0.1, "msg.send", src=0, dst=1, seq=1, epoch=0, gen=0),
        _ev(0.2, "proto.mlog.degraded", src=0, dst=1, seq=2),
        _ev(0.2, "msg.send", src=0, dst=1, seq=2, epoch=0, gen=0),
        _ev(0.3, "msg.deliver", src=0, dst=1, seq=1, epoch=0, gen=0),
        _ev(0.4, "msg.deliver", src=0, dst=1, seq=2, epoch=0, gen=0),
    ]
    assert check_trace(events, MLOG).ok


def test_family_checkers_audit_only_their_family():
    # an unlogged delivery and an unwritten ack break the msglog and 2PC
    # rules, but an independent run is bound by neither
    events = [
        _ev(0.1, "msg.send", src=0, dst=1, seq=1, epoch=0, gen=0),
        _ev(0.2, "msg.deliver", src=0, dst=1, seq=1, epoch=0, gen=0),
        _ev(0.3, "proto.ack", rank=1, round=1),
    ]
    assert check_trace(events, INDEP).ok
    assert _names(check_trace(events, MLOG)) == {"msglog_replay_bounds"}
    assert _names(check_trace(events, COORD)) == {"coordinated_two_phase"}


def test_unsound_line_flagged_by_runtime_bit():
    events = [
        _ev(1.0, "recover.line", gen=1, indices=((0, 1), (1, 1)),
            klass="independent", logging=False, consistent=False,
            sent=((0, ()), (1, ())), consumed=((0, ()), (1, ()))),
        _ev(1.0, "recover.replay", gen=1, count=0),
    ]
    assert "line_soundness" in _names(check_trace(events, INDEP))


def test_orphan_across_independent_line_flagged():
    # rank 1 consumed 3 messages from rank 0 but the line says only 2 sent
    events = [
        _ev(1.0, "recover.line", gen=1, indices=((0, 2), (1, 2)),
            klass="independent", logging=False, consistent=True,
            sent=((0, ((1, 2),)), (1, ())),
            consumed=((0, ()), (1, ((0, 3),)))),
        _ev(1.0, "recover.replay", gen=1, count=0),
    ]
    assert "line_soundness" in _names(check_trace(events, INDEP))


def test_replay_count_mismatch_flagged():
    # counters imply 2 in transit, but recovery replayed none: lost messages
    events = [
        _ev(1.0, "recover.line", gen=1, indices=((0, 2), (1, 2)),
            klass="independent", logging=True, consistent=True,
            sent=((0, ((1, 5),)), (1, ())),
            consumed=((0, ()), (1, ((0, 3),)))),
        _ev(1.0, "recover.replay", gen=1, count=0),
    ]
    meta = RunMeta(n_ranks=2, scheme="indep_log", klass="independent", logging=True)
    assert "line_soundness" in _names(check_trace(events, meta))


def test_gc_discard_of_protected_checkpoint_flagged():
    events = [
        _ev(1.0, "gc.run", line=((0, 2), (1, 2)),
            protected=((0, (2,)), (1, (2,)))),
        _ev(1.0, "gc.discard", rank=0, index=2),
    ]
    assert "gc_line_safety" in _names(check_trace(events, INDEP))


def test_recovery_using_discarded_checkpoint_flagged():
    events = [
        _ev(1.0, "gc.run", line=((0, 3), (1, 3)),
            protected=((0, (3,)), (1, (3,)))),
        _ev(1.0, "gc.discard", rank=0, index=2),
        _ev(2.0, "recover.line", gen=1, indices=((0, 2), (1, 2)),
            klass="independent", logging=False, consistent=True,
            sent=((0, ()), (1, ())), consumed=((0, ()), (1, ()))),
        _ev(2.0, "recover.replay", gen=1, count=0),
    ]
    assert "gc_line_safety" in _names(check_trace(events, INDEP))


# -- real runs stay clean (including across a crash) --------------------------


MACHINE2 = MachineParams(n_nodes=2)


def _audit(scheme, fault=None):
    from tests.verify.test_mutations import Ring

    rt = CheckpointRuntime(
        Ring(), scheme=scheme, machine=MACHINE2, seed=3, fault_model=fault
    )
    rt.run()
    return rt, check_runtime(rt)


def test_coordinated_run_with_crash_is_clean():
    rt0, _ = _audit(None)
    horizon = rt0.engine.now
    times = [horizon / 3, horizon * 2 / 3]
    rt, report = _audit(
        CoordinatedScheme.NB(times), fault=FaultModel.machine_crash(horizon / 2)
    )
    assert rt.recoveries, "the crash must actually have happened"
    assert report.ok, report.violations


def test_logged_independent_run_with_crash_is_clean():
    rt0, _ = _audit(None)
    horizon = rt0.engine.now
    times = [horizon / 3, horizon * 2 / 3]
    rt, report = _audit(
        IndependentScheme.Indep(times, logging=True),
        fault=FaultModel.machine_crash(horizon / 2),
    )
    assert rt.recoveries
    assert report.ok, report.violations


def test_meta_for_runtime_derives_scheme_facts():
    rt, _ = _audit(CoordinatedScheme.NBMS([1.0]))
    meta = meta_for_runtime(rt)
    assert meta.klass == "coordinated"
    assert meta.staggered is True
    assert meta.n_ranks == 2


def test_verified_context_toggles_and_restores():
    assert not runtime_verification_enabled()
    with verified():
        assert runtime_verification_enabled()
    assert not runtime_verification_enabled()
    set_runtime_verification(False)


def test_verification_error_lists_violations():
    events = [_ev(1.0, "proto.commit_on_recovery", rank=0, round=9)]
    report = check_trace(events, COORD)
    with pytest.raises(VerificationError) as err:
        report.raise_if_violated()
    assert "coordinated_two_phase" in str(err.value)
    assert err.value.violations
