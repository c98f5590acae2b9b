"""Behavioural tests for the third protocol family: CIC and msglog.

Communication-induced checkpointing: the piggybacked index forces (or,
under FDAS, promotes) checkpoints at receivers, recovery restores the
newest fully-covered index, and the domino effect is gone. Sender-based
message logging: sends are synchronously logged, the durable watermark
only advances when writes land, a failed log write degrades to
optimistic, and recovery never rolls a rank past its newest checkpoint.
Every traced run is also audited by the protocol's own trace checkers
(``cic_index_rule`` / ``msglog_replay_bounds``).
"""

import operator

import pytest

from repro.apps.base import Application
from repro.chklib import CheckpointRuntime, CICScheme, FaultModel
from repro.chklib.schemes.msglog import MessageLoggingScheme
from repro.fault import StorageFaultSpec
from repro.machine import MachineParams
from repro.net.collectives import reduce
from repro.verify import check_runtime


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
            msg = yield ctx.comm.recv(source=left, tag=1)
            state["acc"] += msg.payload
            yield from ctx.compute(self.flops)
            state["iter"] += 1
            yield from ctx.checkpoint_point()
        total = yield from reduce(ctx.comm, state["acc"], operator.add, root=0)
        return total if ctx.rank == 0 else None


class OneWay(Application):
    """Rank 0 streams to rank 1, which only receives — so rank 1 never
    sends between its cuts and FDAS promotion is sound throughout."""

    name = "oneway"
    image_bytes = 8 * 1024

    def __init__(self, iters=40, flops=50_000.0):
        self.iters = iters
        self.flops = flops

    def make_state(self, rank, size, seed):
        return {"iter": 0, "acc": 0}

    def run(self, ctx, state):
        while state["iter"] < self.iters:
            if ctx.rank == 0:
                yield from ctx.comm.send(1, state["iter"], tag=1)
            else:
                msg = yield ctx.comm.recv(source=0, tag=1)
                state["acc"] += msg.payload
            yield from ctx.compute(self.flops)
            state["iter"] += 1
            yield from ctx.checkpoint_point()
        total = yield from reduce(ctx.comm, state["acc"], operator.add, root=0)
        return total if ctx.rank == 0 else None


MACHINE3 = MachineParams(n_nodes=3)
MACHINE2 = MachineParams(n_nodes=2)


def _run(app, scheme=None, machine=MACHINE3, seed=1, fault=None):
    rt = CheckpointRuntime(
        app, scheme=scheme, machine=machine, seed=seed, fault_model=fault
    )
    report = rt.run()
    return rt, report


@pytest.fixture(scope="module")
def ring_T():
    return _run(Ring())[1].sim_time


@pytest.fixture(scope="module")
def oneway_T():
    return _run(OneWay(), machine=MACHINE2)[1].sim_time


# -- CIC: forced checkpoints (BCS) ---------------------------------------------


def test_bcs_forces_checkpoints_and_discharges_them(ring_T):
    base = _run(Ring())[1]
    times = [ring_T / 3, 2 * ring_T / 3]
    rt, report = _run(
        Ring(), scheme=CICScheme.BCS(times, skew=ring_T / 10)
    )
    assert report.counters.get("chk.forced_ckpts", 0) >= 1
    forced = rt.tracer.events_named("proto.cic.forced")
    assert forced
    for ev in forced:
        assert ev.fields["index"] > ev.fields["had"]
        assert ev.fields["rule"] == "bcs"
    # every obligation was discharged by a cut that jumped to the index —
    # the cic_index_rule checker audits exactly that
    audit = check_runtime(rt)
    assert audit.ok, audit.violations
    # the protocol is transparent to the application
    assert report.result == base.result


def test_bcs_indices_converge_to_common_line(ring_T):
    times = [ring_T / 3, 2 * ring_T / 3]
    rt, report = _run(Ring(), scheme=CICScheme.BCS(times, skew=ring_T / 10))
    # the index rule drags every rank up: at the end all ranks share the
    # same checkpoint index (each index has a checkpoint on each rank)
    assert len({agent.epoch for agent in rt.agents}) == 1


def test_cic_crash_recovery_is_exact_and_bounded(ring_T):
    base = _run(Ring())[1]
    times = [ring_T / 3, 2 * ring_T / 3]
    rt, report = _run(
        Ring(),
        scheme=CICScheme.BCS(times, skew=ring_T / 10),
        fault=FaultModel.machine_crash(0.8 * ring_T),
    )
    assert len(report.recoveries) == 1
    rec = report.recoveries[0]
    assert rec.line_consistent
    # the line sits at one common index: no cascade below it
    assert len(set(rec.line_indices.values())) == 1
    assert report.result == base.result
    audit = check_runtime(rt)
    assert audit.ok, audit.violations


# -- CIC: FDAS promotion -------------------------------------------------------


def test_fdas_promotes_instead_of_cutting(oneway_T):
    base = _run(OneWay(), machine=MACHINE2)[1]
    times = [oneway_T / 3, 2 * oneway_T / 3]
    rt, report = _run(
        OneWay(),
        scheme=CICScheme.FDAS(times, skew=oneway_T / 10),
        machine=MACHINE2,
    )
    assert report.counters.get("chk.promotions", 0) >= 1
    promoted = rt.tracer.events_named("proto.cic.promote")
    assert promoted
    for ev in promoted:
        # the promoted base is an older (or initial) checkpoint standing
        # in for the higher index
        assert ev.fields["base"] < ev.fields["index"]
    assert report.result == base.result
    audit = check_runtime(rt)
    assert audit.ok, audit.violations


def test_fdas_crash_recovery_uses_promoted_line(oneway_T):
    base = _run(OneWay(), machine=MACHINE2)[1]
    times = [oneway_T / 3, 2 * oneway_T / 3]
    rt, report = _run(
        OneWay(),
        scheme=CICScheme.FDAS(times, skew=oneway_T / 10),
        machine=MACHINE2,
        fault=FaultModel.machine_crash(0.8 * oneway_T),
    )
    assert len(report.recoveries) == 1
    assert report.recoveries[0].line_consistent
    assert report.result == base.result
    audit = check_runtime(rt)
    assert audit.ok, audit.violations


def test_unknown_cic_rule_rejected():
    with pytest.raises(ValueError, match="unknown CIC rule"):
        CICScheme([1.0], cic_rule="zigzag")


# -- msglog: the durable watermark ---------------------------------------------


def test_msglog_logs_sends_synchronously(ring_T):
    base = _run(Ring())[1]
    times = [ring_T / 3, 2 * ring_T / 3]
    scheme = MessageLoggingScheme.Mlog(times, skew=ring_T / 10)
    rt, report = _run(Ring(), scheme=scheme)
    assert report.counters.get("chk.messages_logged_sync", 0) >= 1
    logged = rt.tracer.events_named("proto.mlog.logged")
    assert logged
    # the watermark is per-channel monotone and matches the last event
    seen = {}
    for ev in logged:
        chan = (ev.fields["src"], ev.fields["dst"])
        assert ev.fields["seq"] > seen.get(chan, 0)
        seen[chan] = ev.fields["seq"]
    assert seen == scheme._logged
    assert report.result == base.result
    audit = check_runtime(rt)
    assert audit.ok, audit.violations


def test_msglog_crash_never_rolls_past_newest_checkpoint(ring_T):
    base = _run(Ring())[1]
    times = [ring_T / 3, 2 * ring_T / 3]
    scheme = MessageLoggingScheme.Mlog(times, skew=ring_T / 10)
    rt, report = _run(
        Ring(), scheme=scheme, fault=FaultModel.machine_crash(0.8 * ring_T)
    )
    assert len(report.recoveries) == 1
    rec = report.recoveries[0]
    assert rec.line_consistent
    assert report.result == base.result
    # the msglog_replay_bounds checker proves the line never dipped below
    # a committed checkpoint and replay stayed inside the logs
    audit = check_runtime(rt)
    assert audit.ok, audit.violations


def test_msglog_failed_log_write_degrades_to_optimistic(ring_T):
    """An unretryable failure of the first sync log write must not lose
    the message or the run: it stays in the volatile log and flushes as
    the next checkpoint's annex."""
    base = _run(Ring())[1]
    times = [ring_T / 3, 2 * ring_T / 3]
    scheme = MessageLoggingScheme.Mlog(times, skew=ring_T / 10)
    fault = FaultModel(
        storage=StorageFaultSpec(fail_writes_at=(1,)),
        max_retries=0,
    )
    rt, report = _run(Ring(), scheme=scheme, fault=fault)
    assert report.counters.get("chk.msglog_failed", 0) >= 1
    assert report.result == base.result
    audit = check_runtime(rt)
    assert audit.ok, audit.violations
