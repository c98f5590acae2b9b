"""Protocol-level unit tests of the checkpointing schemes.

These poke at the mechanics that the integration tests only exercise
implicitly: marker counting, epoch piggybacking, channel-state recording,
token staggering, pessimistic logging costs, duplicate suppression and GC
during the run.
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
    MessageLoggingScheme,
)
from repro.core.errors import Deadlock
from repro.machine import MachineParams
from repro.net.collectives import reduce


class PingPong(Application):
    """Two-rank message exchanger with a tunable iteration grain."""

    name = "pingpong"
    image_bytes = 8 * 1024

    def __init__(self, iters=50, flops=50_000.0):
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


MACHINE2 = MachineParams(n_nodes=2)


def run_pingpong(scheme=None, fault=None, machine=MACHINE2, **app_kw):
    rt = CheckpointRuntime(
        PingPong(**app_kw), scheme=scheme, machine=machine, seed=1, fault_model=fault
    )
    report = rt.run()
    return rt, report


def test_epochs_advance_with_rounds():
    rt0, base = run_pingpong()
    times = [base.sim_time / 4, base.sim_time / 2]
    rt, report = run_pingpong(scheme=CoordinatedScheme.NB(times))
    assert all(agent.epoch == 2 for agent in rt.agents)
    assert report.result == base.result


@pytest.mark.parametrize("variant", ["NB", "NBM", "NBMS", "NBS", "NBC", "NBCS"])
def test_coordinated_requests_fire_at_their_times(variant):
    """In a fault-free run the coordinator's k-th request fires at
    exactly ``times[k-1]``, whatever the capture or the staggering."""
    rt0, base = run_pingpong()
    T = base.sim_time
    times = [T / 4, T / 2, 3 * T / 4]
    rt, _ = run_pingpong(scheme=getattr(CoordinatedScheme, variant)(times))
    requests = rt.tracer.events_named("proto.request")
    assert [ev["round"] for ev in requests] == [1, 2, 3]
    assert [ev.time for ev in requests] == times


@pytest.mark.parametrize(
    "make",
    [
        IndependentScheme.Indep,
        IndependentScheme.IndepM,
        IndependentScheme.IndepC,
        CICScheme.BCS,
        CICScheme.FDAS,
        MessageLoggingScheme.Mlog,
    ],
    ids=["indep", "indep_m", "indep_c", "cic_bcs", "cic_fdas", "mlog"],
)
def test_each_rank_initiates_once_per_time(make):
    """Every rank of an uncoordinated scheme initiates once per entry
    of ``times``; CIC's forced checkpoints are not initiations."""
    rt0, base = run_pingpong()
    T = base.sim_time
    times = [T / 4, T / 2, 3 * T / 4]
    rt, report = run_pingpong(scheme=make(times, skew=T / 20))
    assert report.counters["chk.initiations"] == rt.n_ranks * len(times)


def test_marker_count_per_round():
    rt0, base = run_pingpong()
    times = [base.sim_time / 3]
    rt, report = run_pingpong(scheme=CoordinatedScheme.NB(times))
    # 2 ranks: each sends 1 marker; plus 1 request, 1 remote ack, 1 commit
    markers = report.counters.get("net.control_messages", 0)
    assert report.control_messages == 1 + 2 + 1 + 1


def test_commit_discards_previous_checkpoint():
    rt0, base = run_pingpong()
    times = [base.sim_time / 4, base.sim_time / 2]
    rt, report = run_pingpong(scheme=CoordinatedScheme.NBM(times))
    for rank in range(2):
        chain = rt.store.chain(rank)
        assert [rec.index for rec in chain] == [2]
        assert chain[0].committed


def test_tentative_checkpoint_not_used_for_recovery():
    """Crash while round 2's write is still in flight -> restore round 1."""
    rt0, base = run_pingpong()
    t1 = base.sim_time / 4
    t2 = base.sim_time / 2
    scheme = CoordinatedScheme.NB([t1, t2])
    # crash just after round 2 starts (markers sent, writes queued)
    rt, report = run_pingpong(
        scheme=CoordinatedScheme.NB([t1, t2]),
        fault=FaultModel.machine_crash(t2 + 0.02),
    )
    rec = report.recoveries[0]
    assert set(rec.line_indices.values()) == {1}
    assert report.result == base.result


def test_nbms_token_serialises_writes():
    machine = MachineParams(n_nodes=4)
    rt0 = CheckpointRuntime(PingPong(iters=60), machine=machine, seed=1)
    base = rt0.run()
    times = [base.sim_time / 3]
    rt = CheckpointRuntime(
        PingPong(iters=60),
        scheme=CoordinatedScheme.NBMS(times),
        machine=machine,
        seed=1,
    )
    rt.run()
    assert rt.storage.server.peak_concurrency == 1


def test_nb_writes_overlap():
    machine = MachineParams(n_nodes=4)
    rt0 = CheckpointRuntime(PingPong(iters=60), machine=machine, seed=1)
    base = rt0.run()
    times = [base.sim_time / 3]
    rt = CheckpointRuntime(
        PingPong(iters=60),
        scheme=CoordinatedScheme.NB(times),
        machine=machine,
        seed=1,
    )
    rt.run()
    assert rt.storage.server.peak_concurrency > 1


def test_pessimistic_logging_charges_send_path():
    rt0, base = run_pingpong()
    times = [base.sim_time / 3]
    _, plain = run_pingpong(
        scheme=IndependentScheme.Indep(times, logging=True)
    )
    _, pess = run_pingpong(
        scheme=MessageLoggingScheme(times, capture="blocking")
    )
    # synchronous log flush on every send is much more expensive
    assert pess.sim_time > plain.sim_time
    assert pess.result == base.result


def test_log_annex_flushed_with_checkpoint():
    rt0, base = run_pingpong()
    times = [base.sim_time / 3]
    rt, _ = run_pingpong(scheme=IndependentScheme.Indep(times, logging=True))
    for rank in range(2):
        rec = rt.store.chain(rank)[-1]
        assert len(rec.log_annex) > 0
        assert rec.log_bytes > 0
        # annex holds this rank's outgoing messages only
        assert all(m.src == rank for m in rec.log_annex)


def test_gc_runs_during_execution():
    rt0, base = run_pingpong(iters=120)
    times = [base.sim_time * f for f in (0.2, 0.4, 0.6)]
    rt, report = run_pingpong(
        iters=120,
        scheme=IndependentScheme.Indep(times, skew=0.0, logging=True, gc=True),
    )
    assert report.counters.get("chk.gc_freed_ckpts", 0) > 0
    # aligned timers on a symmetric app: the line advances, old ones die
    for rank in range(2):
        assert len(rt.store.chain(rank)) <= 2


def test_duplicate_suppression_counter_after_crash():
    rt0, base = run_pingpong(iters=120)
    times = [base.sim_time * 0.3]
    rt, report = run_pingpong(
        iters=120,
        scheme=CoordinatedScheme.NBM(times),
        fault=FaultModel.machine_crash(base.sim_time * 0.7),
    )
    assert report.result == base.result
    # the replayed prefix re-sent messages the survivors had consumed
    assert report.counters.get("chk.duplicates_dropped", 0) >= 0


def test_independent_has_zero_control_traffic_always():
    rt0, base = run_pingpong()
    times = [base.sim_time / 4, base.sim_time / 2]
    _, report = run_pingpong(scheme=IndependentScheme.IndepM(times))
    assert report.control_messages == 0
    assert report.control_bytes == 0


def test_blocked_time_nbm_much_smaller_than_nb():
    rt0, base = run_pingpong(iters=30, flops=300_000.0)
    times = [base.sim_time / 3]
    _, nb = run_pingpong(iters=30, flops=300_000.0,
                         scheme=CoordinatedScheme.NB(times))
    _, nbm = run_pingpong(iters=30, flops=300_000.0,
                          scheme=CoordinatedScheme.NBM(times))
    assert nbm.blocked_time < nb.blocked_time / 5


@pytest.mark.parametrize(
    "make",
    [
        lambda times: CoordinatedScheme.NB(times),
        lambda times: CoordinatedScheme.NBM(times),
        lambda times: IndependentScheme.Indep(times),
        lambda times: CICScheme.BCS(times, skew=times[0] / 10),
        lambda times: MessageLoggingScheme.Mlog(times, skew=times[0] / 10),
    ],
    ids=["coord_nb", "coord_nbm", "indep", "cic", "mlog"],
)
def test_cut_end_closes_its_own_cut_and_sums_to_blocked_time(make):
    machine = MachineParams(n_nodes=4)
    base = CheckpointRuntime(PingPong(iters=60), machine=machine, seed=1).run()
    times = [base.sim_time / 4, base.sim_time / 2]
    rt = CheckpointRuntime(
        PingPong(iters=60), scheme=make(times), machine=machine, seed=1
    )
    report = rt.run()
    open_cuts = {}
    ends = 0
    for ev in rt.tracer.events:
        key = (ev.get("rank"), ev.get("round"))
        if ev.kind == "proto.cut":
            assert key not in open_cuts
            open_cuts[key] = ev.time
        elif ev.kind == "proto.cut_end":
            assert ev.time >= open_cuts.pop(key)
            ends += 1
    assert ends > 0 and not open_cuts
    blocked = sum(ev["blocked"] for ev in rt.tracer.events_named("proto.cut_end"))
    assert blocked == pytest.approx(report.blocked_time, rel=1e-12)


# -- known defect: overlapping coordinated rounds ------------------------------


@pytest.mark.xfail(
    strict=True,
    raises=Deadlock,
    reason=(
        "ROADMAP item 13: with three quick rounds, rounds overlap; "
        "coord_nbms cuts rounds 2 and 3 but commits only round 1, and its "
        "token ring wedges with writers still waiting"
    ),
)
def test_three_quick_nbms_rounds_reach_quiescence():
    from repro.experiments.grid import interval_times
    from repro.experiments.harness import make_scheme
    from repro.experiments.workloads import quick_workloads

    workload = quick_workloads()[0]  # sor-96, as in the smoke battery
    normal = CheckpointRuntime(workload.build(), seed=0).run()
    interval, times = interval_times(normal.sim_time, 3)
    rt = CheckpointRuntime(
        workload.build(),
        scheme=make_scheme("coord_nbms", times, interval),
        seed=0,
    )
    rt.run()
    rt.engine.run()  # drain: every writer and token should finish
