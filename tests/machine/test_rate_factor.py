"""Unit tests for the storage rate factor (app-traffic contention)."""

import pytest

from repro.core import Engine
from repro.machine import (
    Cluster,
    MachineParams,
    SharedServer,
    StorageParams,
)


def test_rate_factor_slows_transfer_exactly():
    eng = Engine()
    srv = SharedServer(eng, bandwidth=100.0)
    srv.set_rate_factor(0.5)
    job = srv.transfer(100.0)
    eng.run(until=job.done)
    assert eng.now == pytest.approx(2.0)


def test_rate_factor_change_mid_transfer_repaces():
    eng = Engine()
    srv = SharedServer(eng, bandwidth=100.0)
    done_at = []

    def writer():
        job = srv.transfer(100.0)
        yield job.done
        done_at.append(eng.now)

    def toggler():
        yield eng.timeout(0.5)  # 50 B done at full rate
        srv.set_rate_factor(0.25)  # remaining 50 B at 25 B/s -> 2 s

    eng.process(writer())
    eng.process(toggler())
    eng.run()
    assert done_at == [pytest.approx(2.5)]


def test_rate_factor_validation():
    eng = Engine()
    srv = SharedServer(eng, bandwidth=100.0)
    with pytest.raises(ValueError):
        srv.set_rate_factor(0.0)


def test_cluster_blocked_ranks_drive_rate():
    eng = Engine()
    params = MachineParams(n_nodes=4).with_storage(
        app_traffic_penalty=1.0, thrash=0.0
    )
    cluster = Cluster(eng, params)
    srv = cluster.storage.servers[0].server
    # everyone computing: factor 1/(1+1.0) = 0.5
    assert srv.per_job_rate(1) == pytest.approx(params.storage.bandwidth / 2)
    cluster.set_rank_blocked(0, True)
    cluster.set_rank_blocked(1, True)
    # half blocked: 1/(1+0.5)
    assert srv.per_job_rate(1) == pytest.approx(params.storage.bandwidth / 1.5)
    cluster.set_all_blocked(True)
    assert srv.per_job_rate(1) == pytest.approx(params.storage.bandwidth)
    cluster.set_all_blocked(False)
    assert srv.per_job_rate(1) == pytest.approx(params.storage.bandwidth / 2)


def test_blocked_flag_idempotent():
    eng = Engine()
    cluster = Cluster(eng, MachineParams(n_nodes=2))
    cluster.set_rank_blocked(0, True)
    cluster.set_rank_blocked(0, True)  # no change, no error
    cluster.set_rank_blocked(0, False)
    cluster.set_rank_blocked(0, False)
    assert cluster.storage.servers[0].server.per_job_rate(1) == pytest.approx(
        cluster.params.storage.bandwidth
        / (1 + cluster.params.storage.app_traffic_penalty)
    )


def test_quiescent_write_beats_contended_write():
    """The NB-vs-Indep mechanism in isolation: the same write is faster
    when the application is quiescent."""

    def run_one(blocked_all):
        eng = Engine()
        cluster = Cluster(eng, MachineParams(n_nodes=8))
        if blocked_all:
            cluster.set_all_blocked(True)
        node = cluster.node(0)

        def writer():
            yield from cluster.storage.write(node, 500_000.0)

        p = eng.process(writer())
        eng.run(until=p)
        return eng.now

    assert run_one(True) < run_one(False)
