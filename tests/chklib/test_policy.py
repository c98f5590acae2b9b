"""Checkpoint policies: scheduling as a first-class, auditable decision.

Covers the policy subsystem on both scheme families: the ``FixedTimes``
default reproduces legacy fixed-schedule runs byte-for-byte, ``Periodic``
and ``PhaseTriggered`` drive checkpoints without a precomputed schedule,
``FailureRateAdaptive`` narrows its interval exactly when faults are
observed, ``StoragePressure`` widens under occupancy — and every run's
``policy.*`` event stream passes the trace invariants.
"""

import json

import pytest

from repro.apps import SOR
from repro.chklib import (
    CheckpointRuntime,
    CoordinatedScheme,
    FailureRateAdaptive,
    FaultModel,
    FixedTimes,
    IndependentScheme,
    Periodic,
    PhaseTriggered,
    StoragePressure,
    build_policy,
    policy_spec,
)
from repro.core.errors import SimulationError
from repro.fault import StorageFaultSpec
from repro.machine import MachineParams
from repro.verify import check_runtime

MACHINE = MachineParams(n_nodes=4)
SEED = 11


def make_app():
    app = SOR(n=26, iters=10, flops_per_cell=3000.0)
    app.image_bytes = 32 * 1024
    return app


def run_traced(scheme, fault_model=None, seed=SEED):
    """The audited run's runtime and report (the runtime traces by default)."""
    rt = CheckpointRuntime(
        make_app(),
        scheme=scheme,
        machine=MACHINE,
        seed=seed,
        fault_model=fault_model,
    )
    report = rt.run()
    audit = check_runtime(rt)
    assert audit.ok, audit.violations
    return rt, report


def run(scheme, fault_model=None, seed=SEED):
    return run_traced(scheme, fault_model, seed)[1]


def _dumps(report):
    return json.dumps(report.to_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def T():
    return (
        CheckpointRuntime(make_app(), machine=MACHINE, seed=SEED)
        .run()
        .sim_time
    )


# -- FixedTimes: the legacy knob, unchanged ------------------------------------


@pytest.mark.parametrize("family", ["coord", "indep"])
def test_fixed_times_matches_legacy_schedule(family, T):
    times = (T / 4, T / 2, 3 * T / 4)
    if family == "coord":
        legacy = CoordinatedScheme.NB(times)
        wrapped = CoordinatedScheme.NB(times, policy=FixedTimes(times))
    else:
        legacy = IndependentScheme.Indep(times, logging=True)
        wrapped = IndependentScheme.Indep(
            times, logging=True, policy=FixedTimes(times)
        )
    assert _dumps(run(legacy)) == _dumps(run(wrapped))


def test_fixed_times_emits_decide_events(T):
    times = (T / 4, T / 2)
    rep = run(CoordinatedScheme.NB(times, policy=FixedTimes(times)))
    assert rep.counters["policy.decisions"] == len(times)


# -- Periodic ------------------------------------------------------------------


def test_periodic_drives_both_families(T):
    interval = T / 4
    for scheme in (
        CoordinatedScheme.NB((), policy=Periodic(interval, stop=4 * T)),
        IndependentScheme.Indep(
            (), logging=True, policy=Periodic(interval, stop=4 * T)
        ),
    ):
        rep = run(scheme)
        assert rep.counters["policy.decisions"] >= 2
        assert rep.checkpoints_committed >= 1
        mean = (
            rep.counters["policy.interval_sum"]
            / rep.counters["policy.decisions"]
        )
        assert mean == pytest.approx(interval)


def test_periodic_rejects_nonpositive_interval():
    with pytest.raises(ValueError, match="positive"):
        Periodic(0.0)


# -- PhaseTriggered: point-driven, no timers -----------------------------------


@pytest.mark.parametrize("family", ["coord", "indep"])
def test_phase_triggered_cuts_at_points(family):
    policy = PhaseTriggered(every=3)
    if family == "coord":
        scheme = CoordinatedScheme.NB((), policy=policy)
    else:
        scheme = IndependentScheme.Indep((), logging=True, policy=policy)
    rep = run(scheme)
    assert rep.counters["policy.decisions"] >= 1
    assert rep.checkpoints_committed >= 1


# -- FailureRateAdaptive -------------------------------------------------------


def _faults(T):
    return FaultModel(
        machine_crash_times=(0.55 * T,),
        storage=StorageFaultSpec(write_fail_p=0.08, read_fail_p=0.08),
    )


def test_adaptive_narrows_under_faults_and_not_when_quiet(T):
    interval = T / 4

    def scheme():
        return CoordinatedScheme.NB(
            (),
            policy=FailureRateAdaptive(base_interval=interval, stop=4 * T),
        )

    rt, faulted = run_traced(scheme(), fault_model=_faults(T))
    quiet = run(scheme())

    assert faulted.counters.get("policy.narrowings", 0) > 0
    assert quiet.counters.get("policy.narrowings", 0) == 0
    assert len(faulted.recoveries) >= 1

    def mean(rep):
        return (
            rep.counters["policy.interval_sum"]
            / rep.counters["policy.decisions"]
        )

    # the acceptance criterion: adaptation demonstrably changes frequency
    assert mean(faulted) < mean(quiet)
    # the narrowed mean never escapes the advertised clamp
    assert mean(faulted) >= interval / 4.0
    # both runs still compute the undisturbed answer
    assert faulted.result == quiet.result
    # the faults observed are a count of events, not a sum of floats
    narrowed = [
        ev for ev in rt.tracer.events_named("policy.adapt") if ev["cause"] == "fault"
    ]
    assert narrowed
    assert all(type(ev["observed"]) is int for ev in narrowed)


def test_adaptive_parameter_validation():
    with pytest.raises(ValueError, match="narrow"):
        FailureRateAdaptive(1.0, narrow=1.5)
    with pytest.raises(ValueError, match="widen"):
        FailureRateAdaptive(1.0, widen=0.5)
    with pytest.raises(ValueError, match="lo"):
        FailureRateAdaptive(1.0, min_interval=2.0)


# -- StoragePressure -----------------------------------------------------------


def test_storage_pressure_widens_as_storage_fills(T):
    interval = T / 5
    # a tiny budget: the second decision already sees stored checkpoints
    policy = StoragePressure(
        base_interval=interval, budget_bytes=8 * 1024, stop=4 * T
    )
    rep = run(IndependentScheme.Indep((), logging=False, policy=policy))
    assert rep.counters.get("policy.widenings", 0) > 0
    assert rep.counters.get("policy.narrowings", 0) == 0


# -- declarative specs ---------------------------------------------------------


def test_policy_spec_round_trip():
    spec = policy_spec("periodic", interval=1.5, stop=10.0)
    assert spec == ("periodic", (("interval", 1.5), ("stop", 10.0)))
    policy = build_policy(spec)
    assert isinstance(policy, Periodic)
    assert policy.interval == 1.5
    assert policy.stop == 10.0


def test_policy_spec_normalises_sequences():
    spec = policy_spec("fixed", times=[1.0, 2.0])
    assert spec == ("fixed", (("times", (1.0, 2.0)),))
    assert build_policy(spec).times == (1.0, 2.0)


def test_policy_spec_unknown_kind():
    with pytest.raises(SimulationError, match="unknown policy kind"):
        policy_spec("young-daly")
    with pytest.raises(SimulationError, match="unknown policy kind"):
        build_policy(("young-daly", ()))
