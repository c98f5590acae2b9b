"""In-process crash recovery gives back the undisturbed application.

A machine crash at *t* rolls every rank back to the scheme's recovery
line and re-executes from there. For every scheme variant the recovered
run must finish with the undisturbed run's answer, whether the crash
lands before the first checkpoint commits or after a later one; the live
audit of a recovered run must be clean even when nothing was recorded;
and a violation emitted before the crash must still be reported once the
run has recovered and finished.
"""

import functools

import pytest

from repro.chklib import CheckpointRuntime, FaultModel
from repro.core.errors import VerificationError
from repro.verify import verified

from .test_recording import MACHINE, SCHEME_NAMES, SEED, make_app, schemes


def runtime(name, T, **kw):
    return CheckpointRuntime(
        make_app(), scheme=schemes(T)[name](), machine=MACHINE, seed=SEED, **kw
    )


@pytest.fixture(scope="module")
def T():
    return CheckpointRuntime(make_app(), machine=MACHINE, seed=SEED).run().sim_time


@pytest.fixture(scope="module")
def undisturbed(T):
    return functools.lru_cache(maxsize=None)(lambda name: runtime(name, T).run())


@pytest.mark.parametrize("name", SCHEME_NAMES)
@pytest.mark.parametrize("crash_frac", [0.3, 0.55])
def test_crash_recovery_keeps_the_undisturbed_result(name, crash_frac, T, undisturbed):
    crash = crash_frac * T
    recovered = runtime(name, T, fault_model=FaultModel.machine_crash(crash)).run()

    (recovery,) = recovered.recoveries
    assert recovery.crash_time == pytest.approx(crash)
    assert recovery.line_consistent
    assert sorted(recovery.line_indices) == list(range(MACHINE.n_nodes))
    assert recovered.result == undisturbed(name).result


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_audited_crash_recovery_of_an_unrecorded_run_is_clean(name, T):
    """The live audit follows the stream across the rollback: with
    ``trace=False`` nothing is recorded, yet every event before and after
    the crash is checked, and none breaks an invariant."""
    with verified():
        rt = runtime(name, T, fault_model=FaultModel.machine_crash(0.55 * T), trace=False)
        rt.run()
    report = rt.audit_report
    assert report.ok and report.events_checked > 0
    assert rt.tracer.events == []
    assert len(rt.recoveries) == 1


def _plant_unsent_delivery(rt, at):
    """Emit, at simulated time *at*, a delivery nothing ever sent."""

    def plant():
        yield rt.engine.timeout(at)
        rt.tracer.event("msg.deliver", src=0, dst=1, seq=10**6, epoch=0, gen=99)

    rt.engine.process(plant(), name="plant")


def test_a_violation_before_the_crash_is_reported_after_the_recovery(T):
    """A rollback rewinds the application, not the audit: a delivery
    planted before the crash is still the run's one violation."""
    rt = runtime("coord_nb", T, fault_model=FaultModel.machine_crash(0.55 * T))
    _plant_unsent_delivery(rt, 0.3 * T)
    with verified(), pytest.raises(VerificationError) as err:
        rt.run()
    (planted,) = err.value.violations
    assert planted.invariant == "channel_fifo" and "never sent" in planted.message
    assert rt.tracer.events[planted.event_index]["seq"] == 10**6
    assert len(rt.recoveries) == 1
