"""Recording a run's event stream is an observer, never an input.

``trace=False`` keeps the counters and drops the recorded events: every
report field must be the same either way, for every scheme family, with
and without a crash. And an unrecorded run that no live audit watched
has nothing for :func:`~repro.verify.check_runtime` to judge.
"""

import pytest

from repro.apps import SOR
from repro.chklib import (
    CheckpointRuntime,
    CICScheme,
    CoordinatedScheme,
    FaultModel,
    IndependentScheme,
)
from repro.chklib.schemes.msglog import MessageLoggingScheme
from repro.core.errors import VerificationError
from repro.machine import MachineParams
from repro.verify import check_runtime, verified

MACHINE = MachineParams(n_nodes=4)
SEED = 7


def make_app():
    app = SOR(n=30, iters=10, flops_per_cell=2400.0)
    app.image_bytes = 64 * 1024
    return app


def schemes(T):
    times = (T / 4, T / 2, 3 * T / 4)
    return {
        "coord_nb": lambda: CoordinatedScheme.NB(times),
        "coord_nbm": lambda: CoordinatedScheme.NBM(times),
        "coord_nbs": lambda: CoordinatedScheme.NBS(times),
        "coord_nbc": lambda: CoordinatedScheme.NBC(times),
        "indep_log": lambda: IndependentScheme.Indep(times, logging=True),
        "indep_nolog": lambda: IndependentScheme.Indep(times, logging=False),
        "indep_m": lambda: IndependentScheme.IndepM(times, logging=True),
        "indep_c": lambda: IndependentScheme.IndepC(times, logging=True),
        "cic": lambda: CICScheme.BCS(times, skew=T / 10),
        "cic_fdas": lambda: CICScheme.FDAS(times, skew=T / 10),
        "mlog": lambda: MessageLoggingScheme.Mlog(times, skew=T / 10),
        # incremental, copy-on-write and two-level variants
        "coord_nb_inc": lambda: CoordinatedScheme.NB(times, incremental=True),
        "coord_nbms_inc": lambda: CoordinatedScheme.NBMS(times, incremental=True),
        "coord_nb_2l": lambda: CoordinatedScheme.NB(times, two_level=True),
        "coord_nbcs": lambda: CoordinatedScheme.NBCS(times),
    }


@pytest.fixture(scope="module")
def T():
    return CheckpointRuntime(make_app(), machine=MACHINE, seed=SEED).run().sim_time


SCHEME_NAMES = sorted(schemes(1.0))


@pytest.mark.parametrize(
    "name", SCHEME_NAMES + [f"{name}+crash" for name in SCHEME_NAMES]
)
def test_report_does_not_depend_on_recording(name, T):
    """``trace=False`` drops the recorded events (and so timelines) — never a counter
    or a report field (it used to zero ``checkpoints_committed``, the retry
    and abort tallies and ``counters``)."""
    name, _, crash = name.partition("+")
    fault = FaultModel.machine_crash(0.55 * T) if crash else None

    def run(trace):
        rt = CheckpointRuntime(
            make_app(),
            scheme=schemes(T)[name](),
            machine=MACHINE,
            seed=SEED,
            fault_model=fault,
            trace=trace,
        )
        return rt, rt.run()

    traced_rt, traced = run(True)
    untraced_rt, untraced = run(False)
    assert traced_rt.tracer.events and not untraced_rt.tracer.events
    assert untraced.to_dict() == traced.to_dict()
    assert untraced.checkpoints_committed > 0 and untraced.counters
    assert len(untraced.recoveries) == (1 if crash else 0)


def test_check_runtime_never_passes_on_nothing(T):
    """A run neither audited live nor recorded has no report to give."""
    rt = CheckpointRuntime(
        make_app(), scheme=schemes(T)["coord_nb"](), machine=MACHINE, seed=SEED,
        trace=False,
    )
    rt.run()
    with pytest.raises(VerificationError, match="nothing to audit"):
        check_runtime(rt)
    with verified():
        audited = CheckpointRuntime(
            make_app(), scheme=schemes(T)["coord_nb"](), machine=MACHINE, seed=SEED,
            trace=False,
        )
        audited.run()
    assert check_runtime(audited) is audited.audit_report
    assert audited.audit_report.ok and audited.tracer.events == []
