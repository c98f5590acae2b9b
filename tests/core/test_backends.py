"""Oracle-vs-engine parity suite (DESIGN.md §12).

The ``twotier`` engine must fire events in exactly the same
``(time, priority, seq)`` order as the ``reference`` single heap, with
``seq`` ticking once per scheduled event — so tables, traces, recovery
lines and RNG draws are byte-identical whichever of the two runs them:

* selector semantics (arg > env > default, anything else rejected);
* property tests replaying random mixed workloads — timestamp
  collisions, priorities, delay-0 lane traffic — under both;
* all nine checkpointing schemes (including the CIC and message-logging
  family), crash/recovery and ``--verify``-audited traced runs;
* the experiment CLI: ``runner table1|table2|table3 --quick`` stdout.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments.runner as runner_mod
import repro.experiments.table1 as table1_mod
import repro.experiments.table23 as table23_mod
from repro.apps import SOR
from repro.chklib import (
    CheckpointRuntime,
    CICScheme,
    CoordinatedScheme,
    FaultModel,
    IndependentScheme,
)
from repro.chklib.schemes.msglog import MessageLoggingScheme
from repro.core import Engine, Event, available_backends
from repro.core.engine import LOW, URGENT
from repro.core.kernel import resolve_backend
from repro.experiments import WorkloadSpec
from repro.machine import MachineParams
from repro.verify.trace_check import verified

BACKENDS = ("reference", "twotier")


@pytest.fixture(autouse=True)
def _isolate_backend_env(monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)


# -- selector semantics -------------------------------------------------------


def test_available_backends_lists_oracle_then_engine():
    assert available_backends() == BACKENDS


@pytest.mark.parametrize("name", BACKENDS)
def test_backend_arg_selects_class(name):
    eng = Engine(backend=name)
    assert type(eng) is Engine
    assert eng.backend == name
    Event(eng).succeed(None)
    assert (len(eng._lane), len(eng._heap)) == (
        (1, 0) if name == "twotier" else (0, 1)
    )


@pytest.mark.parametrize("name", BACKENDS)
def test_env_var_selects_backend(name, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", name)
    assert Engine().backend == name


def test_explicit_arg_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "twotier")
    assert Engine(backend="reference").backend == "reference"


def test_unknown_backend_rejected(monkeypatch):
    # "batched" is what a stale shell may still export: fail, don't fall back
    names = r"available: reference, twotier$"
    for arg in ("rust", "batched"):
        with pytest.raises(ValueError, match="unknown kernel backend.*" + names):
            Engine(backend=arg)
    for env in ("nope", "batched"):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", env)
        with pytest.raises(ValueError, match="names no kernel backend.*" + names):
            resolve_backend()
        with pytest.raises(ValueError, match="names no kernel backend.*" + names):
            Engine()


def test_default_is_twotier():
    assert Engine().backend == "twotier"


# -- random-workload firing-order parity --------------------------------------

# small discrete delay pool => heavy timestamp collisions, so heap-vs-lane
# arbitration at equal times gets exercised rather than dodged.
_DELAYS = (0.0, 0.25, 0.25, 0.5, 0.5, 0.5, 1.0, 2.0)

_op = st.one_of(
    st.tuples(st.just("t"), st.sampled_from(_DELAYS)),
    st.tuples(st.just("d"), st.sampled_from(_DELAYS)),
    st.tuples(st.just("imm"), st.just(None)),
    st.tuples(st.just("pri"), st.sampled_from([URGENT, LOW])),
)
_workload = st.lists(
    st.lists(_op, min_size=1, max_size=8), min_size=1, max_size=6
)


def _replay(backend, workers, hook):
    eng = Engine(backend=backend)
    log = []
    fired = []
    if hook:
        eng.step_hook = lambda t, ev: fired.append((t, type(ev).__name__))

    def worker(tag, ops):
        for i, (kind, arg) in enumerate(ops):
            if kind == "t":
                yield eng.timeout(arg, value=(tag, i))
            elif kind == "d":
                yield eng.delay(arg, value=(tag, i))
            elif kind == "imm":
                ev = Event(eng)
                ev.succeed((tag, i))
                yield ev
            elif kind == "pri":
                ev = Event(eng)
                ev.succeed((tag, i), priority=arg)
                yield ev
            log.append((tag, i, eng.now))

    for tag, ops in enumerate(workers):
        eng.process(worker(tag, ops))
    eng.run()
    return log, fired, eng.now, eng._seq


@given(_workload)
@settings(max_examples=60, deadline=None)
def test_random_workloads_fire_identically_across_backends(workers):
    assert _replay("twotier", workers, hook=True) == _replay(
        "reference", workers, hook=True
    )


@given(_workload)
@settings(max_examples=40, deadline=None)
def test_random_workloads_identical_without_step_hook(workers):
    # no hook => the _Delay pool recycles; resumption order must not move
    assert _replay("twotier", workers, hook=False) == _replay(
        "reference", workers, hook=False
    )


# -- scheme-level parity (the seven schemes of the paper grid) ----------------

_MACHINE = MachineParams(n_nodes=4)
_SEED = 7


def _make_app():
    app = SOR(n=24, iters=8, flops_per_cell=2400.0)
    app.image_bytes = 64 * 1024
    return app


@pytest.fixture(scope="module")
def _T():
    return (
        CheckpointRuntime(_make_app(), machine=_MACHINE, seed=_SEED)
        .run()
        .sim_time
    )


def _schemes(T):
    times = (T / 4, T / 2, 3 * T / 4)
    return {
        "none": lambda: None,
        "coord_nb": lambda: CoordinatedScheme.NB(times),
        "coord_nbm": lambda: CoordinatedScheme.NBM(times),
        "coord_nbms": lambda: CoordinatedScheme.NBMS(times),
        "coord_nbs": lambda: CoordinatedScheme.NBS(times),
        "indep_log": lambda: IndependentScheme.Indep(
            times, skew=0.05, logging=True
        ),
        "indep_nolog": lambda: IndependentScheme.Indep(
            times, skew=0.05, logging=False
        ),
        "cic": lambda: CICScheme.BCS(times, skew=T / 10),
        "indep_m_mlog": lambda: MessageLoggingScheme.Mlog(
            times, skew=T / 10
        ),
    }


def _run_scheme(backend, make_scheme, monkeypatch, fault=None):
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", backend)
    rt = CheckpointRuntime(
        _make_app(),
        scheme=make_scheme(),
        machine=_MACHINE,
        seed=_SEED,
        fault_model=fault,
    )
    report = rt.run()
    assert rt.engine.backend == backend
    return json.dumps(report.to_dict(), sort_keys=True)


@pytest.mark.parametrize(
    "name",
    [
        "none",
        "coord_nb",
        "coord_nbm",
        "coord_nbms",
        "coord_nbs",
        "indep_log",
        "indep_nolog",
        "cic",
        "indep_m_mlog",
    ],
)
def test_scheme_reports_identical_across_backends(name, _T, monkeypatch):
    make_scheme = _schemes(_T)[name]
    ref = _run_scheme("reference", make_scheme, monkeypatch)
    assert _run_scheme("twotier", make_scheme, monkeypatch) == ref


@pytest.mark.parametrize("name", ["coord_nbm", "coord_nb", "cic", "indep_m_mlog"])
def test_crash_recovery_identical_across_backends(name, _T, monkeypatch):
    make_scheme = _schemes(_T)[name]
    fault = lambda: FaultModel.machine_crash(0.55 * _T)  # noqa: E731
    ref = _run_scheme("reference", make_scheme, monkeypatch, fault())
    assert _run_scheme("twotier", make_scheme, monkeypatch, fault()) == ref


def test_traced_verified_runs_identical_across_backends(_T, monkeypatch):
    """--verify parity: the live trace audit passes under both
    backends and the counters and recorded events are identical."""
    make_scheme = _schemes(_T)["indep_log"]
    states = {}
    with verified():
        for backend in BACKENDS:
            monkeypatch.setenv("REPRO_KERNEL_BACKEND", backend)
            rt = CheckpointRuntime(
                _make_app(), scheme=make_scheme(), machine=_MACHINE, seed=_SEED
            )
            rt.run()  # raises if the trace audit fails
            states[backend] = (rt.tracer.counters, rt.tracer.events)
    assert states["twotier"] == states["reference"]


# -- the experiment CLI -------------------------------------------------------


def _tiny_workloads(scale=1.0):
    return [
        WorkloadSpec.of(
            "sor-tiny",
            "sor",
            image_bytes=32 * 1024,
            n=32,
            iters=50,
            flops_per_cell=800.0,
        ),
    ]


@pytest.mark.parametrize("table", ["table1", "table2", "table3"])
def test_runner_tables_byte_identical_across_backends(
    table, capsys, monkeypatch
):
    monkeypatch.setattr(table1_mod, "table1_workloads", _tiny_workloads)
    monkeypatch.setattr(table23_mod, "table23_workloads", _tiny_workloads)
    outs = {}
    for backend in BACKENDS:
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", backend)
        assert (
            runner_mod.main([table, "--quick", "--no-cache", "--jobs", "1"])
            == 0
        )
        outs[backend] = capsys.readouterr().out
    assert outs["twotier"] == outs["reference"]
