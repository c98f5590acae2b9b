"""The live trace audit's kind dispatch, checked against the loop it replaced.

Under ``verified()`` each event a run emits is shown only to the checkers
whose ``consumes`` names its kind, through the tracer's subscription
table. :func:`reference_check_trace` is the all-checkers × all-events
loop over a recorded stream, kept here as the oracle: on every run the
live report and the reference over the run's recording must be equal
(events checked, invariants run, and each violation's invariant, message,
time and event index).

Dispatch is only as good as ``consumes``: a kind a checker reads but does
not declare is a kind it never sees. The last tests read every checker's
``ev.kind`` comparisons from the analyzer front-end and hold ``consumes``
to them.
"""

import inspect
from pathlib import Path

import pytest

from repro.chklib import CheckpointRuntime
from repro.chklib.schemes.cic import CicIndexRule
from repro.chklib.schemes.registry import FAMILIES, scheme_class
from repro.core.errors import VerificationError
from repro.core.tracing import Checker, RunMeta, TraceEvent
from repro.verify import invariants, smoke, verified
from repro.verify.analyze.frontend import Module
from repro.verify.invariants import default_checkers
from repro.verify.trace_check import TraceReport, check_trace, meta_for_runtime

from .test_mutations import (
    CicSkipForced,
    CommitEarly,
    GreedyGc,
    MlogDeepRollback,
    NoTokenWait,
    _cic_setup,
    _mlog_run,
    _run,
    _times,
)


def reference_check_trace(events, meta):
    """Every event fed to every checker, in battery order."""
    checkers = default_checkers(meta)
    for index, ev in enumerate(events):
        for checker in checkers:
            checker.feed(index, ev)
    violations = []
    for checker in checkers:
        violations.extend(checker.finish())
    violations.sort(key=lambda v: (v.time, v.event_index or 0))
    return TraceReport(
        events_checked=len(events),
        invariants_run=[c.name for c in checkers],
        violations=violations,
    )


def _live_matches_reference(runtime):
    """The runtime's live report, checked against the oracle over its
    recording (and against :func:`check_trace`, the same sink fed a list)."""
    events, meta = runtime.tracer.events, meta_for_runtime(runtime)
    report = runtime.audit_report
    assert report is not None and report.events_checked == len(events)
    assert report == reference_check_trace(events, meta)
    assert report == check_trace(events, meta)
    return report


def _ev(time, kind, **fields):
    return TraceEvent(time, kind, fields)


# -- the oracle ----------------------------------------------------------------


def test_smoke_battery_live_reports_match_reference(monkeypatch):
    audited = []

    def audit(runtime):
        audited.append(runtime.scheme.name)
        return _live_matches_reference(runtime)

    monkeypatch.setattr(smoke, "check_runtime", audit)
    with verified():
        results = smoke.run_smoke(seed=0, crash=True)
    assert len(audited) == len(smoke.SMOKE_SCHEMES)
    assert all(report.ok for _name, report in results)


def _cic_mutant():
    times, skew = _cic_setup()
    return _run(scheme=CicSkipForced.BCS(times, skew=skew))


MUTANTS = {
    "commit_early": lambda: _run(scheme=CommitEarly.NB(_times())),
    "no_token_wait": lambda: _run(scheme=NoTokenWait.NBMS(_times())),
    "greedy_gc": lambda: _run(
        scheme=GreedyGc(_times(), name="indep_greedy", logging=True)
    ),
    "cic_skip_forced": _cic_mutant,
    "mlog_deep_rollback": lambda: _mlog_run(MlogDeepRollback),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_live_reports_match_reference(name, monkeypatch):
    runtimes = []
    real_run = CheckpointRuntime.run

    def run(self, *args, **kwargs):
        runtimes.append(self)
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(CheckpointRuntime, "run", run)
    with verified(), pytest.raises(VerificationError) as caught:
        MUTANTS[name]()
    report = _live_matches_reference(runtimes[-1])
    assert not report.ok and caught.value.violations == report.violations


def test_pending_cic_obligation_is_stamped_at_the_stream_end():
    # the delivery leaves a forced checkpoint owed; nothing discharges it,
    # so finish() flags it — at the stream's last event, which is of a kind
    # the CIC checker never consumes and so never sees under dispatch
    assert "proto.request" not in CicIndexRule.consumes
    events = [
        _ev(0.5, "msg.send", src=0, dst=1, seq=1, epoch=2, gen=0),
        _ev(1.0, "msg.deliver", src=0, dst=1, seq=1, epoch=2, gen=0),
        _ev(5.0, "proto.request", round=1, coordinator=0),
    ]
    meta = RunMeta(n_ranks=2, scheme="cic", klass="cic")
    report = check_trace(events, meta)
    assert report == reference_check_trace(events, meta)
    (violation,) = report.violations
    assert violation.invariant == "cic_index_rule"
    assert (violation.time, violation.event_index) == (5.0, 2)


# -- consumes must name every kind a checker reads --------------------------------


def _kinds_read(owner, module):
    """Event kinds the ``ev.kind`` comparisons in class *owner*'s body
    (in *module*) name."""
    return {
        name
        for _node, names, klass in module.kind_compares
        if klass is not None and klass.name == owner
        for name in names
    }


def _checker_classes():
    core = [
        obj
        for obj in vars(invariants).values()
        if inspect.isclass(obj) and issubclass(obj, Checker) and obj is not Checker
    ]
    return core + [c for family in FAMILIES for c in scheme_class(family).CHECKERS]


def test_every_checker_consumes_every_kind_it_reads():
    classes = _checker_classes()
    assert len(classes) >= 10
    modules = {}
    for cls in classes:
        read = set()
        for owner in cls.__mro__[: cls.__mro__.index(Checker)]:
            path = inspect.getsourcefile(owner)
            if path not in modules:
                modules[path] = Module.from_file(Path(path))
            read |= _kinds_read(owner.__name__, modules[path])
        if "*" in cls.consumes:
            continue
        assert read, f"{cls.__name__}: no ev.kind comparison indexed"
        assert read <= set(cls.consumes), (cls.__name__, read - set(cls.consumes))


PLANTED = '''
class Planted(Checker):
    name = "planted"
    consumes = ("msg.send",)

    def on_event(self, ev):
        if ev.kind == "msg.send":
            pass
        elif ev.kind == "msg.deliver":
            self.flag("never shown a delivery", ev.time)
'''


def test_planted_checker_reading_an_undeclared_kind_is_caught():
    namespace = {"Checker": Checker}
    exec(PLANTED, namespace)
    planted = namespace["Planted"]
    read = _kinds_read("Planted", Module.from_source(PLANTED, path="planted.py"))
    assert not read <= set(planted.consumes)
    assert read - set(planted.consumes) == {"msg.deliver"}
