"""Durable recovery lines: bitwise-identical continuation across a halt.

The contract under test (DESIGN.md §9): halting a run at *t* and
restarting from the captured :class:`DurableLine` — even across a
process boundary via the on-disk frame — continues **bit-for-bit
identically** to a run that crashed at *t* and recovered in-process.

Four runs per scheme family:

* **A** — uninterrupted (the ground-truth application result);
* **B** — in-process ``FaultModel.machine_crash(t)``;
* **C1** — same run halted at *t* via ``run(halt_at=t)``;
* **C** — ``restart_from(C1.durable_line)``.

Asserts ``C.to_dict() == B.to_dict()`` exactly (every counter, every
recovery record, the final simulated clock) and ``C.result == A.result``.
"""

import json

import pytest

from repro.apps import SOR, Gauss
from repro.chklib import (
    CheckpointRuntime,
    CICScheme,
    CoordinatedScheme,
    DurableLine,
    FaultModel,
    IndependentScheme,
    NoCheckpointing,
)
from repro.chklib.schemes.msglog import MessageLoggingScheme
from repro.chklib.resume import LINE_MAGIC
from repro.core.errors import ResumeError, VerificationError
from repro.machine import MachineParams
from repro.verify import check_runtime, verified

MACHINE = MachineParams(n_nodes=4)
SEED = 7


def make_app():
    app = SOR(n=30, iters=10, flops_per_cell=2400.0)
    app.image_bytes = 64 * 1024
    return app


def normal_time() -> float:
    return CheckpointRuntime(make_app(), machine=MACHINE, seed=SEED).run().sim_time


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
        # the agent's incremental state, copy-on-write capture and the
        # two-level local tier
        "coord_nb_inc": lambda: CoordinatedScheme.NB(times, incremental=True),
        "coord_nbms_inc": lambda: CoordinatedScheme.NBMS(times, incremental=True),
        "coord_nb_2l": lambda: CoordinatedScheme.NB(times, two_level=True),
        "coord_nbcs": lambda: CoordinatedScheme.NBCS(times),
    }


def _dumps(report):
    return json.dumps(report.to_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def T():
    return normal_time()


@pytest.mark.parametrize(
    "name",
    [
        "coord_nb",
        "coord_nbm",
        "coord_nbs",
        "coord_nbc",
        "indep_log",
        "indep_nolog",
        "indep_m",
        "indep_c",
        "cic",
        "cic_fdas",
        "mlog",
        "coord_nb_inc",
        "coord_nbms_inc",
        "coord_nb_2l",
        "coord_nbcs",
    ],
)
def test_restart_continues_bitwise_identically(name, T):
    make_scheme = schemes(T)[name]
    halt = 0.55 * T

    ra = CheckpointRuntime(
        make_app(), scheme=make_scheme(), machine=MACHINE, seed=SEED
    ).run()
    rb = CheckpointRuntime(
        make_app(),
        scheme=make_scheme(),
        machine=MACHINE,
        seed=SEED,
        fault_model=FaultModel.machine_crash(halt),
    ).run()

    halted = CheckpointRuntime(
        make_app(), scheme=make_scheme(), machine=MACHINE, seed=SEED
    )
    halted.run(halt_at=halt)
    assert halted.halted
    assert halted.durable_line is not None
    assert halted.durable_line.meta["halted_at"] == pytest.approx(halt)

    resumed = CheckpointRuntime.restart_from(halted.durable_line)
    rc = resumed.run()

    # the restart IS the crash recovery, continued bit-for-bit
    assert _dumps(rc) == _dumps(rb)
    assert len(resumed.recoveries) == 1
    # and the application's answer is the undisturbed one
    assert rc.result == ra.result


def test_restart_from_disk_roundtrip(tmp_path, T):
    halt = 0.55 * T
    make_scheme = schemes(T)["coord_nb"]
    rb = CheckpointRuntime(
        make_app(),
        scheme=make_scheme(),
        machine=MACHINE,
        seed=SEED,
        fault_model=FaultModel.machine_crash(halt),
    ).run()

    halted = CheckpointRuntime(
        make_app(), scheme=make_scheme(), machine=MACHINE, seed=SEED
    )
    halted.run(halt_at=halt)
    path = tmp_path / "lines" / "run.line"
    halted.durable_line.save(path)

    loaded = DurableLine.load(path)
    assert loaded.meta == halted.durable_line.meta
    rc = CheckpointRuntime.restart_from(loaded).run()
    assert _dumps(rc) == _dumps(rb)

    # restart_from also accepts the path itself
    rc2 = CheckpointRuntime.restart_from(path).run()
    assert _dumps(rc2) == _dumps(rb)


def test_two_restarts_from_one_line_are_independent(T):
    halt = 0.55 * T
    make_scheme = schemes(T)["indep_log"]
    halted = CheckpointRuntime(
        make_app(), scheme=make_scheme(), machine=MACHINE, seed=SEED
    )
    halted.run(halt_at=halt)
    line = halted.durable_line
    r1 = CheckpointRuntime.restart_from(line).run()
    r2 = CheckpointRuntime.restart_from(line).run()
    assert _dumps(r1) == _dumps(r2)


# -- recording off: same report, same resume ----------------------------------

SCHEME_NAMES = sorted(schemes(1.0))


@pytest.mark.parametrize("name", SCHEME_NAMES + ["coord_nb+crash"])
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


def test_untraced_restart_continues_bitwise_identically(T):
    """A/B/C with recording off everywhere: the durable line of an
    untraced run carries its counters."""
    make_scheme = schemes(T)["coord_nbm"]
    halt = 0.55 * T

    def runtime(**kw):
        return CheckpointRuntime(
            make_app(),
            scheme=make_scheme(),
            machine=MACHINE,
            seed=SEED,
            trace=False,
            **kw,
        )

    ra = runtime().run()
    rb = runtime(fault_model=FaultModel.machine_crash(halt)).run()
    halted = runtime()
    halted.run(halt_at=halt)
    assert halted.durable_line.meta["trace"] is False
    resumed = CheckpointRuntime.restart_from(halted.durable_line)
    rc = resumed.run()
    assert not resumed.tracer.enabled and resumed.tracer.events == []
    assert _dumps(rc) == _dumps(rb)
    assert rc.counters["chk.commits"] == rb.checkpoints_committed > 0
    assert rc.result == ra.result


# -- the audit of a resumed run sees the whole history --------------------------


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_audited_resume_of_an_unrecorded_line_is_clean(name, T):
    """A halt records its stream whatever ``trace`` says, so the live
    audit of the resumed run starts from the halted run's events. It used
    to see the continuation alone: ``mlog`` reported 27 violations (a
    durable log watermark of 0, deliveries of seqs "never sent")."""
    halted = CheckpointRuntime(
        make_app(),
        scheme=schemes(T)[name](),
        machine=MACHINE,
        seed=SEED,
        trace=False,
    )
    halted.run(halt_at=0.55 * T)
    assert halted.durable_line.meta["trace"] is False
    with verified():
        resumed = CheckpointRuntime.restart_from(halted.durable_line, trace=True)
        resumed.run()
    report = resumed.audit_report
    assert report.ok and report.events_checked == len(resumed.tracer.events)


def _plant_unsent_delivery(rt, at):
    """Emit, at simulated time *at*, a delivery nothing ever sent."""

    def plant():
        yield rt.engine.timeout(at)
        rt.tracer.event("msg.deliver", src=0, dst=1, seq=10**6, epoch=0, gen=99)

    rt.engine.process(plant(), name="plant")


def test_a_violation_before_the_halt_is_reported_after_the_restart(T):
    halt = 0.55 * T

    def runtime():
        rt = CheckpointRuntime(
            make_app(), scheme=schemes(T)["coord_nb"](), machine=MACHINE, seed=SEED
        )
        _plant_unsent_delivery(rt, 0.3 * T)
        return rt

    with verified(), pytest.raises(VerificationError) as whole:
        runtime().run()
    (planted,) = whole.value.violations
    assert planted.invariant == "channel_fifo" and "never sent" in planted.message

    halted = runtime()
    halted.run(halt_at=halt)  # a halted run ends mid-protocol: not audited
    assert halted.audit_report is None
    with verified(), pytest.raises(VerificationError) as resumed:
        CheckpointRuntime.restart_from(halted.durable_line).run()
    assert resumed.value.violations == [planted]
    assert halted.tracer.events[planted.event_index]["seq"] == 10**6


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


def test_halt_after_completion_never_fires(T):
    make_scheme = schemes(T)["coord_nb"]
    rt = CheckpointRuntime(
        make_app(), scheme=make_scheme(), machine=MACHINE, seed=SEED
    )
    rep = rt.run(halt_at=100.0 * T)  # way past the app's end
    assert not rt.halted
    assert rt.durable_line is None
    assert rep.result is not None


def test_halt_requires_a_scheme():
    rt = CheckpointRuntime(
        make_app(), scheme=NoCheckpointing(), machine=MACHINE, seed=SEED
    )
    with pytest.raises(ResumeError, match="without a checkpointing scheme"):
        rt.run(halt_at=1.0)


def test_halt_must_be_in_the_future():
    rt = CheckpointRuntime(
        make_app(),
        scheme=CoordinatedScheme.NB([1.0]),
        machine=MACHINE,
        seed=SEED,
    )
    with pytest.raises(ResumeError, match="future"):
        rt.run(halt_at=-1.0)


# -- what a durable line cannot carry -----------------------------------------


@pytest.mark.parametrize(
    "where, klass",
    [
        (lambda rt: rt, "CheckpointRuntime"),
        (lambda rt: rt.agents[1], "CoordinatedAgent"),
        (lambda rt: rt.transport, "Transport"),
        (lambda rt: rt.storage, "StoragePlane"),
        (lambda rt: rt.storage.servers[0], "StableStorage"),
    ],
    ids=["runtime", "agent", "transport", "plane", "tier"],
)
def test_unlisted_attribute_fails_the_capture(where, klass, T):
    """Every declared-list capture checks its object: an attribute no
    manifest lists would fall out of the line, so the halt refuses."""
    rt = CheckpointRuntime(
        make_app(), scheme=schemes(T)["coord_nb"](), machine=MACHINE, seed=SEED
    )
    where(rt).planted_state = 1
    with pytest.raises(ResumeError, match=rf"{klass} holds planted_state\b"):
        rt.run(halt_at=0.55 * T)


def test_unpicklable_scheme_attribute_is_a_resume_error(T):
    """A scheme is pickled whole: an engine-bound attribute its
    VOLATILE_FIELDS does not list fails the halt with the component and
    the attribute named, not with pickle's bare TypeError."""
    rt = CheckpointRuntime(
        make_app(), scheme=schemes(T)["coord_nb"](), machine=MACHINE, seed=SEED
    )
    rt.scheme._handle = rt.engine
    with pytest.raises(ResumeError, match=r"'scheme' \(CoordinatedScheme\._handle\)"):
        rt.run(halt_at=0.55 * T)


# -- damaged frames ----------------------------------------------------------


def _saved_line(tmp_path, T):
    halted = CheckpointRuntime(
        make_app(),
        scheme=CoordinatedScheme.NB((T / 4, T / 2)),
        machine=MACHINE,
        seed=SEED,
    )
    halted.run(halt_at=0.55 * T)
    path = tmp_path / "run.line"
    halted.durable_line.save(path)
    return path


def test_load_missing_file_raises(tmp_path):
    with pytest.raises(ResumeError, match="cannot read"):
        DurableLine.load(tmp_path / "nope.line")


def test_load_truncated_frame_raises(tmp_path, T):
    path = _saved_line(tmp_path, T)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])  # torn write
    with pytest.raises(ResumeError, match="CRC|truncated"):
        DurableLine.load(path)


def test_load_flipped_byte_raises(tmp_path, T):
    path = _saved_line(tmp_path, T)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ResumeError, match="CRC"):
        DurableLine.load(path)


def test_load_bad_magic_raises(tmp_path, T):
    path = _saved_line(tmp_path, T)
    raw = path.read_bytes()
    path.write_bytes(b"XXXX" + raw[len(LINE_MAGIC):])
    with pytest.raises(ResumeError, match="bad magic"):
        DurableLine.load(path)


def test_restart_config_mismatch_raises(T):
    halted = CheckpointRuntime(
        make_app(),
        scheme=CoordinatedScheme.NB((T / 4, T / 2)),
        machine=MACHINE,
        seed=SEED,
    )
    halted.run(halt_at=0.55 * T)
    other = Gauss(n=12, flops_per_cell=100.0)  # different application
    with pytest.raises(ResumeError, match="does not match"):
        CheckpointRuntime.restart_from(halted.durable_line, app=other)
