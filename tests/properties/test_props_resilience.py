"""End-to-end property tests for the fault-injection subsystem.

Random fault models — probabilistic storage faults, scheduled corruption,
a machine crash — are thrown at full simulated runs, and the resilience
invariants checked:

* the run always completes with the **exact** fault-free result
  (retries, aborts, quarantine and line fallback never corrupt state);
* every recovery restores a line satisfying the scheme's recoverability
  requirement (``RecoveryEvent.line_consistent``);
* no rank ever resumes from an uncommitted or quarantined checkpoint
  (audited at the moment each candidate line is selected).

Every registry alias is drawn, so each capture mode, staggering gate and
family's failed-write handling runs under storage faults.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import SOR
from repro.chklib import CheckpointRuntime
from repro.chklib.schemes.registry import ALIASES as ALIAS_ROWS, skewed
from repro.experiments.grid import SchemeSpec
from repro.fault import FaultModel, StorageFaultSpec
from repro.machine import MachineParams

N_RANKS = 4
MACHINE = MachineParams(n_nodes=N_RANKS)
ALIASES = [alias for alias, _base, _fixed in ALIAS_ROWS]


def _app():
    app = SOR(n=20, iters=8, flops_per_cell=3000.0)
    app.image_bytes = 16 * 1024
    return app


@functools.lru_cache(maxsize=None)
def _baseline(seed):
    """(undisturbed sim time, exact application result) for *seed*."""
    report = CheckpointRuntime(_app(), machine=MACHINE, seed=seed).run()
    return report.sim_time, report.result["sum"]


def _make_scheme(alias, T):
    skew = T / 50 if skewed(alias) else 0.0
    return SchemeSpec.of(alias, [T / 4, T / 2], skew=skew).build()


class AuditingRuntime(CheckpointRuntime):
    """Snapshots the state of every candidate recovery line the runtime
    accepts, at the moment of acceptance (records newer than the line are
    discarded afterwards, so post-run inspection would be too late)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.audited_lines = []

    def _check_line(self, line):
        super()._check_line(line)
        self.audited_lines.append(
            {
                rank: None
                if rec is None
                else (rec.committed, rec.quarantined, rec.written_at is not None)
                for rank, rec in line.items()
            }
        )


@st.composite
def fault_scenarios(draw):
    seed = draw(st.integers(0, 3))
    p_write = draw(st.sampled_from([0.0, 0.02, 0.05, 0.15]))
    p_read = draw(st.sampled_from([0.0, 0.02, 0.05, 0.15]))
    p_corrupt = draw(st.sampled_from([0.0, 0.05, 0.25]))
    # scheduled corruption of an early checkpoint of a random rank — the
    # quarantine/fallback path, forced deterministically
    corrupt_ckpts = ()
    if draw(st.booleans()):
        corrupt_ckpts = ((draw(st.integers(0, N_RANKS - 1)), draw(st.integers(1, 2))),)
    crash_frac = draw(st.floats(0.3, 0.95))
    max_retries = draw(st.integers(0, 4))
    return dict(
        seed=seed,
        spec=StorageFaultSpec(
            write_fail_p=p_write,
            read_fail_p=p_read,
            corrupt_p=p_corrupt,
            corrupt_ckpts=corrupt_ckpts,
        ),
        crash_frac=crash_frac,
        max_retries=max_retries,
    )


def _run(alias, sc):
    T, expected = _baseline(sc["seed"])
    at = sc["crash_frac"] * T
    model = FaultModel.machine_crash(
        at, storage=sc["spec"], max_retries=sc["max_retries"]
    )
    rt = AuditingRuntime(
        _app(),
        scheme=_make_scheme(alias, T),
        machine=MACHINE,
        seed=sc["seed"],
        fault_model=model,
    )
    return rt, rt.run(), expected


@pytest.mark.parametrize("alias", ALIASES)
@given(sc=fault_scenarios())
@settings(max_examples=12, deadline=None)
def test_result_exact_and_recovery_sound_under_storage_faults(alias, sc):
    rt, report, expected = _run(alias, sc)
    assert report.result["sum"] == expected
    assert report.recoveries, "the scheduled crash must actually fire"
    for ev in report.recoveries:
        assert ev.line_consistent, f"unsound line restored: {ev}"


@pytest.mark.parametrize("alias", ALIASES)
@given(sc=fault_scenarios())
@settings(max_examples=12, deadline=None)
def test_no_rank_resumes_from_uncommitted_or_quarantined(alias, sc):
    rt, report, _ = _run(alias, sc)
    assert rt.audited_lines, "recovery never selected a line"
    for line in rt.audited_lines:
        for rank, flags in line.items():
            if flags is None:  # initial state — always safe
                continue
            committed, quarantined, written = flags
            assert committed, f"rank {rank} resumed from uncommitted checkpoint"
            assert not quarantined, f"rank {rank} resumed from quarantined checkpoint"
            assert written, f"rank {rank} resumed from unwritten checkpoint"


@pytest.mark.parametrize("alias", ALIASES)
@given(sc=fault_scenarios())
@settings(max_examples=8, deadline=None)
def test_retry_accounting_is_bounded(alias, sc):
    """Retries never exceed the per-operation budget times the number of
    faults, and a zero-fault spec injects nothing."""
    rt, report, _ = _run(alias, sc)
    budget = sc["max_retries"]
    assert report.storage_write_retries <= report.storage_write_faults * max(budget, 1)
    assert report.storage_read_retries <= report.storage_read_faults * max(budget, 1)
    if not sc["spec"].any_faults:
        assert report.storage_write_faults == 0
        assert report.storage_read_faults == 0
        assert report.checkpoints_quarantined == 0
