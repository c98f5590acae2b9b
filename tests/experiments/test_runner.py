"""CLI runner smoke tests (tiny workloads via monkeypatching)."""

import pytest

import repro.experiments.ablations as ablations_mod
import repro.experiments.runner as runner_mod
import repro.experiments.table1 as table1_mod
import repro.experiments.table23 as table23_mod
from repro.experiments import WorkloadSpec

_FAST = ["--jobs", "1", "--no-cache"]


def tiny_workloads(scale=1.0):
    return [
        WorkloadSpec.of(
            "sor-tiny", "sor", image_bytes=32 * 1024, n=32, iters=50,
            flops_per_cell=800.0,
        ),
        WorkloadSpec.of(
            "nq-tiny", "nqueens", image_bytes=32 * 1024, n=8,
            flops_per_node=60000.0,
        ),
    ]


@pytest.fixture(autouse=True)
def patch_workloads(monkeypatch):
    monkeypatch.setattr(table1_mod, "table1_workloads", tiny_workloads)
    monkeypatch.setattr(table23_mod, "table23_workloads", tiny_workloads)
    monkeypatch.setattr(ablations_mod, "table23_workloads", tiny_workloads)


def test_runner_table1(capsys):
    assert runner_mod.main(["table1"] + _FAST) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "shape checks" in out
    assert "sor-tiny" in out


def test_runner_table2_and_3_share_runs(capsys):
    assert runner_mod.main(["table2"] + _FAST) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out
    assert runner_mod.main(["table3"] + _FAST) == 0
    out = capsys.readouterr().out
    assert "Table 3" in out
    assert "reduction factor" in out


def test_runner_quick_flag(capsys):
    assert runner_mod.main(["table1", "--quick", "--seed", "3"] + _FAST) == 0
    assert "Table 1" in capsys.readouterr().out


def test_runner_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        runner_mod.main(["not-an-experiment"])


def test_runner_requires_experiment_or_list_schemes():
    with pytest.raises(SystemExit):
        runner_mod.main([])


def test_runner_list_schemes(capsys):
    from repro.chklib.schemes.registry import ALIASES

    assert runner_mod.main(["--list-schemes"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""  # rows go to stdout only
    lines = captured.out.strip().splitlines()
    assert len(lines) == len(ALIASES)
    rows = {ln.split()[0]: ln.split()[1:] for ln in lines}
    # every alias appears with its family ...
    assert rows["coord_nbms"][0] == "coordinated"
    assert rows["indep_m"][0] == "independent"
    assert rows["cic"][0] == "cic"
    assert rows["indep_m_mlog"][0] == "msglog"
    # ... and the fixed overrides (or a dash when there are none)
    assert rows["indep_m_log"][1:] == ["logging=True"]
    assert rows["cic_fdas"][1:] == ["cic_rule=fdas"]
    assert rows["coord_nb"][1:] == ["-"]


def test_runner_ablation_staggering(capsys):
    assert runner_mod.main(["ablation-staggering"] + _FAST) == 0
    out = capsys.readouterr().out
    assert "A1" in out and "COORD_NBS" in out


def test_runner_diagnostics_on_stderr_only(capsys):
    assert runner_mod.main(["table1"] + _FAST) == 0
    captured = capsys.readouterr()
    assert "[runner]" not in captured.out
    assert "[runner] grid:" in captured.err

