"""The scale sweep spec and the runner's --ranks plumbing."""

import pytest

import repro.experiments.runner as runner_mod
from repro.experiments import (
    SCALE_NS,
    run_spec,
    scale_machine,
    scale_spec,
    scale_workload,
)
from repro.machine import MachineParams

_FAST = ["--jobs", "1", "--no-cache"]


def test_scale_workload_is_weak_scaled():
    for n_ranks in (8, 64, 1024):
        w = scale_workload(n_ranks)
        params = dict(w.params)
        # exactly 4 interior rows per rank
        assert params["n"] == 4 * n_ranks + 2
        # constant simulated work per rank per iteration
        total = params["flops_per_cell"] * 4 * params["n"]
        assert total == pytest.approx(600_000.0)
        assert w.image_bytes == 32 * 1024


def test_scale_machine_defaults():
    assert scale_machine(8).topology.kind == "flat"
    m = scale_machine(256)
    assert m.topology.kind == "racks"
    assert m.plane.servers == 4


def test_scale_machine_is_the_only_rule():
    # the paper's flat Xplorer up to its native 8 ranks...
    for n in (1, 2, 8):
        assert scale_machine(n) == MachineParams.xplorer(n)
    # ...and the one hierarchical shape beyond that
    for n in (9, 64, 512):
        assert scale_machine(n) == MachineParams.hierarchical(n)


def test_scale_spec_grid_shape():
    spec = scale_spec(ns=(4, 8), scale=0.2)
    assert spec.name == "scale"
    assert len(spec.baselines) == 2
    assert {c.machine.n_nodes for c in spec.baselines} == {4, 8}


def test_scale_spec_rejects_empty():
    with pytest.raises(ValueError):
        scale_spec(ns=())


def test_run_scale_small_end_to_end():
    result = run_spec(scale_spec(ns=(4, 8), scale=0.2, rounds=2))
    assert result.name == "scale"
    rows = result.data["rows"]
    assert len(rows) == 2
    assert all(v > 0 for row in rows for v in row.values())
    assert "nbms_win_grows_with_scale" in result.shapes
    # coordinated cells measured with peers-scoped markers
    text = result.render()
    assert "N=4" in text and "N=8" in text


def test_scale_single_point_has_no_growth_shape():
    result = run_spec(scale_spec(ns=(6,), scale=0.2))
    assert "nbms_win_grows_with_scale" not in result.shapes
    assert "nbms_beats_nb_everywhere" in result.shapes


def test_default_ns():
    assert SCALE_NS == (8, 64, 256, 1024, 4096)
    spec = scale_spec()
    assert [c.machine.n_nodes for c in spec.baselines] == list(SCALE_NS)


def test_runner_scale_with_ranks(capsys):
    assert runner_mod.main(["scale", "--quick", "--ranks", "6"] + _FAST) == 0
    out = capsys.readouterr().out
    assert "Scale" in out
    assert "N=6" in out
    assert "shape checks" in out


def test_runner_ranks_resizes_other_experiments(capsys):
    assert (
        runner_mod.main(["table1", "--quick", "--ranks", "6"] + _FAST) == 0
    )
    out = capsys.readouterr().out
    assert "sor-weak-6" in out


def test_runner_rejects_unknown_topology(capsys):
    # one machine per rank count: there is no --topology option at all
    with pytest.raises(SystemExit) as exc:
        runner_mod.main(["table1", "--topology", "racks"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --topology racks" in capsys.readouterr().err


def test_scale_excluded_from_all():
    assert "scale" in runner_mod._EXPERIMENTS
    assert "scale" not in runner_mod._ALL_ORDER
    # every other experiment still runs under ``all``
    assert len(runner_mod._ALL_ORDER) == len(runner_mod._EXPERIMENTS) - 1
