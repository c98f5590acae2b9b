"""Experiment-harness tests on miniature workloads (fast, full machinery)."""

import pytest

from repro.chklib.schemes.registry import family_of
from repro.experiments import (
    SCHEMES_TABLE1,
    Cell,
    WorkloadSpec,
    cell_key,
    interval_times,
    make_scheme,
    overhead_grid,
    run_spec,
    scale_spec,
    scheme_spec,
    table1_spec,
    table1_workloads,
    table23_spec,
    table23_workloads,
)
from repro.experiments.executor import GridExecutor
from repro.machine import MachineParams

TINY = [
    WorkloadSpec.of(
        "sor-tiny", "sor", image_bytes=64 * 1024, n=40, iters=60,
        flops_per_cell=600.0,
    ),
    WorkloadSpec.of(
        "nq-tiny", "nqueens", image_bytes=64 * 1024, n=9,
        flops_per_node=40000.0,
    ),
]
MACHINE = MachineParams(n_nodes=4)


class TestSchemeFactory:
    @pytest.mark.parametrize(
        "name",
        [
            "coord_nb",
            "coord_nbm",
            "coord_nbms",
            "coord_nbs",
            "indep",
            "indep_m",
            "indep_log",
            "indep_m_log",
        ],
    )
    def test_known_schemes(self, name):
        scheme = make_scheme(name, [1.0, 2.0], 1.0)
        assert scheme.name

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            make_scheme("nope", [1.0], 1.0)

    def test_variant_flags(self):
        assert not make_scheme("coord_nb", [1.0], 1.0).memory_ckpt
        assert make_scheme("coord_nbm", [1.0], 1.0).memory_ckpt
        nbms = make_scheme("coord_nbms", [1.0], 1.0)
        assert nbms.memory_ckpt and nbms.staggered
        nbs = make_scheme("coord_nbs", [1.0], 1.0)
        assert nbs.staggered and not nbs.memory_ckpt


def _run_grid(baselines, plan):
    """The baselines, then the planned cells: (results, planned)."""
    ex = GridExecutor(jobs=1, use_cache=False)
    results = ex.run_cells(baselines)
    planned = plan(results)
    ex.run_cells(planned)
    return results, planned


class TestOverheadGrid:
    def test_plan_is_the_hand_built_grid(self):
        schemes, rounds, seed = ("coord_nb", "indep_m"), 2, 7
        points = [(w, MACHINE) for w in TINY]
        baselines, plan, _ = overhead_grid(points, schemes, rounds, seed)
        assert [cell_key(c) for c in baselines] == [
            cell_key(Cell(workload=w, machine=MACHINE, seed=seed)) for w in TINY
        ]
        results, planned = _run_grid(baselines, plan)
        expected = []
        for w, base in zip(TINY, baselines):
            interval, times = interval_times(results[base].sim_time, rounds)
            expected += [
                Cell(
                    workload=w,
                    scheme=scheme_spec(s, times, interval),
                    machine=MACHINE,
                    seed=seed,
                )
                for s in schemes
            ]
        assert [cell_key(c) for c in planned] == [cell_key(c) for c in expected]

    def test_per_point_machines_are_honoured(self):
        machines = [MachineParams(n_nodes=2), MachineParams(n_nodes=4)]
        baselines, plan, _ = overhead_grid(
            [(TINY[0], m) for m in machines], ("coord_nb",), 2, 0
        )
        _, planned = _run_grid(baselines, plan)
        assert [c.machine for c in baselines] == machines
        assert [c.machine for c in planned] == machines

    def test_scheme_of_hook_rewrites_the_scheme(self):
        # scale's hook: peers-scoped markers on coordinated cells only
        spec = scale_spec(ns=(4,), scale=0.2)
        ex = GridExecutor(jobs=1, use_cache=False)
        (base,) = spec.baselines
        planned = spec.plan(ex.run_cells(spec.baselines))
        interval, times = interval_times(ex.results[base].sim_time, 2)
        by_name = dict(zip(SCHEMES_TABLE1, planned))
        for name, cell in by_name.items():
            standard = scheme_spec(name, times, interval)
            if name.startswith("coord"):
                assert cell.scheme.marker_scope == "peers"
                assert standard.marker_scope == "all"
            else:
                assert cell.scheme == standard
                assert cell.scheme.skew == pytest.approx(0.25 * interval)

    def test_overheads_positive_and_consistent(self):
        schemes = ("coord_nb", "coord_nbms")
        baselines, plan, measure = overhead_grid(
            [(TINY[0], MACHINE)], schemes, 2, 0
        )
        results, _ = _run_grid(baselines, plan)
        (res,) = measure(results)
        assert res.label == "sor-tiny"
        assert res.normal_time > 0
        for scheme in schemes:
            assert res.overhead_seconds(scheme) > 0
            assert res.overhead_percent(scheme) == pytest.approx(
                100 * res.overhead_seconds(scheme) / res.normal_time
            )
            assert res.per_checkpoint(scheme) == pytest.approx(
                res.overhead_seconds(scheme) / 2
            )
            # a coordinated scheme cuts exactly once per rank per round
            assert res.reports[scheme].checkpoints_taken == 2 * MACHINE.n_nodes

    def test_interval_spacing(self):
        baselines, plan, measure = overhead_grid([(TINY[0], MACHINE)], (), 3, 0)
        results, planned = _run_grid(baselines, plan)
        assert planned == []
        (res,) = measure(results)
        assert res.interval == pytest.approx(res.normal_time / 4.5)


class TestWorkloadCatalogues:
    def test_table1_has_21_rows(self):
        ws = table1_workloads()
        assert len(ws) == 21
        labels = [w.label for w in ws]
        assert sum(1 for x in labels if x.startswith("ising")) == 8
        assert sum(1 for x in labels if x.startswith("sor")) == 6
        assert "tsp-12" in labels and "nqueens-12" in labels

    def test_table23_has_9_rows(self):
        assert len(table23_workloads()) == 9

    def test_scale_shrinks_iterations(self):
        full = table1_workloads(1.0)[0].build()
        quick = table1_workloads(0.2)[0].build()
        assert quick.iters < full.iters
        assert quick.n == full.n  # sizes (checkpoint volumes) unchanged

    def test_specs_build_fresh_instances(self):
        w = table1_workloads()[0]
        assert w.build() is not w.build()


class TestTableRunners:
    def test_table1_on_tiny_workloads(self):
        result = run_spec(table1_spec(workloads=TINY, machine=MACHINE, rounds=2))
        table = result.render()
        assert "sor-tiny" in table and "nq-tiny" in table
        assert "COORD_NBMS" in table
        rows = result.data["rows"]
        assert len(rows) == 2
        assert all(set(r) == set(SCHEMES_TABLE1) for r in rows)
        # summary lines render
        assert "better in" in result.summary()
        assert set(result.shape_holds()) == {
            "nb_beats_indep_majority",
            "indep_m_beats_nbm_majority",
            "nbms_beats_indep_m_majority",
        }

    def test_table23_on_tiny_workloads(self):
        result = run_spec(
            table23_spec(workloads=TINY, machine=MACHINE, rounds=2)
        )
        t2 = result.render("table2")
        t3 = result.render("table3")
        assert "NORMAL" in t2
        assert "%" in t3
        red = result.data["reduction"]
        assert red["min"] > 0
        assert "reduction factor" in result.summary()
        # every run takes its two rounds; CIC adds its forced checkpoints
        for res in result.data["results"]:
            for scheme, report in res.reports.items():
                taken, cut = report.checkpoints_taken, 2 * MACHINE.n_nodes
                if family_of(scheme) == "cic":
                    assert taken >= cut, (res.label, scheme)
                else:
                    assert taken == cut, (res.label, scheme)
