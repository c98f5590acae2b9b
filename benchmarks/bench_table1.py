"""Regenerate Table 1: overhead per checkpoint, 21 configurations x 5 schemes.

Paper shapes asserted here:
  * Coord_NB beats Indep in the majority of cases (paper: 15/21);
  * Indep_M beats Coord_NBM in the majority (paper: 12/15);
  * Coord_NBMS beats Indep_M in the majority;
  * the loosely-coupled apps (TSP, NQUEENS) are among Indep's wins.
"""

from repro.experiments import run_spec, table1_spec, table1_workloads


def test_table1(benchmark, bench_scale, bench_seed, save_result, grid_executor):
    result = benchmark.pedantic(
        lambda: run_spec(
            table1_spec(workloads=table1_workloads(bench_scale), seed=bench_seed),
            executor=grid_executor,
        ),
        rounds=1,
        iterations=1,
    )
    table = result.render()
    summary = result.summary()
    print("\n" + table + "\n\n" + summary)
    save_result("table1", table, summary)

    shapes = result.shape_holds()
    assert shapes["nb_beats_indep_majority"], summary
    assert shapes["indep_m_beats_nbm_majority"], summary
    assert shapes["nbms_beats_indep_m_majority"], summary

    # the minority where Indep wins must include the loosely-coupled apps
    rows = {
        res.label: row
        for res, row in zip(result.data["results"], result.data["rows"])
    }
    for label in ("tsp-12", "nqueens-12"):
        assert rows[label]["indep"] <= rows[label]["coord_nb"] * 1.05, label
