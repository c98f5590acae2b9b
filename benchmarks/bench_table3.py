"""Regenerate Table 3: overhead percentages and the paper's reduction claim.

Shapes asserted:
  * NB -> NBMS overhead reduction is large (paper: a factor of 4 to 17);
  * Coord_NBMS <= Indep_M overall;
  * loosely-coupled apps (TSP, NQUEENS) end below 1% under NBMS;
  * tightly-coupled apps carry the biggest NB overheads.
"""

from repro.experiments import run_spec, table23_spec, table23_workloads


def test_table3(benchmark, bench_scale, bench_seed, save_result, grid_executor):
    result = benchmark.pedantic(
        lambda: run_spec(
            table23_spec(workloads=table23_workloads(bench_scale), seed=bench_seed),
            executor=grid_executor,
        ),
        rounds=1,
        iterations=1,
    )
    table = result.render("table3")
    summary = result.summary()
    print("\n" + table + "\n\n" + summary)
    save_result("table3", table, summary)

    shapes = result.shape_holds()
    assert shapes["nbms_reduction_large"], summary
    assert shapes["nb_beats_indep_overall"], summary
    assert shapes["nbms_beats_indep_m_overall"], summary
    assert shapes["loose_apps_sub_percent"], summary
    assert shapes["tight_apps_heavier"], summary
