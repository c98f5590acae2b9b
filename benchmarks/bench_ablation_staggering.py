"""A1 ablation: staggering with and without main-memory checkpointing.

Paper claim: "checkpoint staggering was only an effective solution when
used together with the other optimization technique: main-memory
checkpointing". NBS (staggered blocking writes) serialises the blocked
windows and must not win anywhere; NBMS must be the best variant for most
workloads.
"""

from repro.experiments import run_spec, staggering_spec, table23_workloads


def test_staggering_ablation(benchmark, bench_scale, bench_seed, save_result, grid_executor):
    result = benchmark.pedantic(
        lambda: run_spec(
            staggering_spec(workloads=table23_workloads(bench_scale)[:5], seed=bench_seed),
            executor=grid_executor,
        ),
        rounds=1,
        iterations=1,
    )
    table = result.render()
    print("\n" + table)
    save_result("ablation_staggering", table)

    shapes = result.shape_holds()
    assert shapes["nbs_never_best"]
    assert shapes["nbms_best_majority"]
    assert shapes["stagger_helps_with_memory"]
