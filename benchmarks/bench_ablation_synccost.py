"""A2 ablation: synchronisation cost vs checkpoint-saving cost.

Paper claim: "the overhead of synchronizing the checkpoints is negligible
and presents a minor contribution to the overall performance cost"; the
saving of local checkpoints to stable storage dominates.
"""

from repro.experiments import run_spec, sync_cost_spec, table23_workloads


def test_sync_cost(benchmark, bench_scale, bench_seed, save_result, grid_executor):
    result = benchmark.pedantic(
        lambda: run_spec(
            sync_cost_spec(workloads=table23_workloads(bench_scale)[:5], seed=bench_seed),
            executor=grid_executor,
        ),
        rounds=1,
        iterations=1,
    )
    table = result.render()
    print("\n" + table)
    save_result("ablation_synccost", table)

    shapes = result.shape_holds()
    assert shapes["sync_cost_negligible"]
    assert shapes["saving_dominates"]
