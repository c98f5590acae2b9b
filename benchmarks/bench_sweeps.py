"""A3 sweeps: storage contention as the mechanism behind Coord_NB's cost.

S1: the per-checkpoint cost of Coord_NB grows superlinearly with the
number of simultaneous writers (queueing + thrash at the single server).

S2: overhead falls as the storage path speeds up, and staggering's
advantage is largest when storage is slow.
"""

from repro.experiments import bandwidth_sweep_spec, run_spec, writer_sweep_spec


def test_writer_sweep(benchmark, bench_seed, save_result, grid_executor):
    result = benchmark.pedantic(
        lambda: run_spec(
            writer_sweep_spec(node_counts=(2, 4, 8), seed=bench_seed), executor=grid_executor
        ),
        rounds=1,
        iterations=1,
    )
    table = result.render()
    print("\n" + table)
    save_result("sweep_writers", table)

    shapes = result.shape_holds()
    assert shapes["cost_grows_with_writers"]
    assert shapes["superlinear_in_volume"]


def test_bandwidth_sweep(benchmark, bench_seed, save_result, grid_executor):
    result = benchmark.pedantic(
        lambda: run_spec(
            bandwidth_sweep_spec(seed=bench_seed), executor=grid_executor
        ),
        rounds=1,
        iterations=1,
    )
    table = result.render()
    print("\n" + table)
    save_result("sweep_storage", table)

    shapes = result.shape_holds()
    assert shapes["overhead_falls_with_bandwidth"]
    assert shapes["staggering_matters_most_when_slow"]
