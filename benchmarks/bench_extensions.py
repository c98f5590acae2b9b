"""E1/E2 extension experiments.

E1 — capture-mode x incremental ablation: copy-on-write and dirty-page
incremental checkpointing (the techniques the paper's related work credits
to Elnozahy et al. [13]) layered on the reproduced schemes.

E2 — behaviour under failures: completion time vs failure rate (graceful
for recovering schemes, catastrophic for the domino case) and the
checkpoint-interval optimum vs Young's formula.
"""

from repro.experiments import (
    capture_spec,
    failure_rates_spec,
    interval_sweep_spec,
    run_spec,
)


def test_capture_ablation(benchmark, bench_seed, save_result, grid_executor):
    result = benchmark.pedantic(
        lambda: run_spec(
            capture_spec(seed=bench_seed), executor=grid_executor
        ),
        rounds=1,
        iterations=1,
    )
    table = result.render()
    print("\n" + table)
    save_result("extension_capture", table)

    shapes = result.shape_holds()
    assert shapes["incremental_writes_less"]
    assert shapes["incremental_big_win_on_ising"]
    assert shapes["incremental_small_win_on_sor"]
    assert shapes["incremental_overhead_not_worse"]


def test_failure_rates(benchmark, bench_seed, save_result, grid_executor):
    result = benchmark.pedantic(
        lambda: run_spec(
            failure_rates_spec(seed=bench_seed), executor=grid_executor
        ),
        rounds=1,
        iterations=1,
    )
    table = result.render()
    print("\n" + table)
    save_result("extension_failure_rates", table)

    shapes = result.shape_holds()
    assert shapes["monotone_in_failure_rate"]
    assert shapes["coordinated_graceful"]
    assert shapes["domino_catastrophic"]


def test_interval_sweep_vs_young(benchmark, bench_seed, save_result, grid_executor):
    result = benchmark.pedantic(
        lambda: run_spec(
            interval_sweep_spec(seed=bench_seed), executor=grid_executor
        ),
        rounds=1,
        iterations=1,
    )
    table = result.render()
    print("\n" + table)
    save_result("extension_interval_sweep", table)

    shapes = result.shape_holds()
    assert shapes["u_shape"]
    assert shapes["young_within_2x"]
