"""E3 extension: two-level stable storage (the authors' follow-up work).

Shapes asserted: the blocking cost of Coord_NB collapses when the capture
write goes to the node's private local disk; recovery restores from the
local disks in parallel (order-of-magnitude faster); the global server
still receives every byte via the background trickle.
"""

from repro.experiments import run_spec, two_level_spec


def test_two_level(benchmark, bench_seed, save_result, grid_executor):
    result = benchmark.pedantic(
        lambda: run_spec(
            two_level_spec(seed=bench_seed), executor=grid_executor
        ),
        rounds=1,
        iterations=1,
    )
    table = result.render()
    print("\n" + table)
    save_result("extension_twolevel", table)

    shapes = result.shape_holds()
    assert shapes["nb_overhead_collapses"]
    assert shapes["recovery_faster"]
    assert shapes["global_still_receives_everything"]
