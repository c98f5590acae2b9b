"""R3: resilience under faulty stable storage.

The fault-injection subsystem's end-to-end claims: transient storage
faults are absorbed by bounded retries, an unretryable write failure
aborts the coordinated round (or drops the independent local checkpoint),
silent corruption is quarantined at recovery with fallback to an older
committed line — and through all of it every scheme still reproduces the
undisturbed application result exactly.
"""

from repro.experiments import resilience_spec, run_spec


def test_resilience(benchmark, bench_seed, save_result, grid_executor):
    result = benchmark.pedantic(
        lambda: run_spec(
            resilience_spec(seed=bench_seed), executor=grid_executor
        ),
        rounds=1,
        iterations=1,
    )
    table = result.render()
    print("\n" + table)
    save_result("resilience", table)

    shapes = result.shape_holds()
    assert shapes["all_results_exact"]
    assert shapes["all_recoveries_sound"]
    assert shapes["fault_free_is_clean"]
    assert shapes["faults_injected"]
    assert shapes["retries_absorb_faults"]
    assert shapes["coordinated_aborts_cleanly"]
    assert shapes["independent_drops_locally"]
    assert shapes["mlog_degrades_to_optimistic"]
    assert shapes["corruption_quarantined"]
