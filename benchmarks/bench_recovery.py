"""R1/R2: the recovery-side claims (asserted in prose in the paper).

R1 — rollback behaviour at a crash: coordinated rollback is bounded and
predictable; independent checkpointing with misaligned timers and no
logging suffers the domino effect; every recovery reproduces the
undisturbed result exactly.

R2 — stable-storage overhead: coordinated holds at most two checkpoints
per process; independent accumulates chains, and garbage collection helps
but never reaches the coordinated bound.
"""

from repro.experiments import domino_spec, run_spec, storage_overhead_spec


def test_domino(benchmark, bench_seed, save_result, grid_executor):
    result = benchmark.pedantic(
        lambda: run_spec(
            domino_spec(seed=bench_seed), executor=grid_executor
        ),
        rounds=1,
        iterations=1,
    )
    table = result.render()
    print("\n" + table)
    save_result("recovery_domino", table)

    shapes = result.shape_holds()
    assert shapes["all_recoveries_exact"]
    assert shapes["coordinated_bounded_rollback"]
    assert shapes["independent_domino_occurs"]
    # the third family (CIC / message logging) runs with the same
    # misaligned timers as the cascading independent variant, yet never
    # dominoes: forced checkpoints / stable logs bound the rollback
    assert shapes["third_family_no_domino"]


def test_storage_overhead(benchmark, bench_seed, save_result, grid_executor):
    result = benchmark.pedantic(
        lambda: run_spec(
            storage_overhead_spec(seed=bench_seed), executor=grid_executor
        ),
        rounds=1,
        iterations=1,
    )
    table = result.render()
    print("\n" + table)
    save_result("recovery_storage", table)

    shapes = result.shape_holds()
    assert shapes["coordinated_bounded"]
    assert shapes["independent_accumulates"]
    assert shapes["gc_without_logs_ineffective"]
    assert shapes["logging_gc_collects"]
