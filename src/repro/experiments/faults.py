"""E2 extension: completion time under failures, and the optimal interval.

The paper measures failure-free overhead only; checkpointing exists for
the failure case. This experiment closes the loop:

* **F1 — completion time vs failure rate**: run a workload with crashes
  sampled from an exponential inter-arrival distribution (deterministic
  per seed) under the best coordinated scheme, independent with logging,
  and independent without logging (domino: every crash restarts from
  scratch). Completion time degrades gracefully for the first two and
  catastrophically for the third.

* **F2 — checkpoint-interval sweep vs Young's formula**: with failures,
  both too-frequent and too-rare checkpointing cost time; the measured
  optimum should sit near Young's first-order estimate
  ``T_opt = sqrt(2 * delta * MTBF)`` where *delta* is the per-checkpoint
  overhead.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, Optional, Sequence

from ..analysis import TableResult, TableView, fmt_seconds
from ..fault.model import FaultModel
from ..fault.plans import CrashSchedule
from ..machine import MachineParams
from .grid import Cell, ExperimentSpec, GridResults, SchemeSpec, WorkloadSpec, interval_times
from .workloads import scaled_iters

__all__ = ["failure_rates_spec", "interval_sweep_spec", "young_interval"]

_F1_SCHEMES = ("coord_nbms", "indep_m_log", "indep_m_nolog")


def young_interval(per_checkpoint_overhead: float, mtbf: float) -> float:
    """Young's first-order optimal checkpoint interval."""
    if per_checkpoint_overhead <= 0 or mtbf <= 0:
        raise ValueError("overhead and MTBF must be positive")
    return math.sqrt(2.0 * per_checkpoint_overhead * mtbf)


def _default_workload(scale: float) -> WorkloadSpec:
    return WorkloadSpec.of(
        "sor-128",
        "sor",
        n=128,
        iters=scaled_iters(480, scale),
        flops_per_cell=40.0,
    )


def _f1_scheme(name: str, times, skew: float) -> SchemeSpec:
    if name == "coord_nbms":
        return SchemeSpec.of("coord_nbms", times)
    return SchemeSpec.of(name, times, skew=skew)


def failure_rates_spec(
    mtbf_factors: Sequence[float] = (float("inf"), 1.0, 0.5, 0.33),
    seed: int = 0,
    machine: Optional[MachineParams] = None,
    rounds: int = 4,
    trials: int = 4,
    workload: Optional[WorkloadSpec] = None,
    scale: float = 1.0,
) -> ExperimentSpec:
    """F1: mean completion time over *trials* independent (deterministic)
    crash sequences per failure rate; all schemes face identical crashes
    within a trial."""
    machine = machine or MachineParams.xplorer8()
    workload = workload or _default_workload(scale)
    factors = sorted(mtbf_factors, reverse=True)
    baseline = Cell(workload=workload, machine=machine, seed=seed)

    @functools.lru_cache(maxsize=1)
    def cells_at(T: float):
        interval, times = interval_times(T, rounds)
        skew = 0.1 * interval
        grid = {}
        for scheme_name in _F1_SCHEMES:
            for factor in factors:
                n_trials = 1 if factor == float("inf") else trials
                for trial in range(n_trials):
                    if factor == float("inf"):
                        fault = None
                    else:
                        fault = FaultModel(
                            machine_crash_times=CrashSchedule(
                                factor * T, 40 * T, seed, f"f1@{factor}#{trial}"
                            )
                        )
                    grid[(scheme_name, factor, trial)] = Cell(
                        workload=workload,
                        scheme=_f1_scheme(scheme_name, times, skew),
                        machine=machine,
                        seed=seed,
                        fault=fault,
                    )
        return grid

    def plan(results: GridResults):
        return list(cells_at(results[baseline].sim_time).values())

    def reduce(results: GridResults) -> TableResult:
        T = results[baseline].sim_time
        grid = cells_at(T)
        completion: Dict[str, Dict[float, float]] = {}
        for scheme_name in _F1_SCHEMES:
            completion[scheme_name] = {}
            for factor in factors:
                n_trials = 1 if factor == float("inf") else trials
                total = sum(
                    results[grid[(scheme_name, factor, trial)]].sim_time
                    for trial in range(n_trials)
                )
                completion[scheme_name][factor] = total / n_trials
        schemes = sorted(completion)
        view = TableView(
            name="failure-rates",
            title="F1: mean completion time (x failure-free) vs failure rate",
            headers=["MTBF / T"] + schemes,
            rows=[
                [f"{f:.1f}" if f != float("inf") else "inf"]
                + [completion[s][f] / T for s in schemes]
                for f in factors
            ],
            fmt=lambda v: f"{v:.2f}x" if isinstance(v, float) else str(v),
        )
        worst = min(f for f in factors if f != float("inf"))
        at_worst = {s: completion[s][worst] for s in completion}
        return TableResult(
            name="failure-rates",
            views=[view],
            shapes={
                # more failures -> more time, for every scheme (factors
                # sorted descending: later entries mean higher failure
                # rates)
                "monotone_in_failure_rate": all(
                    completion[s][b] >= completion[s][a] * 0.999
                    for s in completion
                    for a, b in zip(factors, factors[1:])
                ),
                # recovery keeps the degradation graceful for checkpointing
                # schemes even at MTBF = T/2 ...
                "coordinated_graceful": at_worst["coord_nbms"] < 4.0 * T,
                # ... while the domino case re-runs from scratch per crash
                "domino_catastrophic": at_worst["indep_m_nolog"]
                > 1.3 * at_worst["coord_nbms"],
            },
            summary_lines=[
                f"at MTBF = {worst:.2f}xT: "
                + ", ".join(
                    f"{s}={at_worst[s] / T:.2f}x" for s in schemes
                ),
            ],
            data={
                "mtbf_factors": factors,
                "normal_time": T,
                "completion": completion,
            },
        )

    return ExperimentSpec(
        name="failure-rates",
        baselines=(baseline,),
        plan=plan,
        reduce=reduce,
    )



def interval_sweep_spec(
    interval_fractions: Sequence[float] = (0.04, 0.08, 0.15, 0.3, 0.6),
    mtbf_factor: float = 1.0,
    seed: int = 0,
    machine: Optional[MachineParams] = None,
    workload: Optional[WorkloadSpec] = None,
    scale: float = 1.0,
) -> ExperimentSpec:
    """F2: completion time vs checkpoint interval, against Young's
    estimate."""
    machine = machine or MachineParams.xplorer8()
    workload = workload or _default_workload(scale)
    fractions = list(interval_fractions)
    baseline = Cell(workload=workload, machine=machine, seed=seed)

    @functools.lru_cache(maxsize=1)
    def cells_at(T: float):
        mtbf = mtbf_factor * T
        fault = FaultModel(
            machine_crash_times=CrashSchedule(mtbf, 30 * T, seed, "sweep")
        )
        intervals = [f * T for f in fractions]
        sweep = {
            interval: Cell(
                workload=workload,
                scheme=SchemeSpec.of(
                    "coord_nbms",
                    tuple(
                        interval * (i + 1)
                        for i in range(int(30 * T / interval))
                    ),
                ),
                machine=machine,
                seed=seed,
                fault=fault,
            )
            for interval in intervals
        }
        # failure-free run at the mid interval, to measure the
        # per-checkpoint overhead delta Young's formula needs.
        mid = intervals[len(intervals) // 2]
        k = max(1, int(T / mid) - 1)
        ff = Cell(
            workload=workload,
            scheme=SchemeSpec.of(
                "coord_nbms", tuple(mid * (i + 1) for i in range(k))
            ),
            machine=machine,
            seed=seed,
        )
        return T, mtbf, intervals, sweep, (mid, k, ff)

    def plan(results: GridResults):
        _, _, _, sweep, (_, _, ff) = cells_at(results[baseline].sim_time)
        return list(sweep.values()) + [ff]

    def reduce(results: GridResults) -> TableResult:
        T, mtbf, intervals, sweep, (mid, k, ff) = cells_at(results[baseline].sim_time)
        completion = {
            interval: results[cell].sim_time
            for interval, cell in sweep.items()
        }
        delta = max(1e-6, (results[ff].sim_time - T) / k)
        measured_optimum = min(intervals, key=lambda i: completion[i])
        young = young_interval(delta, mtbf)
        view = TableView(
            name="interval-sweep",
            title="F2: completion time vs checkpoint interval",
            headers=["interval (s)", "completion (s)", "vs normal"],
            rows=[
                [
                    f"{i:.0f}",
                    fmt_seconds(completion[i]),
                    f"{completion[i] / T:.2f}x",
                ]
                for i in intervals
            ],
            footer=(
                f"measured optimum ~{measured_optimum:.0f} s; "
                f"Young's estimate sqrt(2*{delta:.2f}*{mtbf:.0f}) = "
                f"{young:.0f} s"
            ),
        )
        xs = [completion[i] for i in intervals]
        return TableResult(
            name="interval-sweep",
            views=[view],
            shapes={
                # U-shape: the extremes are worse than the optimum
                "u_shape": xs[0] > min(xs) and xs[-1] > min(xs),
                # Young's estimate lands within the sweep's resolution
                # (between half and double the measured optimum)
                "young_within_2x": (
                    0.5 * measured_optimum <= young <= 2.0 * measured_optimum
                ),
            },
            summary_lines=[
                f"measured optimum ~{measured_optimum:.0f} s vs Young "
                f"{young:.0f} s",
            ],
            data={
                "intervals": intervals,
                "completion": completion,
                "mtbf": mtbf,
                "delta": delta,
                "normal_time": T,
                "measured_optimum": measured_optimum,
                "young_estimate": young,
            },
        )

    return ExperimentSpec(
        name="interval-sweep",
        baselines=(baseline,),
        plan=plan,
        reduce=reduce,
    )
