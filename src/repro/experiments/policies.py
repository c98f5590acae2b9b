"""P1: checkpoint policies — fixed-interval vs fault-adaptive placement.

The paper fixes the checkpoint schedule up front (N checkpoints at
``T / (N + 1.5)``).  The policy subsystem (:mod:`repro.chklib.policy`)
makes placement a first-class, composable decision; this experiment
demonstrates the headline case on both scheme families: a
failure-rate-adaptive policy *changes its checkpoint frequency* in
response to observed faults, while costing nothing when the machine
behaves.

Three conditions per scheme, all at the same base interval:

* ``periodic`` — a fixed :class:`~repro.chklib.policy.Periodic` policy
  under a machine crash plus transient storage faults (the control);
* ``adaptive`` — :class:`~repro.chklib.policy.FailureRateAdaptive`
  under the identical fault model: observed recoveries and storage
  faults must narrow the interval (``policy.narrowings > 0``), pulling
  the mean decided interval below the quiet run's;
* ``adaptive-quiet`` — the same adaptive policy on a fault-free run: it
  must never narrow, and may relax toward its upper bound.

Every run still produces the exact undisturbed application result, and
every recorded ``policy.*`` event stream passes the
:class:`~repro.verify.invariants.PolicyAdaptation` trace invariants
(runner ``--verify``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis import TableResult, TableView
from ..chklib import RunReport, policy_spec
from ..fault import FaultModel, StorageFaultSpec
from ..machine import MachineParams
from .grid import Cell, ExperimentSpec, GridResults, SchemeSpec, WorkloadSpec
from .workloads import fault_workload

__all__ = ["policies_spec", "POLICY_SCHEMES"]

#: one coordinated and one independent representative.
POLICY_SCHEMES = ("coord_nb", "indep_m_log")

#: the three policy conditions of the experiment.
_CONDITIONS = ("periodic", "adaptive", "adaptive-quiet")


def policies_spec(
    seed: int = 0,
    machine: Optional[MachineParams] = None,
    workload: Optional[WorkloadSpec] = None,
    scale: float = 1.0,
    fault_p: float = 0.08,
) -> ExperimentSpec:
    """The policy comparison grid (deterministic per *seed*)."""
    machine = machine or MachineParams(n_nodes=4)
    workload = workload or fault_workload(scale)
    baseline = Cell(workload=workload, machine=machine, seed=seed)

    def cells_for(results: GridResults) -> Dict[Tuple[str, str], Cell]:
        T = results[baseline].sim_time
        interval = T / 4
        # stop initiating near the end: the last round's background
        # writes and commit need the same tail the fixed schedule leaves.
        stop = 4 * T
        faults = FaultModel(
            machine_crash_times=(0.55 * T,),
            storage=StorageFaultSpec(write_fail_p=fault_p, read_fail_p=fault_p),
        )
        policies = {
            "periodic": policy_spec("periodic", interval=interval, stop=stop),
            "adaptive": policy_spec(
                "failure_adaptive", base_interval=interval, stop=stop
            ),
            "adaptive-quiet": policy_spec(
                "failure_adaptive", base_interval=interval, stop=stop
            ),
        }
        cells = {}
        for name in POLICY_SCHEMES:
            skew = interval / 20 if name.startswith("indep") else 0.0
            for cond in _CONDITIONS:
                cells[(name, cond)] = Cell(
                    workload=workload,
                    scheme=SchemeSpec.of(
                        name, (), skew=skew, policy=policies[cond]
                    ),
                    machine=machine,
                    seed=seed,
                    fault=None if cond == "adaptive-quiet" else faults,
                )
        return cells

    def plan(results: GridResults):
        return list(cells_for(results).values())

    def reduce(results: GridResults) -> TableResult:
        T = results[baseline].sim_time
        expected = results[baseline].result["sum"]
        reports = {
            key: results[c] for key, c in cells_for(results).items()
        }

        def mean_interval(rep: RunReport) -> float:
            decisions = rep.counters.get("policy.decisions", 0.0)
            if not decisions:
                return 0.0
            return rep.counters.get("policy.interval_sum", 0.0) / decisions

        def row(name: str, cond: str) -> List[str]:
            rep = reports[(name, cond)]
            return [
                name,
                cond,
                f"{rep.sim_time / T:.2f}x",
                f"{rep.counters.get('policy.decisions', 0):.0f}",
                f"{mean_interval(rep) / T:.3f}T",
                f"{rep.counters.get('policy.narrowings', 0):.0f}",
                f"{rep.counters.get('policy.widenings', 0):.0f}",
                str(len(rep.recoveries)),
            ]

        view = TableView(
            name="policies",
            title=(
                "P1: checkpoint policies — fixed vs failure-rate-adaptive "
                "(crash at 0.55 T + transient storage faults)"
            ),
            headers=[
                "scheme",
                "policy",
                "time",
                "decisions",
                "mean interval",
                "narrowed",
                "widened",
                "recoveries",
            ],
            rows=[row(n, c) for n in POLICY_SCHEMES for c in _CONDITIONS],
        )

        adaptive = [reports[(n, "adaptive")] for n in POLICY_SCHEMES]
        quiet = [reports[(n, "adaptive-quiet")] for n in POLICY_SCHEMES]
        periodic = [reports[(n, "periodic")] for n in POLICY_SCHEMES]
        shapes = {
            # policies never change what is computed, only when it is saved
            "all_results_exact": all(
                r.result["sum"] == expected for r in reports.values()
            ),
            # observed faults narrow the adaptive interval ...
            "adaptive_narrows_under_faults": all(
                r.counters.get("policy.narrowings", 0) > 0 for r in adaptive
            ),
            # ... and a quiet machine never triggers a narrowing
            "quiet_never_narrows": all(
                r.counters.get("policy.narrowings", 0) == 0 for r in quiet
            ),
            # the adaptive runs checkpoint more often than their quiet twins
            "adaptation_changes_frequency": all(
                mean_interval(a) < mean_interval(q)
                for a, q in zip(adaptive, quiet)
            ),
            # the fixed policy never adapts, faults or not
            "periodic_is_inert": all(
                r.counters.get("policy.narrowings", 0) == 0
                and r.counters.get("policy.widenings", 0) == 0
                for r in periodic
            ),
            # the faulted columns actually crashed and recovered
            "faulted_runs_recovered": all(
                len(r.recoveries) >= 1 for r in adaptive + periodic
            ),
        }
        return TableResult(
            name="policies",
            views=[view],
            shapes=shapes,
            summary_lines=[
                f"adaptive mean interval: "
                f"{mean_interval(adaptive[0]) / T:.3f}T faulted vs "
                f"{mean_interval(quiet[0]) / T:.3f}T quiet "
                f"({POLICY_SCHEMES[0]})",
            ],
            data={
                "normal_time": T,
                "expected": expected,
                "reports": {f"{n}/{c}": r for (n, c), r in reports.items()},
            },
        )

    return ExperimentSpec(
        name="policies",
        baselines=(baseline,),
        plan=plan,
        reduce=reduce,
    )
