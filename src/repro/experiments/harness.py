"""Shared experiment machinery: the measured schemes and the overhead rule.

* :func:`scheme_spec` — the measured schemes as declarative
  :class:`~repro.experiments.grid.SchemeSpec`s (timer-driven families get
  their skew as a fixed fraction of the checkpoint interval);
* :func:`make_scheme` — the same factory returning a live scheme object
  (examples and unit tests drive :class:`CheckpointRuntime` directly);
* :func:`overhead_grid` / :class:`WorkloadResult` — the one rule behind
  every overhead number: run NORMAL, place ``rounds`` checkpoints at
  ``T / (rounds + 1.5)``, run each scheme on that same schedule and
  machine, subtract.  The specs that measure failure-free overhead
  (``table1``, ``table23``, the two ablations, ``capture``, ``scale`` and
  both sweeps) build their cells here and only add a ``reduce``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Sequence,
    Tuple,
)

from ..chklib.report import RunReport
from ..chklib.schemes.registry import skewed
from ..machine import MachineParams
from .grid import Cell, GridResults, SchemeSpec, WorkloadSpec, interval_times

if TYPE_CHECKING:
    from ..chklib.schemes.base import Scheme

__all__ = [
    "SCHEMES_TABLE1",
    "SCHEMES_TABLE23",
    "INDEP_SKEW_FRACTION",
    "scheme_spec",
    "make_scheme",
    "overhead_grid",
    "WorkloadResult",
]

#: column order of the paper's Table 1, extended with the third protocol
#: family (communication-induced + sender-based message logging).
SCHEMES_TABLE1 = (
    "coord_nb",
    "indep",
    "coord_nbm",
    "indep_m",
    "coord_nbms",
    "cic",
    "indep_m_mlog",
)
#: column order of the paper's Tables 2 and 3, with the same extension.
SCHEMES_TABLE23 = (
    "coord_nb",
    "indep",
    "coord_nbms",
    "indep_m",
    "cic",
    "indep_m_mlog",
)

#: timer-driven schemes start aligned and drift; the skew amplitude as a
#: fraction of the checkpoint interval.
INDEP_SKEW_FRACTION = 0.25


def scheme_spec(name: str, times: Sequence[float], interval: float) -> SchemeSpec:
    """One of the measured schemes (plus ablation/extension variants) as
    a declarative spec.  Timer-driven families (independent, cic, msglog
    — the registry knows which) get the standard timer skew
    (:data:`INDEP_SKEW_FRACTION` of *interval*); coordinated variants
    carry no skew."""
    if skewed(name):
        return SchemeSpec.of(name, times, skew=INDEP_SKEW_FRACTION * interval)
    return SchemeSpec.of(name, times)


def make_scheme(name: str, times: Sequence[float], interval: float) -> Scheme:
    """Instantiate one of the measured schemes (see :func:`scheme_spec`)."""
    return scheme_spec(name, times, interval).build()


@dataclass
class WorkloadResult:
    """One table row's measurements: the normal run plus each scheme's."""

    label: str
    normal: RunReport
    interval: float
    rounds: int
    reports: Dict[str, RunReport] = field(default_factory=dict)

    @property
    def normal_time(self) -> float:
        return self.normal.sim_time

    def overhead_seconds(self, scheme: str) -> float:
        return self.reports[scheme].sim_time - self.normal.sim_time

    def overhead_percent(self, scheme: str) -> float:
        """Overhead as a percentage of the uncheckpointed run (Table 3)."""
        if self.normal.sim_time <= 0:
            raise ValueError("baseline run has non-positive duration")
        return 100.0 * self.overhead_seconds(scheme) / self.normal.sim_time

    def per_checkpoint(self, scheme: str) -> float:
        """Overhead per checkpoint in seconds (Table 1)."""
        if self.rounds <= 0:
            raise ValueError(f"rounds must be positive, got {self.rounds}")
        return self.overhead_seconds(scheme) / self.rounds


def overhead_grid(
    points: Iterable[Tuple[WorkloadSpec, MachineParams]],
    schemes: Iterable[str],
    rounds: int,
    seed: int,
    scheme_of: Callable[[str, Sequence[float], float], SchemeSpec] = scheme_spec,
) -> Tuple[
    Tuple[Cell, ...],
    Callable[[GridResults], List[Cell]],
    Callable[[GridResults], List[WorkloadResult]],
]:
    """The failure-free overhead measurement over ``(workload, machine)``
    *points*, as the three pieces an :class:`ExperimentSpec` needs.

    Returns ``(baselines, plan, measure)``: one uncheckpointed baseline
    cell per point; ``plan(results)`` — for each point, each of *schemes*
    on the schedule :func:`interval_times` derives from that point's
    baseline duration, on the point's own machine (*scheme_of* builds the
    scheme, so a spec can rewrite it); ``measure(results)`` — one
    :class:`WorkloadResult` per point, in order.
    """
    points = list(points)
    schemes = tuple(schemes)
    baselines = tuple(Cell(workload=w, machine=m, seed=seed) for w, m in points)

    def rows(
        results: GridResults,
    ) -> Iterator[Tuple[WorkloadSpec, Cell, float, Dict[str, Cell]]]:
        for (w, m), base in zip(points, baselines):
            interval, times = interval_times(results[base].sim_time, rounds)
            yield w, base, interval, {
                s: Cell(
                    workload=w,
                    scheme=scheme_of(s, times, interval),
                    machine=m,
                    seed=seed,
                )
                for s in schemes
            }

    def plan(results: GridResults) -> List[Cell]:
        return [c for _, _, _, row in rows(results) for c in row.values()]

    def measure(results: GridResults) -> List[WorkloadResult]:
        return [
            WorkloadResult(
                label=w.label,
                normal=results[base],
                interval=interval,
                rounds=rounds,
                reports={s: results[c] for s, c in row.items()},
            )
            for w, base, interval, row in rows(results)
        ]

    return baselines, plan, measure
