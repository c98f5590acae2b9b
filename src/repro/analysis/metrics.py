"""Scheme comparisons over a table's rows: win counts and reduction factors."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Tuple

__all__ = [
    "count_wins",
    "reduction_factor",
    "SchemeComparison",
]


def count_wins(
    rows: Iterable[Mapping[str, float]], a: str, b: str, tol: float = 0.0
) -> Tuple[int, int, int]:
    """``(a_wins, b_wins, ties)`` comparing column *a* vs *b* per row
    (lower is better; differences within *tol* are ties)."""
    a_wins = b_wins = ties = 0
    for row in rows:
        da, db = row[a], row[b]
        if abs(da - db) <= tol:
            ties += 1
        elif da < db:
            a_wins += 1
        else:
            b_wins += 1
    return a_wins, b_wins, ties


def reduction_factor(
    rows: Iterable[Mapping[str, float]], frm: str, to: str
) -> Dict[str, float]:
    """Min/max/mean of ``row[frm] / row[to]`` — e.g. the paper's "reduction
    factor of 4 up to 17" from Coord_NB to Coord_NBMS."""
    factors = []
    for row in rows:
        if row[to] > 0:
            factors.append(row[frm] / row[to])
    if not factors:
        return {"min": float("nan"), "max": float("nan"), "mean": float("nan")}
    return {
        "min": min(factors),
        "max": max(factors),
        "mean": sum(factors) / len(factors),
    }


@dataclass
class SchemeComparison:
    """Winner statistics of one scheme pair over a table."""

    a: str
    b: str
    a_wins: int
    b_wins: int
    ties: int

    @classmethod
    def over(
        cls, rows: Iterable[Mapping[str, float]], a: str, b: str, tol: float = 0.0
    ) -> "SchemeComparison":
        wa, wb, t = count_wins(rows, a, b, tol=tol)
        return cls(a=a, b=b, a_wins=wa, b_wins=wb, ties=t)

    def __str__(self) -> str:
        return (
            f"{self.a} better in {self.a_wins}, {self.b} better in "
            f"{self.b_wins}, ties {self.ties}"
        )
