"""ASCII timelines of checkpoint activity.

Reads the recorded event stream and renders two intervals per rank as a
Gantt strip: a cut's blocked window (``proto.cut`` → ``proto.cut_end``)
and its image's stable write (``proto.write_begin`` → ``proto.write_end``)
— the quickest way to *see* the difference between ``Coord_NB`` (one
aligned wall of blocked writes), ``Indep`` (a staircase of autonomous
stalls) and ``Coord_NBMS`` (one tiny blip per rank, writes daisy-chained
in the background).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.tracing import Tracer

__all__ = ["render_timeline"]

#: the interval each strip character paints: its opening and closing kind
_CUT = ("proto.cut", "proto.cut_end")
_WRITE = ("proto.write_begin", "proto.write_end")


def _intervals(
    tracer: Tracer, kinds: Tuple[str, str]
) -> Dict[int, List[Tuple[float, float]]]:
    """Each rank's closed intervals of *kinds*, paired by ``(rank, round)``.
    An opening with no closing (a crash cut it short) is left out."""
    begin, end = kinds
    open_at: Dict[Tuple[int, int], float] = {}
    out: Dict[int, List[Tuple[float, float]]] = {}
    for ev in tracer.events:
        if ev.kind == begin:
            open_at[(ev["rank"], ev["round"])] = ev.time
        elif ev.kind == end:
            start = open_at.pop((ev["rank"], ev["round"]), None)
            if start is not None:
                out.setdefault(int(ev["rank"]), []).append((start, ev.time))
    return out


def render_timeline(
    tracer: Tracer,
    t_end: float,
    width: int = 72,
    t_start: float = 0.0,
    n_ranks: Optional[int] = None,
) -> str:
    """One strip per rank: ``#`` = app blocked in a cut, ``~`` = its data
    streaming to stable storage, ``.`` = computing."""
    if t_end <= t_start:
        raise ValueError("empty time window")
    cuts = _intervals(tracer, _CUT)
    writes = _intervals(tracer, _WRITE)
    ranks = sorted(set(cuts) | set(writes))
    if n_ranks is not None:
        ranks = list(range(n_ranks))
    scale = width / (t_end - t_start)

    def paint(row: List[str], intervals: List[Tuple[float, float]], ch: str) -> None:
        for a, b in intervals:
            lo = max(0, int((a - t_start) * scale))
            hi = min(width - 1, int((b - t_start) * scale))
            for i in range(lo, hi + 1):
                row[i] = ch

    lines = [f"t = {t_start:.1f} .. {t_end:.1f} s   (# blocked, ~ writing)"]
    for rank in ranks:
        row = ["."] * width
        paint(row, writes.get(rank, []), "~")
        paint(row, cuts.get(rank, []), "#")
        lines.append(f"r{rank:<2} |{''.join(row)}|")
    return "\n".join(lines)
