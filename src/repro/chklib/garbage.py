"""Checkpoint space reclamation.

For independent checkpointing the store accumulates a chain per process; a
checkpoint can be discarded once it can no longer appear on any future
recovery line. Because channel counters only grow, the maximal consistent
line computed *now* only ever moves forward — so everything strictly older
than the current line is garbage (the classic result behind Wang et al.'s
space reclamation; our rule is the count-based equivalent).

Coordinated checkpointing needs none of this: commit of global checkpoint
*n* discards *n-1* outright (done inline by the scheme); the store never
holds more than two checkpoints per process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .recovery import build_cuts, consistent_line
from .storage_mgr import CheckpointStore

__all__ = ["GcStats", "collect_garbage"]


@dataclass
class GcStats:
    """Outcome of one garbage-collection pass."""

    line_indices: Dict[int, int]
    freed_bytes: int
    freed_checkpoints: int
    remaining_checkpoints: int
    remaining_bytes: int


def collect_garbage(
    store: CheckpointStore,
    transitless: bool = False,
    logging_recovery: bool = False,
    tracer=None,
) -> GcStats:
    """Discard every checkpoint that can no longer be needed by recovery.

    * ``logging_recovery=False`` — recovery restores the maximal consistent
      line (transitless without logs, mirrored by ``transitless``);
      everything strictly older is garbage.
    * ``logging_recovery=True`` — orphan-tolerant recovery always restores
      each rank's *latest* checkpoint, so an older checkpoint is garbage as
      soon as none of its logged messages can still be in transit across
      the latest line (i.e. every annex message has been consumed by its
      destination's newest cut).

    With a *tracer*, each pass emits a ``gc.run`` event carrying the
    per-rank protected indices (the line members and their incremental
    chains) and a ``gc.discard`` event per removed checkpoint, so the
    trace invariant engine can audit that GC never eats a line member.
    """
    cuts = build_cuts(store, written_only=True)
    before_count = store.count()
    freed = 0
    protected: Dict[int, tuple] = {}
    discards = []  # (rank, index) chosen by the rule below
    if logging_recovery:
        latest = {r: cuts[r][-1] for r in cuts}
        line_indices = {r: c.index for r, c in latest.items()}
        for rank in cuts:
            if latest[rank].index == 0:
                protected[rank] = ()
                continue
            # an incremental latest checkpoint needs its chain of bases
            chain_keep = set()
            idx = latest[rank].index
            while True:
                chain_keep.add(idx)
                rec = store.get(rank, idx)
                if rec.base_index is None:
                    break
                idx = rec.base_index
            protected[rank] = tuple(sorted(chain_keep))
            for rec in list(store.chain(rank)):
                if rec.index in chain_keep:
                    continue
                still_needed = any(
                    m.seq > latest[m.dst].consumed_from(rank)
                    for m in rec.log_annex
                )
                if not still_needed:
                    discards.append((rank, rec.index))
    else:
        line = consistent_line(cuts, transitless=transitless)
        line_indices = {r: c.index for r, c in line.items()}
        for rank, cut in line.items():
            keep_from = (
                store.chain_base(rank, cut.index) if cut.index > 0 else 0
            )
            protected[rank] = tuple(
                rec.index
                for rec in store.chain(rank)
                if keep_from <= rec.index <= cut.index
            )
            discards.extend(
                (rank, rec.index)
                for rec in store.chain(rank)
                if rec.index < keep_from
            )
    if tracer is not None:
        tracer.event(
            "gc.run",
            line=tuple(sorted(line_indices.items())),
            protected=tuple(sorted(protected.items())),
        )
    for rank, index in discards:
        if tracer is not None:
            tracer.event("gc.discard", rank=rank, index=index)
        freed += store.discard(rank, index)
    return GcStats(
        line_indices=line_indices,
        freed_bytes=freed,
        freed_checkpoints=before_count - store.count(),
        remaining_checkpoints=store.count(),
        remaining_bytes=store.total_bytes(),
    )
