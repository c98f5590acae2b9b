"""Communication-induced checkpointing (index-based CIC).

The third protocol family: no coordinator and no protocol messages (like
independent checkpointing), but the checkpoint *index* each process
piggybacks on its application messages induces extra, *forced* checkpoints
at the receivers. The classic index-based rule (Briatico–Ciuffoletti–
Simoncini, "BCS") is: on receiving a message whose piggybacked index
exceeds the local one, raise the local index to the message's index by
taking a forced checkpoint. Every index then has a checkpoint on every
process, so the line at the newest common index is always available —
basic (timer) checkpoints stay uncoordinated, yet rollback is bounded by
one index: the domino effect is gone.

The ``fdas`` option adds the classic refinement (fixed-dependency-style,
as in the FDAS/FDI lineage): when the receiver has sent *nothing* since
its last checkpoint, that checkpoint already captures everything any
other process can depend on, so instead of cutting again the previous
checkpoint is *promoted* — re-labelled as also covering the higher index.

Mapping onto this simulator's recovery model: applications only restore
at checkpoint points (drivers re-enter ``app.run`` from the top of an
iteration), so a forced checkpoint cannot be taken in the middle of the
receive that triggered it. The index obligation is therefore discharged
at the next checkpoint point — the cut *jumps* to the received index —
and the window between the triggering receive and the forced cut is
covered by the same piecewise-deterministic machinery the logging
recovery path already relies on: checkpoint-time log annexes replay
in-transit messages, re-executed sends reuse their sequence numbers, and
receivers drop the duplicates. The ``cic_index_rule`` trace invariant
audits the obligation (no basic cut may land below a forced index).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional, Sequence

from ...core.tracing import Checker, RunMeta, TraceEvent, TraceViolation
from ...net.message import Message
from ..recovery import covered_index_line
from .base import SchemeAgent
from .independent import IndependentAgent, IndependentScheme

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime import CheckpointRuntime

__all__ = ["CICScheme", "CICAgent", "CicIndexRule"]


class CICAgent(IndependentAgent):
    """Rank-local CIC state on top of the independent agent."""

    def __init__(self, scheme: "CICScheme", runtime, rank: int) -> None:
        super().__init__(scheme, runtime, rank)
        #: index a received message obliges us to reach at the next cut
        #: (0 = no obligation outstanding).
        self.forced_index = 0
        #: any application send since the last local cut? (FDAS promotion
        #: is only sound while this is False.)
        self.sent_since_cut = False


# -- trace invariant --------------------------------------------------------------


class CicIndexRule(Checker):
    """The CIC index rule, re-derived from the event stream.

    Mirrors the receiver's index (``proto.cut`` rounds, FDAS promotions,
    recovery-line resets) and its forced-index obligation, then audits
    every accepted delivery:

    * a message whose piggybacked index exceeds both the receiver's index
      and its standing obligation must trigger ``proto.cic.forced`` or
      ``proto.cic.promote`` *as part of that delivery* (the scheme hook
      runs synchronously) — and at an index at least the message's;
    * no basic checkpoint may land below a standing forced-index
      obligation (the deferred forced cut must *jump* to the obliged
      index, never undershoot it).
    """

    name = "cic_index_rule"
    consumes = (
        "msg.deliver",
        "proto.cut",
        "proto.cic.forced",
        "proto.cic.promote",
        "recover.line",
    )

    def __init__(self, meta: RunMeta) -> None:
        super().__init__(meta)
        self._idx: Dict[int, int] = {r: 0 for r in range(meta.n_ranks)}
        self._obliged: Dict[int, int] = {}  #: rank -> outstanding forced index
        #: rank -> index of a delivery whose rule event has not appeared yet
        self._pending: Dict[int, int] = {}

    def _rule_never_fired(self, rank: int, time: float) -> None:
        pending = self._pending.pop(rank, None)
        if pending is not None:
            self.flag(
                f"rank {rank} consumed a message of interval index {pending} "
                f"above its own without a forced checkpoint",
                time,
            )

    def on_event(self, ev: TraceEvent) -> None:
        if ev.kind == "msg.deliver":
            dst, midx = ev["dst"], ev["epoch"]
            self._rule_never_fired(dst, ev.time)
            if midx > max(self._idx.get(dst, 0), self._obliged.get(dst, 0)):
                self._pending[dst] = midx
        elif ev.kind == "proto.cic.forced":
            rank, idx = ev["rank"], ev["index"]
            pending = self._pending.pop(rank, None)
            if pending is not None and idx < pending:
                self.flag(
                    f"rank {rank} forced index {idx} below the triggering "
                    f"message's index {pending}",
                    ev.time,
                )
            self._obliged[rank] = max(self._obliged.get(rank, 0), idx)
        elif ev.kind == "proto.cic.promote":
            rank, idx = ev["rank"], ev["index"]
            pending = self._pending.pop(rank, None)
            if pending is not None and idx < pending:
                self.flag(
                    f"rank {rank} promoted to index {idx} below the "
                    f"triggering message's index {pending}",
                    ev.time,
                )
            self._idx[rank] = idx
            if self._obliged.get(rank, 0) <= idx:
                self._obliged.pop(rank, None)
        elif ev.kind == "proto.cut":
            rank, n = ev["rank"], ev["round"]
            self._rule_never_fired(rank, ev.time)
            obliged = self._obliged.pop(rank, None)
            if obliged is not None and n < obliged:
                self.flag(
                    f"rank {rank} cut at index {n} below its forced-index "
                    f"obligation {obliged}",
                    ev.time,
                )
            self._idx[rank] = n
        elif ev.kind == "recover.line":
            for rank, idx in dict(ev["indices"]).items():
                self._idx[rank] = idx
            # rolled-away state: obligations and in-flight rule firings
            # died with the pre-crash generation.
            self._pending.clear()
            self._obliged.clear()

    def finish(self) -> List[TraceViolation]:
        for rank in sorted(self._pending):
            self._rule_never_fired(rank, self._now)
        return self.violations


class CICScheme(IndependentScheme):
    """Index-based communication-induced checkpointing (BCS / FDAS)."""

    klass = "cic"

    CHECKERS = (CicIndexRule,)

    def __init__(
        self,
        times: Sequence[float],
        cic_rule: str = "bcs",
        skew: float = 0.0,
        name: Optional[str] = None,
        capture: str = "memcopy",
    ) -> None:
        if cic_rule not in ("bcs", "fdas"):
            raise ValueError(f"unknown CIC rule {cic_rule!r}")
        if name is None:
            name = "cic" if cic_rule == "bcs" else f"cic_{cic_rule}"
        # Logging stays on: the annex logs are what cover the window
        # between a triggering receive and its deferred forced cut.
        super().__init__(times, name, capture=capture, skew=skew, logging=True)
        self.cic_rule = cic_rule
        #: per-rank FDAS promotions: ``{rank: {base_index: top_index}}`` —
        #: checkpoint *base_index* also stands for every index up to
        #: *top_index* (nothing was sent in between).
        self._promoted: Dict[int, Dict[int, int]] = {}
        #: index of each rank's last *taken* cut (promotion base).
        self._last_cut: Dict[int, int] = {}

    # -- named variants -------------------------------------------------------

    @classmethod
    def BCS(cls, times: Sequence[float], skew: float = 0.0, **kw) -> "CICScheme":
        return cls(times, cic_rule="bcs", skew=skew, **kw)

    @classmethod
    def FDAS(cls, times: Sequence[float], skew: float = 0.0, **kw) -> "CICScheme":
        return cls(times, cic_rule="fdas", skew=skew, **kw)

    # -- wiring ------------------------------------------------------------------

    def make_agent(self, runtime: "CheckpointRuntime", rank: int) -> CICAgent:
        return CICAgent(self, runtime, rank)

    # -- hooks ----------------------------------------------------------------------

    def on_app_send(self, agent: SchemeAgent, msg: Message) -> None:
        super().on_app_send(agent, msg)
        assert isinstance(agent, CICAgent)
        agent.sent_since_cut = True

    def on_app_deliver(self, agent: SchemeAgent, msg: Message) -> None:
        assert isinstance(agent, CICAgent)
        idx = msg.epoch
        if idx <= max(agent.epoch, agent.forced_index):
            return  # index rule already satisfied (or obligation covers it)
        rt = agent.runtime
        if self.cic_rule == "fdas" and not agent.sent_since_cut:
            # Nothing sent since the last cut: that cut already fixes every
            # dependency anyone can have on us — promote it instead of
            # forcing a new checkpoint.
            base = self._last_cut.get(agent.rank, 0)
            tops = self._promoted.setdefault(agent.rank, {})
            tops[base] = max(tops.get(base, base), idx)
            agent.epoch = idx
            rt.tracer.add("chk.promotions")
            rt.tracer.event(
                "proto.cic.promote",
                rank=agent.rank,
                index=idx,
                base=base,
                src=msg.src,
            )
            return
        agent.forced_index = idx
        rt.tracer.add("chk.forced_ckpts")
        rt.tracer.event(
            "proto.cic.forced",
            rank=agent.rank,
            index=idx,
            had=agent.epoch,
            src=msg.src,
            rule=self.cic_rule,
        )
        agent.set_pending(idx)

    def at_point(self, agent: SchemeAgent) -> Generator[Any, Any, None]:
        assert isinstance(agent, CICAgent)
        target = agent.pending_cut
        if target is None or target <= agent.epoch:
            return
        if agent.writing:
            return  # previous background write still draining; defer
        # Unlike the basic independent cut (always epoch + 1), a forced
        # cut *jumps* to the obliged index so it dominates every interval
        # the triggering message was sent in.
        agent.pending_cut = None
        yield from self._cut(agent, target)

    def _cut(self, agent: IndependentAgent, n: int) -> Generator[Any, Any, None]:
        assert isinstance(agent, CICAgent)
        agent.sent_since_cut = False
        agent.forced_index = 0
        self._last_cut[agent.rank] = n
        yield from super()._cut(agent, n)

    # -- recovery ---------------------------------------------------------------------

    def recovery_line(self, runtime: "CheckpointRuntime") -> Dict[int, Any]:
        store = runtime.store
        line = covered_index_line(
            store,
            promotions=self._promoted,
            eligible=lambda rec: rec.committed
            and not rec.quarantined
            and store.chain_intact(rec.rank, rec.index),
        )
        return line

    def reset_agent(self, agent: SchemeAgent) -> None:
        super().reset_agent(agent)
        assert isinstance(agent, CICAgent)
        agent.sent_since_cut = False
        agent.forced_index = 0
        self._last_cut[agent.rank] = agent.epoch
        proms = self._promoted.get(agent.rank)
        if proms:
            # Promotions made at-or-after the restored index describe an
            # execution that was just rolled away; re-execution may now
            # send in those intervals, so the claims must not survive.
            for base in [b for b in proms if b >= agent.epoch]:
                del proms[base]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<CICScheme {self.name} rule={self.cic_rule} "
            f"times={self.times} skew={self.skew}>"
        )
