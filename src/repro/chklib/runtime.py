"""The checkpointing runtime: wires application, scheme, machine and faults.

:class:`CheckpointRuntime` is the reproduction's equivalent of launching a
CHK-LIB application on the Xplorer: it builds the simulated machine, one
communicator per rank (with the scheme's agent attached), starts one SPMD
driver process per rank, runs the checkpoint schedule, optionally injects
crashes and executes rollback + re-execution, and returns a
:class:`RunReport` with everything the experiments need.

Recovery semantics (both classes of schemes, as in the paper): a failure
takes down the whole application; every process rolls back to the scheme's
recovery line, channel state / logged in-transit messages are re-injected,
send sequence counters rewind so re-executed sends reuse their original
sequence numbers, and duplicate deliveries are suppressed — under the
piecewise-deterministic execution contract the re-run reproduces the
original results exactly.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from ..core.engine import Engine
from ..core.errors import Interrupt, SimulationError, StorageFault
from ..core.events import Event
from ..core.process import Process
from ..core.rng import RngStreams
from ..core.tracing import Tracer
from ..fault.injection import make_injector
from ..fault.model import FaultModel
from ..machine.cluster import Cluster
from ..machine.params import MachineParams
from ..net.api import Comm
from ..net.transport import Transport
from .recovery import CutPoint
from .report import RecoveryEvent, RunReport
from .retry import stable_read
from .schemes.base import NoCheckpointing, Scheme
from .storage_mgr import CheckpointRecord, CheckpointStore

__all__ = [
    "CheckpointRuntime",
    "Ctx",
    "RunReport",
    "RecoveryEvent",
    "FaultModel",
]


class Ctx:
    """Per-rank execution context handed to the application."""

    __slots__ = ("runtime", "rank", "size", "comm", "node", "engine", "_agent")

    def __init__(self, runtime: "CheckpointRuntime", rank: int) -> None:
        self.runtime = runtime
        self.rank = rank
        self.size = runtime.n_ranks
        self.comm = runtime.comms[rank]
        self.node = runtime.cluster.node(rank)
        self.engine = runtime.engine
        self._agent = runtime.agents[rank]

    @property
    def now(self) -> float:
        return self.engine.now

    def compute(self, flops: float) -> Generator[Event, Any, None]:
        """Burn CPU time for *flops* of work (``yield from``)."""
        return self.node.compute(flops)

    def checkpoint_point(self) -> Generator[Event, Any, None]:
        """Declare a safe point: a pending checkpoint is taken here."""
        return self._agent.at_point()


class CheckpointRuntime:
    """One application run on one machine under one checkpointing scheme."""

    def __init__(
        self,
        app: Any,
        scheme: Optional[Scheme] = None,
        machine: Optional[MachineParams] = None,
        seed: int = 0,
        fault_model: Optional[FaultModel] = None,
        trace: bool = True,
    ) -> None:
        self.app = app
        self.engine = Engine()
        self.tracer = Tracer(self.engine)
        self.machine_params = machine or MachineParams.xplorer8()
        self.cluster = Cluster(self.engine, self.machine_params, tracer=self.tracer)
        self.n_ranks = self.cluster.n_nodes
        self.transport = Transport(self.cluster)
        self.storage = self.cluster.storage
        self.store = CheckpointStore(self.n_ranks)
        self.scheme = scheme or NoCheckpointing()
        self.seed = int(seed)
        self.rngs = RngStreams(seed)
        #: what fails in this run, and when (None: nothing does).
        self.fault_model = fault_model
        #: retries a failed storage operation gets (storage only fails
        #: under a fault model).
        self.max_retries = (
            FaultModel.max_retries if fault_model is None else fault_model.max_retries
        )
        #: deterministic storage-fault oracle (None = storage never fails).
        self.injector = (
            make_injector(fault_model.storage, self.rngs)
            if fault_model is not None
            else None
        )
        if self.injector is not None:
            # faults target the shared storage plane (every shard server);
            # private local disks stay reliable.
            self.storage.set_fault_injector(self.injector)
        #: bumped on every recovery; stale wire messages are dropped by it.
        self.generation = 0
        self.recoveries: List[RecoveryEvent] = []
        self.agents = [
            self.scheme.make_agent(self, r) for r in range(self.n_ranks)
        ]
        self.comms = [
            Comm(self.transport, r, self.n_ranks, agent=self.agents[r])
            for r in range(self.n_ranks)
        ]
        for agent, comm in zip(self.agents, self.comms):
            agent.bind(comm)
        self._gen_procs: List[Process] = []
        self._finished: Dict[int, Any] = {}
        self._done: Event = self.engine.event()
        self._result: Any = None
        self._ran = False
        #: do checkpoints hold their image and message payloads on the host,
        #: or only the sizes? Decided once by :meth:`run`, from whether
        #: anything can ever read them back (``SchemeAgent.capture`` /
        #: ``retain`` are the only readers).
        self.keeps_bytes = True
        #: the live trace audit's ``TraceReport``, once an audited
        #: :meth:`run` finished (``verify.trace_check.check_runtime``).
        self.audit_report: Any = None
        if trace:
            self.tracer.record()

    # -- public API ---------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self._done.triggered

    def run(self) -> RunReport:
        """Execute to completion (including any scheduled crashes)."""
        if self._ran:
            raise RuntimeError("a CheckpointRuntime instance runs only once")
        self._ran = True
        # Only a crash ever restores an image or replays a recorded
        # message; without one, every simulated statistic needs sizes alone.
        self.keeps_bytes = self.fault_model is not None
        self.scheme.install(self)
        # --verify / verified() audits every event as it is emitted
        from ..verify import trace_check

        audit = None
        if trace_check.runtime_verification_enabled():
            audit = trace_check.Audit(self.tracer, trace_check.meta_for_runtime(self))
        crashes = self._interrupt_schedule()
        if crashes:
            self.engine.process(self._interrupt_driver(crashes), name="fault-injector")
        self._start_generation({r: None for r in range(self.n_ranks)})
        self.engine.run(until=self._done)
        report = self._report()
        if audit is not None:
            self.audit_report = audit.report()
            self.audit_report.raise_if_violated()
        return report

    def spawn(self, generator, name: str = "") -> Process:
        """Start a generation-scoped helper process (killed on crash)."""
        proc = self.engine.process(generator, name=name)
        self._gen_procs.append(proc)
        return proc

    # -- drivers ---------------------------------------------------------------

    def _start_generation(self, states: Dict[int, Optional[dict]]) -> None:
        self._finished = {}
        for rank in range(self.n_ranks):
            state = states[rank]
            if state is None:
                state = self.app.make_state(rank, self.n_ranks, self.seed)
            proc = self.engine.process(
                self._driver(rank, state, self.generation),
                name=f"app:r{rank}:g{self.generation}",
            )
            self._gen_procs.append(proc)

    def _driver(self, rank: int, state: dict, generation: int):
        agent = self.agents[rank]
        agent.bind_state(state)
        ctx = Ctx(self, rank)
        try:
            result = yield from self.app.run(ctx, state)
        except Interrupt:
            return None  # crashed; a recovery restarts this rank
        if generation != self.generation:
            return None  # stale completion racing a recovery
        # a finished process still checkpoints (immediately) on request
        agent.mark_finished()
        self._finished[rank] = result
        if rank == 0:
            self._result = result
        if len(self._finished) == self.n_ranks and not self._done.triggered:
            self._done.succeed()
        return result

    # -- failure injection & recovery -----------------------------------------------

    def _interrupt_schedule(self) -> List[float]:
        """The fault model's crash times, in order; crashes at the same
        instant are one failure."""
        if self.fault_model is None:
            return []
        return sorted(set(self.fault_model.machine_crash_times))

    def _interrupt_driver(self, crashes: List[float]):
        """One process serving the crashes in order, each running rollback
        + re-execution in place."""
        engine = self.engine
        for t in crashes:
            if t > engine.now:
                yield engine.delay(t - engine.now)
            if self.finished:
                return
            yield from self._recover()

    def _restore_reader(self, rank, rec, source, failures):
        """Read one rank's restore bytes, retrying transient faults; on an
        exhausted retry budget the record lands in *failures* (the recovery
        loop quarantines it and falls back) instead of raising — a reader
        death inside ``all_of`` would take down recovery itself."""
        try:
            yield from stable_read(
                source,
                self.cluster.node(rank),
                self.store.restore_read_bytes(rank, rec.index),
                tag=f"restore:r{rank}",
                max_retries=self.max_retries,
                tracer=self.tracer,
            )
        except StorageFault:
            failures[rank] = rec

    def _check_line(self, line) -> None:
        """No rank may resume from a checkpoint that is not committed,
        written and unquarantined — a violated invariant is a scheme bug."""
        for rank, rec in line.items():
            if rec is None:
                continue
            if rec.quarantined or rec.written_at is None or not rec.committed:
                raise SimulationError(
                    f"recovery line selected unusable checkpoint {rec!r} "
                    f"for rank {rank}"
                )

    def _recover(self):
        engine = self.engine
        t_crash = engine.now
        self.tracer.add("fault.crashes")
        cuts_before = {r: self.agents[r].epoch for r in range(self.n_ranks)}
        # 1. the crash takes the whole application down (the paper's
        #    recovery semantics): every process of the current generation
        #    dies.
        self.generation += 1
        self.tracer.event("recover.crash", gen=self.generation)
        for proc in self._gen_procs:
            proc.defused = True
            if proc.is_alive:
                proc.interrupt("machine failure")
        self._gen_procs = []
        for comm in self.comms:
            comm.reset_mailbox()
        self.scheme.on_crash(self)
        two_level = getattr(self.scheme, "two_level", False)
        # 2. validate integrity: silently corrupted images are caught by
        #    their checksum now, before line selection can pick them.
        quarantined = 0
        for rank in range(self.n_ranks):
            for rec in self.store.chain(rank):
                if (
                    not rec.quarantined
                    and rec.written_at is not None
                    and not rec.verify_integrity()
                ):
                    self.store.quarantine(rank, rec.index)
                    self.tracer.add("fault.ckpt_corrupt_detected")
                    self.tracer.event(
                        "recover.quarantine",
                        rank=rank,
                        index=rec.index,
                        cause="corrupt",
                    )
                    quarantined += 1
        # 3. self-healing restore: pick a line, read it back (retrying
        #    transient faults); if a record stays unreadable, quarantine it
        #    and fall back to the newest older line — degrade, never die.
        # the machine is quiescent: every read retry is a restore's
        retries_before = self.tracer.get("storage.read_retries")
        while True:
            line = self.scheme.recovery_line(self)
            self._check_line(line)
            failures: Dict[int, CheckpointRecord] = {}
            readers = []
            for rank, rec in line.items():
                if rec is None:
                    continue
                # incremental chains are read back whole (base + deltas);
                # two-level storage restores from the local disks, which
                # survive the crash, in parallel instead of queueing at the
                # global server.
                source = self.cluster.local_disk(rank) if two_level else self.storage
                readers.append(
                    engine.process(
                        self._restore_reader(rank, rec, source, failures),
                        name=f"restore:r{rank}",
                    )
                )
            if readers:
                self.cluster.set_all_blocked(True)  # the machine is quiescent
                try:
                    yield engine.all_of(readers)
                finally:
                    self.cluster.set_all_blocked(False)
            if not failures:
                break
            for rank, rec in failures.items():
                self.store.quarantine(rank, rec.index)
                self.tracer.add("fault.restore_quarantined")
                self.tracer.event(
                    "recover.quarantine",
                    rank=rank,
                    index=rec.index,
                    cause="unreadable",
                )
                quarantined += 1
        line_idx = {
            r: (rec.index if rec is not None else 0) for r, rec in line.items()
        }
        # 4. drop everything newer than the final line. (Quarantined
        #    records above the line go too: sender logs needed for replay
        #    live in annexes at or below the senders' line indices.)
        for rank, idx in line_idx.items():
            for stale in [
                i for i in range(idx + 1, self.store.latest_index(rank) + 1)
            ]:
                try:
                    self.store.discard(rank, stale)
                except KeyError:
                    pass
        replay = self.scheme.replay_messages(self, line)
        cut_line = self._line_cuts(line)
        line_ok = self.scheme.line_sound(self, line, cut_line)
        self.tracer.event(
            "recover.line",
            gen=self.generation,
            indices=tuple(sorted(line_idx.items())),
            klass=self.scheme.klass,
            logging=bool(getattr(self.scheme, "logging", False)),
            consistent=line_ok,
            sent=tuple((r, cut.sent) for r, cut in sorted(cut_line.items())),
            consumed=tuple(
                (r, cut.consumed) for r, cut in sorted(cut_line.items())
            ),
        )
        self.tracer.event(
            "recover.replay", gen=self.generation, count=len(replay)
        )
        # 5. restore per-rank state, counters, epochs.
        states: Dict[int, Optional[dict]] = {}
        for rank, rec in line.items():
            if rec is not None:
                states[rank] = rec.snapshot.restore()
                self.comms[rank].restore_meta(rec.comm_meta)
                self.agents[rank].reset_for_recovery(epoch=rec.index)
            else:
                states[rank] = None  # rebuilt from make_state (deterministic)
                self.comms[rank].restore_meta(
                    {"sent": {}, "consumed": {}, "coll_counter": 0}
                )
                self.agents[rank].reset_for_recovery(epoch=0)
        # 6. re-inject in-transit channel state, in per-channel seq order.
        for msg in sorted(replay, key=lambda m: (m.dst, m.src, m.seq)):
            clone = msg.shell_copy()
            clone.meta["gen"] = self.generation
            self.transport.deliver_local(clone)
        # 7. restart the application.
        self._start_generation(states)
        event = RecoveryEvent(
            crash_time=t_crash,
            line_indices=line_idx,
            # checkpoints discarded per rank: how far the line regressed
            # below the rank's checkpoint count at crash time
            rollback_checkpoints={
                r: max(0, cuts_before[r] - line_idx[r]) for r in line_idx
            },
            lost_time={
                r: (t_crash - line[r].taken_at) if line[r] is not None else t_crash
                for r in line
            },
            replayed_messages=len(replay),
            duration=engine.now - t_crash,
            domino_extent=(
                sum(1 for i in line_idx.values() if i == 0) / self.n_ranks
            ),
            quarantined=quarantined,
            restore_retries=int(
                self.tracer.get("storage.read_retries") - retries_before
            ),
            line_consistent=line_ok,
        )
        self.recoveries.append(event)
        self.tracer.add("fault.recovery_time", event.duration)

    def _line_cuts(self, line) -> Dict[int, CutPoint]:
        """The restored line as :class:`CutPoint`s (for consistency audit)."""
        cut_line: Dict[int, CutPoint] = {}
        for r, rec in line.items():
            if rec is None:
                cut_line[r] = CutPoint(rank=r, index=0, sent=(), consumed=())
            else:
                cut_line[r] = CutPoint(
                    rank=r,
                    index=rec.index,
                    sent=tuple(sorted(rec.comm_meta["sent"].items())),
                    consumed=tuple(sorted(rec.comm_meta["consumed"].items())),
                    record=rec,
                )
        return cut_line

    # -- reporting -------------------------------------------------------------------

    def _report(self) -> RunReport:
        return RunReport(
            app=getattr(self.app, "name", type(self.app).__name__),
            scheme=self.scheme.name,
            n_nodes=self.n_ranks,
            seed=self.seed,
            sim_time=self.engine.now,
            result=self._result,
            blocked_time=sum(a.blocked_time for a in self.agents),
            storage_peak_bytes=self.store.peak_bytes,
            storage_peak_checkpoints=self.store.peak_checkpoints,
            storage_final_bytes=self.store.total_bytes(),
            counters={**self.tracer.counters, **self.transport.counters()},
            recoveries=list(self.recoveries),
        )
