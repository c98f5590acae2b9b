"""Mutation tests: each analysis pass catches its seeded bug class.

Every test plants one representative bug in a synthetic module and
asserts the pass flags it — and that the repaired twin stays clean, so
the rules discriminate rather than blanket-fire.
"""

import textwrap

import pytest

from repro.verify.analyze import analyze
from repro.verify.analyze.frontend import Module, Project
from repro.verify.analyze.passes.cleanup_mutation import cleanup_mutation_pass
from repro.verify.analyze.passes.hygiene import module_hygiene
from repro.verify.analyze.passes.nondet_taint import nondet_taint_pass
from repro.verify.analyze.passes.trace_conformance import trace_conformance_pass
from repro.verify.analyze.passes.yield_discipline import yield_discipline_pass


def _project(source, path="pkg/mod.py", whole_program=False):
    module = Module.from_source(textwrap.dedent(source), path=path)
    return Project([module], whole_program=whole_program)


def _rules(findings):
    return [f.rule for f in findings]


# -- 1. yield-discipline: generator created, never driven ---------------------


def test_undriven_generator_assignment_flagged():
    project = _project(
        """
        def worker(ctx):
            g = ctx.compute(100.0)
            yield from ctx.timeout(1.0)
        """
    )
    findings = yield_discipline_pass(project)
    assert _rules(findings) == ["undriven-generator"]
    assert "never driven" in findings[0].message


@pytest.mark.parametrize(
    "source",
    [
        pytest.param(
            """
            def worker(ctx):
                g = ctx.compute(100.0)
                yield from g
            """,
            id="bound-then-driven",
        ),
        pytest.param(
            # handing the generator to the engine counts as driving it
            """
            def worker(ctx, engine):
                g = ctx.compute(100.0)
                engine.spawn(g)
                yield from ctx.timeout(1.0)
            """,
            id="bound-then-spawned",
        ),
        pytest.param(
            # binding the generator to hand it on is deliberate use
            """
            def worker(ctx):
                g = ctx.compute(100.0)
                return g
            """,
            id="bound-then-returned",
        ),
        pytest.param(
            """
            def worker(ctx):
                yield from ctx.compute(100.0)
            """,
            id="yield-from-primitive",
        ),
        pytest.param(
            """
            def warmup(ctx):
                yield from ctx.timeout(1.0)

            def worker(ctx):
                yield from warmup(ctx)
            """,
            id="yield-from-project-coroutine",
        ),
    ],
)
def test_driven_generator_clean(source):
    assert yield_discipline_pass(_project(source)) == []


@pytest.mark.parametrize(
    "source, name",
    [
        pytest.param(
            """
            def warmup(ctx):
                yield from ctx.timeout(1.0)

            def worker(ctx):
                warmup(ctx)
                yield from ctx.compute(5.0)
            """,
            "warmup",
            id="project-coroutine",
        ),
        pytest.param(
            """
            def worker(ctx):
                ctx.compute(100.0)
            """,
            "compute",
            id="primitive-compute",
        ),
        pytest.param(
            """
            def worker(comm, payload):
                comm.send(1, payload)
            """,
            "send",
            id="primitive-send",
        ),
        pytest.param(
            # the callee is named by its attribute, whatever it hangs off
            """
            def worker(rt, rank):
                rt.node(rank).compute(5.0)
            """,
            "compute",
            id="primitive-on-a-call-result",
        ),
    ],
)
def test_plain_call_of_generator_flagged(source, name):
    findings = yield_discipline_pass(_project(source))
    assert _rules(findings) == ["undriven-generator"]
    assert f"`{name}(...)`" in findings[0].message


def test_bare_primitive_flagged_when_not_a_generator_function():
    """``Comm.send`` returns the transport's generator, ``Comm.recv`` its
    request event and ``Ctx.checkpoint_point`` the scheme's generator: none
    is a generator function, so the project classification cannot name
    them. Their bare statements must still be flagged — a bare ``recv``
    would silently consume a buffered message."""
    project = _project(
        """
        class Comm:
            def send(self, dst, payload):
                return self.transport.send(self.build(dst, payload))

            def recv(self, source=-1, tag=-1):
                return self.mailbox.recv(source, tag)

        class Ctx:
            def checkpoint_point(self):
                return self._agent.at_point()

        def worker(ctx, comm, payload):
            comm.send(1, payload)
            comm.recv(0)
            ctx.checkpoint_point()
            yield from comm.send(1, payload)
            msg = yield comm.recv(0)
            yield from ctx.checkpoint_point()
            return msg
        """
    )
    findings = yield_discipline_pass(project)
    assert _rules(findings) == ["undriven-generator"] * 3
    assert [f.line for f in findings] == [14, 15, 16]
    for finding, name in zip(findings, ("send", "recv", "checkpoint_point")):
        assert f"`{name}(...)`" in finding.message


def test_undriven_generator_allow_pragma():
    project = _project(
        """
        def worker(ctx):
            g = ctx.compute(100.0)  # verify: allow[undriven-generator]
            yield from ctx.timeout(1.0)
        """
    )
    assert yield_discipline_pass(project) == []


# -- 2. cleanup-mutation: the PR 5 `_quiesced` regression ---------------------

# PR 5's worst bug: a process coroutine's `finally:` reached into cluster
# state during restore-time teardown, un-quiescing the storage rate mid-
# restore. This fixture replays that exact shape.
_PR5_FIXTURE = """
    def restore_reader(rt, rank):
        try:
            yield rt.engine.timeout(1.0)
        finally:
            rt.cluster._blocked_ranks.discard(rank)
            rt.cluster._apply_storage_rate()
"""


def test_pr5_cleanup_unquiesce_bug_flagged():
    findings = cleanup_mutation_pass(_project(_PR5_FIXTURE))
    assert _rules(findings) == ["cleanup-mutation", "cleanup-mutation"]
    assert all("finally" in f.message for f in findings)
    assert "quiesce-guard" in findings[0].message


def test_quiesce_guard_api_in_finally_clean():
    project = _project(
        """
        def restore_reader(rt, rank):
            try:
                yield rt.engine.timeout(1.0)
            finally:
                rt.cluster.set_rank_blocked(rank, False)
        """
    )
    assert cleanup_mutation_pass(project) == []


def test_except_generator_exit_write_flagged():
    project = _project(
        """
        def worker(rt, rank):
            try:
                yield rt.engine.timeout(1.0)
            except GeneratorExit:
                rt.storage.write_faults = 0
                raise
        """
    )
    findings = cleanup_mutation_pass(project)
    assert _rules(findings) == ["cleanup-mutation"]
    assert "except GeneratorExit" in findings[0].message


def test_non_generator_finally_not_flagged():
    # only process coroutines run their cleanup mid-restore
    project = _project(
        """
        def report(rt):
            try:
                return rt.cluster.snapshot()
            finally:
                rt.cluster.set_load(0)
        """
    )
    assert cleanup_mutation_pass(project) == []


def test_machine_modules_exempt():
    # repro/machine implements the guarded state; the rule polices clients
    project = _project(_PR5_FIXTURE, path="src/repro/machine/cluster.py")
    assert cleanup_mutation_pass(project) == []


def test_local_state_in_finally_clean():
    project = _project(
        """
        def worker(ctx):
            pending = []
            try:
                yield from ctx.compute(1.0)
            finally:
                pending.clear()
        """
    )
    assert cleanup_mutation_pass(project) == []


# -- 3. trace-conformance: a typo'd event name --------------------------------


def test_typoed_emission_flagged():
    project = _project(
        """
        class Agent:
            def commit(self):
                self.tracer.event("proto.comit", rank=self.rank)
        """
    )
    findings = trace_conformance_pass(project)
    assert _rules(findings) == ["trace-conformance"]
    assert "proto.comit" in findings[0].message


def test_valid_emission_clean():
    project = _project(
        """
        class Agent:
            def commit(self):
                self.tracer.event("proto.commit", rank=self.rank)
        """
    )
    assert trace_conformance_pass(project) == []


def test_typoed_consumer_comparison_flagged():
    project = _project(
        """
        def check(ev):
            if ev.kind == "proto.comit":
                return True
        """
    )
    findings = trace_conformance_pass(project)
    assert _rules(findings) == ["trace-conformance"]
    assert "vacuously" in findings[0].message


def test_typoed_consumes_manifest_flagged():
    project = _project(
        """
        class MyChecker:
            consumes = ("proto.commit", "proto.comit")
        """
    )
    findings = trace_conformance_pass(project)
    assert _rules(findings) == ["trace-conformance"]


def test_message_kind_comparison_not_confused_with_events():
    # msg.kind lives in a different namespace than trace-event kinds
    project = _project(
        """
        def deliver(msg):
            if msg.kind == "app":
                return True
        """
    )
    assert trace_conformance_pass(project) == []


def test_whole_program_vacuous_consumption_flagged():
    # valid vocabulary entry, but nothing in the (whole) program emits it
    project = _project(
        """
        def check(ev):
            if ev.kind == "proto.cut":
                return True
        """,
        whole_program=True,
    )
    findings = trace_conformance_pass(project)
    assert _rules(findings) == ["trace-conformance"]
    assert "no site emits" in findings[0].message


def test_subset_run_skips_vacuous_consumption():
    # the same module analysed as a subset: the emitter may live elsewhere
    project = _project(
        """
        def check(ev):
            if ev.kind == "proto.cut":
                return True
        """,
        whole_program=False,
    )
    assert trace_conformance_pass(project) == []


# -- 4. nondet-taint: set iteration order reaching a trace event --------------


def test_set_order_into_trace_event_flagged():
    project = _project(
        """
        class Gc:
            def run(self, ranks):
                survivors = set(ranks)
                self.tracer.event("gc.run", survivors=list(survivors))
        """
    )
    findings = nondet_taint_pass(project)
    assert _rules(findings) == ["nondet-taint"]
    assert "trace event" in findings[0].message


def test_sorted_cleanses_set_order():
    project = _project(
        """
        class Gc:
            def run(self, ranks):
                survivors = set(ranks)
                self.tracer.event("gc.run", survivors=sorted(survivors))
        """
    )
    assert nondet_taint_pass(project) == []


def test_id_into_rng_seed_flagged():
    project = _project(
        """
        def reseed(rng, obj):
            rng.seed(id(obj))
        """
    )
    findings = nondet_taint_pass(project)
    assert _rules(findings) == ["nondet-taint"]
    assert "RNG seeding" in findings[0].message


def test_environ_into_print_flagged():
    project = _project(
        """
        def report():
            tag = os.environ.get("HOSTNAME")
            print(tag)
        """
    )
    findings = nondet_taint_pass(project)
    assert _rules(findings) == ["nondet-taint"]
    assert "print" in findings[0].message


def test_loop_carried_taint_reaches_sink_above_source():
    # the sink sits above the tainting assignment; the second sequential
    # pass sees the loop-carried environment
    project = _project(
        """
        def emit(self, ranks, order):
            for r in order:
                self.tracer.event("gc.discard", rank=r)
            order = set(ranks)
        """
    )
    findings = nondet_taint_pass(project)
    assert _rules(findings) == ["nondet-taint"]


def test_len_of_set_is_clean():
    project = _project(
        """
        class Gc:
            def run(self, ranks):
                survivors = set(ranks)
                self.tracer.event("gc.run", count=len(survivors))
        """
    )
    assert nondet_taint_pass(project) == []


# -- the kernel: hygiene with no waivers under repro/core/ --------------------
# (that the kernel imports nothing above it is tests/test_layering.py's)

_CORE = "src/repro/core/fastengine.py"


def _core_hygiene(source, path=_CORE):
    return module_hygiene(Module.from_source(textwrap.dedent(source), path=path))


def test_kernel_wall_clock_flagged_despite_pragma():
    # nondeterminism cannot be laundered into the kernel with a comment
    findings = _core_hygiene(
        """
        import time

        class FastEngine:
            def run(self):
                self._t0 = time.perf_counter()  # verify: allow[wall-clock]
        """
    )
    assert _rules(findings) == ["wall-clock"]


def test_kernel_blanket_pragma_waives_no_rule_of_any_pass():
    module = Module.from_source("x = 1  # verify: allow\n", path=_CORE)
    for rule in ("wall-clock", "undriven-generator", "nondet-taint"):
        assert not module.allowed(1, rule)


def test_pragma_still_waives_outside_the_kernel():
    source = """
        import time

        def stamp():
            return time.perf_counter()  # verify: allow[wall-clock]
        """
    assert _core_hygiene(source) != []
    assert _core_hygiene(source, path="src/repro/experiments/runner.py") == []


@pytest.mark.parametrize(
    "source, rules",
    [
        pytest.param(
            "from time import perf_counter\n"
            "def stamp():\n"
            "    return perf_counter()\n",
            ["wall-clock", "wall-clock"],  # the import and the call
            id="from-time-import",
        ),
        pytest.param(
            "import random\ndef jitter():\n    return random.random()\n",
            ["nondeterminism"],
            id="global-rng",
        ),
        pytest.param(
            "import numpy as np\n"
            "def bad():\n"
            "    return np.random.random(8)\n"
            "def good(seed):\n"
            "    return np.random.default_rng(seed)\n",
            ["nondeterminism"],
            id="numpy-global-rng-seeded-ctor-clean",
        ),
        pytest.param(
            # default_rng() with no seed is OS entropy
            "import numpy as np\ndef bad():\n    return np.random.default_rng()\n",
            ["nondeterminism"],
            id="unseeded-default-rng",
        ),
        pytest.param(
            "import heapq\n"
            "from .engine import Engine\n"
            "def requeue(engine: Engine, entry):\n"
            "    heapq.heappush(engine._heap, entry)\n",
            [],
            id="clean",
        ),
    ],
)
def test_kernel_hygiene(source, rules):
    assert _rules(_core_hygiene(source)) == rules


# -- end-to-end: analyze() over a seeded-bug subset ---------------------------


def test_analyze_subset_reports_all_seeded_bug_classes(tmp_path):
    (tmp_path / "buggy.py").write_text(
        textwrap.dedent(
            """
            class BadScheme:
                def commit(self):
                    self.tracer.event("proto.comit", n=1)

                def emit(self, ranks):
                    self.tracer.event("gc.run", ranks=list(set(ranks)))

            def worker(ctx, rt, rank):
                g = ctx.compute(100.0)
                try:
                    yield from ctx.timeout(1.0)
                finally:
                    rt.cluster._apply_storage_rate()
            """
        )
    )
    report = analyze(paths=[tmp_path])
    rules = {f.rule for f in report.findings}
    assert rules == {
        "undriven-generator",
        "cleanup-mutation",
        "trace-conformance",
        "nondet-taint",
    }
    assert not report.ok


def test_analyze_repro_tree_is_clean():
    """The enforcement gate: the shipped tree has zero findings."""
    report = analyze()
    assert report.findings == [], "\n".join(str(f) for f in report.findings)
    assert report.ok
