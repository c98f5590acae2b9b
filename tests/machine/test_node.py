"""Unit tests for the node compute/interference model."""

import pytest

from repro.core import Engine
from repro.machine import Node, NodeParams


def make_node(**kw):
    eng = Engine()
    return eng, Node(eng, 0, NodeParams(**kw))


def test_compute_duration_uncontended():
    eng, node = make_node(cpu_flops=1000.0)

    def proc():
        yield from node.compute(5000.0)

    eng.process(proc())
    eng.run()
    assert eng.now == pytest.approx(5.0)
    assert node.flops_done == pytest.approx(5000.0)


def test_compute_zero_work_is_instant():
    eng, node = make_node()

    def proc():
        yield from node.compute(0.0)

    eng.process(proc())
    eng.run()
    assert eng.now == 0.0


def test_compute_negative_work_rejected():
    eng, node = make_node()
    gen = node.compute(-1.0)
    with pytest.raises(ValueError):
        next(gen)


def test_interference_slows_compute():
    eng, node = make_node(cpu_flops=1000.0, bg_write_interference=0.5)

    def app():
        yield from node.compute(3000.0)

    def ckpt_thread():
        node.bg_stream_started()
        yield eng.timeout(100.0)  # stream for the whole run
        node.bg_stream_stopped()

    eng.process(app())
    eng.process(ckpt_thread())
    eng.run(until=10.0)
    # effective rate 1000/1.5 = 666.67 -> 3000 flops in 4.5 s
    assert node.flops_done == pytest.approx(3000.0)
    assert node.busy_time == pytest.approx(4.5)


def test_interference_mid_compute_exact_integration():
    eng, node = make_node(cpu_flops=1000.0, bg_write_interference=1.0)
    finished = []

    def app():
        yield from node.compute(4000.0)
        finished.append(eng.now)

    def ckpt_thread():
        yield eng.timeout(2.0)  # app does 2000 flops at full rate
        node.bg_stream_started()
        yield eng.timeout(2.0)  # app does 1000 flops at half rate
        node.bg_stream_stopped()

    eng.process(app())
    eng.process(ckpt_thread())
    eng.run()
    # remaining 1000 flops at full rate -> finish at t = 2 + 2 + 1 = 5
    assert finished == [pytest.approx(5.0)]


def test_slowdown_property():
    eng, node = make_node(bg_write_interference=0.3)
    assert node.slowdown == 1.0
    node.bg_stream_started()
    assert node.slowdown == pytest.approx(1.3)
    node.bg_stream_stopped()
    assert node.slowdown == 1.0


def test_bg_stream_underflow_raises():
    eng, node = make_node()
    with pytest.raises(RuntimeError):
        node.bg_stream_stopped()


def test_mem_copy_duration():
    eng, node = make_node(mem_copy_bw=1e6)

    def proc():
        yield from node.mem_copy(2e6)

    eng.process(proc())
    eng.run()
    assert eng.now == pytest.approx(2.0)


def test_compute_time_helper():
    eng, node = make_node(cpu_flops=2000.0)
    assert node.compute_time(1000.0) == pytest.approx(0.5)


def test_parallel_computes_on_one_node_both_slow_during_stream():
    """Two app processes on a node both integrate the interference."""
    eng, node = make_node(cpu_flops=1000.0, bg_write_interference=1.0)
    done = {}

    def app(tag, work):
        yield from node.compute(work)
        done[tag] = eng.now

    def ckpt():
        node.bg_stream_started()
        yield eng.timeout(1000.0)
        node.bg_stream_stopped()

    eng.process(app("a", 1000.0))
    eng.process(app("b", 2000.0))
    eng.process(ckpt())
    eng.run(until=100.0)
    assert done["a"] == pytest.approx(2.0)
    assert done["b"] == pytest.approx(4.0)


# -- spent compute subscriptions are detached ---------------------------------


def test_sequential_computes_retain_no_spent_subscription():
    """Each compute() subscribes a race trigger to the node's rate-change
    event; once the compute finished that subscription is dead weight. It
    used to pile up — one trigger + Timeout + bound method per compute —
    until the next rate bump."""
    eng, node = make_node(cpu_flops=1000.0)
    high_water = []

    def app(k):
        for _ in range(k):
            yield from node.compute(100.0)
            high_water.append(len(node._rate_change.callbacks))

    eng.process(app(50))
    eng.process(app(50))  # two computes in flight at any time
    eng.run()
    assert node.flops_done == pytest.approx(100 * 100.0)
    # bounded by the computes in flight, not by the computes done
    assert max(high_water) <= 2
    assert node._rate_change.callbacks == []


def _parent_compute(node, flops):
    """``Node.compute`` as it was before the detach, racing with a general
    ``AnyOf`` (the reference)."""
    engine = node.engine
    remaining = float(flops)
    while remaining > 1e-9:
        rate = node.params.cpu_flops / node.slowdown
        t0 = engine.now
        finish = engine.timeout(remaining / rate)
        change = node._rate_change
        yield finish | change
        elapsed = engine.now - t0
        done = rate * elapsed
        remaining -= done
        node.busy_time += elapsed
        node.flops_done += done
        if finish.processed:
            break


@pytest.mark.parametrize("backend", ["reference", "twotier"])
def test_detach_leaves_firing_order_unchanged(backend):
    """Rate bumps interleaved with computes — before, inside, at the very
    instant of and after a compute's end — split the computes exactly as
    before: the step-hook transcript equals the parent implementation's."""

    def transcript(compute):
        eng = Engine(backend=backend)
        node = Node(eng, 0, NodeParams(cpu_flops=1000.0, bg_write_interference=0.5))
        fired, ends = [], []
        # the parent raced with an AnyOf, Node.compute with its own _Race:
        # only the class name differs, the firing itself must not
        name = {"AnyOf": "_Race"}
        eng.step_hook = lambda t, ev: fired.append(
            (t, name.get(type(ev).__name__, type(ev).__name__))
        )

        def app(tag, chunks):
            for flops in chunks:
                yield from compute(node, flops)
                ends.append((tag, eng.now))

        def bumps():
            for gap, start in ((0.5, True), (1.0, False), (0.5, True), (2.25, False)):
                yield eng.timeout(gap)
                node.bg_stream_started() if start else node.bg_stream_stopped()

        eng.process(app("a", [1000.0, 1000.0, 500.0, 2000.0]))
        eng.process(app("b", [250.0] * 8))
        eng.process(bumps())
        eng.run()
        return fired, ends, eng.now, eng._seq, node.busy_time, node.flops_done

    assert transcript(Node.compute) == transcript(_parent_compute)
