"""The rewritten application kernels against their original spellings.

``repro.apps`` claims its fast kernels do the *same arithmetic* as the slow
ones they replaced, so every comparison here is exact equality — there is
no tolerance to tune. numpy's reduction order and SIMD loops are
implementation details; CI runs this file under two Python/numpy versions
so that a change to either surfaces here and not as a drifted table.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.gauss import _eliminate
from repro.apps.ising import _sweep_colour
from repro.apps.nbody import _block_forces
from repro.apps.sor import _SweepPlan, _sweep
from repro.apps.tsp import _solve_task

from repro.core.errors import InvariantViolation

from . import reference_kernels as ref

# -- TSP ----------------------------------------------------------------------


@st.composite
def tsp_cases(draw):
    """A symmetric map, a task and an incumbent chosen to hit every exit."""
    n = draw(st.integers(4, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dist = rng.integers(10, 100, size=(n, n)).astype(np.int64)
    dist = (dist + dist.T) // 2
    np.fill_diagonal(dist, 0)
    first = draw(st.integers(1, n - 1))
    second = draw(st.integers(1, n - 1).filter(lambda c: c != first))
    start_cost = int(dist[0, first] + dist[first, second])
    task_optimum, _ = ref.solve_task(dist, first, second, 10**9)
    incumbent = draw(
        st.sampled_from(
            [
                10**9,  # nothing pruned by the incumbent
                task_optimum + 1,  # the optimum is the only improvement
                task_optimum,  # incumbent already optimal
                start_cost + 1,
                start_cost,  # start cost >= incumbent: no node explored
                1,
            ]
        )
        | st.integers(start_cost, 2 * task_optimum)
    )
    return dist, first, second, incumbent


@settings(max_examples=150, deadline=None)
@given(tsp_cases())
def test_tsp_solve_task_same_best_and_nodes(case):
    dist, first, second, incumbent = case
    assert _solve_task(dist, first, second, incumbent) == ref.solve_task(
        dist, first, second, incumbent
    )


# -- ISING --------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 13),  # even and odd lattice widths
    rows=st.sampled_from([0, 1, 2, 3, 4, 5, 7]),
    row_offset=st.integers(0, 9),
    colour=st.sampled_from([0, 1]),
    beta=st.sampled_from([0.0, 0.4, 0.8, 1e9]),
    seed=st.integers(0, 2**32 - 1),
)
def test_ising_sweep_same_spins_and_same_stream(n, rows, row_offset, colour, beta, seed):
    rng = np.random.default_rng(seed)
    block = rng.choice(np.array([-1, 1], dtype=np.int8), size=(rows + 2, n))
    jh = rng.normal(size=(rows, n))
    jv = rng.normal(size=(rows + 1, n))
    want, got = block.copy(), block.copy()
    want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    ref.sweep_colour(want, jh, jv, row_offset, colour, beta, want_rng)
    _sweep_colour(got, jh, jv, row_offset, colour, beta, got_rng)
    np.testing.assert_array_equal(got, want)
    # the same number of uniforms was drawn: the streams are at one position
    assert got_rng.random() == want_rng.random()


# -- NBODY --------------------------------------------------------------------


def _bodies(rng, count):
    return rng.uniform(-1.0, 1.0, size=(count, 3)), rng.uniform(0.5, 1.5, size=count)


@settings(max_examples=200, deadline=None)
@given(
    targets=st.integers(1, 12) | st.sampled_from([31, 64]),
    sources=st.integers(1, 12) | st.sampled_from([33, 64, 200]),
    seed=st.integers(0, 2**32 - 1),
)
def test_nbody_block_forces_bit_identical(targets, sources, seed):
    rng = np.random.default_rng(seed)
    tpos, _ = _bodies(rng, targets)
    spos, smass = _bodies(rng, sources)
    np.testing.assert_array_equal(
        _block_forces(tpos, spos, smass), ref.block_forces(tpos, spos, smass)
    )


@pytest.mark.parametrize("count", [1, 2, 3, 8, 9, 50, 192])
def test_nbody_self_interaction_bit_identical(count):
    pos, mass = _bodies(np.random.default_rng(count), count)
    np.testing.assert_array_equal(
        _block_forces(pos, pos, mass), ref.block_forces(pos, pos, mass)
    )


# -- GAUSS --------------------------------------------------------------------


@pytest.mark.parametrize("size", [1, 2, 3, 5])
def test_gauss_eliminate_same_rows_for_every_rank_and_pivot(size):
    """Every ``(rank, size, k)``: pivots above this rank's first row
    (``k < rank``), between its rows, and the last one (nothing below)."""
    n = 11
    rng = np.random.default_rng(size)
    full = rng.uniform(-1.0, 1.0, size=(n, n + 1))
    for rank in range(size):
        ids = np.arange(rank, n, size)
        for k in range(n):
            pivot = full[k].copy()
            want, got = full[ids].copy(), full[ids].copy()
            m_want = ref.eliminate(want, ids, pivot, k)
            m_got = _eliminate(got, ids, pivot, k)
            assert m_got == m_want == int((ids > k).sum())
            np.testing.assert_array_equal(got, want)


# -- SOR ----------------------------------------------------------------------


@settings(max_examples=250, deadline=None)
@given(
    m=st.integers(1, 40),
    n=st.integers(3, 41),  # odd and even grid widths
    row_offset=st.integers(0, 9),
    phase=st.sampled_from([0, 1]),
    omega=st.sampled_from([0.5, 1.0, 1.5, 1.9, 1.2345]),
    layout=st.sampled_from(["C", "F", "strided"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_sor_sweep_bit_identical(m, n, row_offset, phase, omega, layout, seed):
    """The flat-run stencil equals the 2-D one bit for bit, also on blocks
    that are not C-contiguous (read through a flat copy, written through
    the interior view)."""
    values = np.random.default_rng(seed).normal(size=(m + 2, n))
    want = values.copy()
    if layout == "C":
        got = values.copy()
    elif layout == "F":
        got = np.asfortranarray(values)
    else:  # every other column of a wider array
        wide = np.zeros((m + 2, 2 * n))
        wide[:, ::2] = values
        got = wide[:, ::2]
    assert got.flags.c_contiguous == (layout == "C")
    ref.sor_sweep(want, row_offset, omega, phase)
    _sweep(got, row_offset, omega, phase)
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()
    if layout == "strided":
        assert not wide[:, 1::2].any()  # the untouched columns stayed untouched


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, 12),
    n=st.integers(3, 17),  # odd and even grid widths
    row_offset=st.integers(0, 9),  # both parities
    omega=st.sampled_from([0.5, 1.5, 1.9, 1.2345]),
    k=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=1, n=3, row_offset=0, omega=1.5, k=4, seed=0)
@example(m=1, n=4, row_offset=1, omega=1.5, k=4, seed=1)
def test_sor_plan_reused_across_iterations_bit_identical(m, n, row_offset, omega, k, seed):
    """One kept plan driven as ``SOR.run`` drives it — alternating phases,
    fresh halo rows written through the plan's row views before every
    half-sweep — equals the 2-D stencil applied as often. A view that went
    stale after the first call would diverge here."""
    rng = np.random.default_rng(seed)
    want = rng.normal(size=(m + 2, n))
    got = want.copy()
    plan = _SweepPlan(got, row_offset, omega)
    for step in range(k):
        phase = step % 2
        up, down = rng.normal(size=n), rng.normal(size=n)
        want[0], want[-1] = up, down
        plan.halo_up[...] = up
        plan.halo_down[...] = down
        ref.sor_sweep(want, row_offset, omega, phase)
        plan.sweep(phase)
        assert got.tobytes() == want.tobytes()
        # the border rows a rank sends are the block's current rows
        assert plan.top.tobytes() == want[1].tobytes()
        assert plan.bottom.tobytes() == want[-2].tobytes()


@pytest.mark.parametrize("layout", ["F", "strided"])
def test_sor_kept_plan_refuses_a_block_it_cannot_alias(layout):
    """``ravel`` of a block that is not C-contiguous is a copy, so a kept
    plan's flat views would read a stale snapshot: it is refused."""
    values = np.random.default_rng(0).normal(size=(6, 8))
    if layout == "F":
        block = np.asfortranarray(values)
    else:
        block = np.zeros((6, 16))[:, ::2]
    with pytest.raises(InvariantViolation, match="C-contiguous"):
        _SweepPlan(block, 1, 1.5)
