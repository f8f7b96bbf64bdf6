import dataclasses
import math
import types

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from scare_radi import engine, kernels, shifts
from scare_radi.bench import gen_heat_problem, with_noise_blocks
from scare_radi.engine import SolveOptions, init_state, radi_solve, step_once
from scare_radi.errors import (
    BasisFailureError,
    NoProgressError,
    ShiftFailureError,
    ShiftRejectionError,
)
from scare_radi.kernels import StackedMat
from scare_radi.problems import StandardProblem
from scare_radi.shifts import (
    ShiftCache,
    ShiftConfig,
    build_basis,
    hamiltonian_shifts,
    next_shift,
    projection_shifts,
)
from scare_radi.testing import random_standard_problem


def diag_problem(diag, m=1, l=1):
    n = len(diag)
    return StandardProblem(
        a=sp.csc_matrix(np.diag(np.asarray(diag, dtype=float))),
        b=np.zeros((n, m)),
        c=np.zeros((l, n)),
        ahat=StackedMat.from_blocks([], block_rows=n, block_cols=n),
        bhat=StackedMat.from_blocks([], block_rows=n, block_cols=m),
    )


# ---------------------------------------------------------------------------
# basis


def test_basis_orthonormal_rows_pass_through():
    s = np.eye(5)[:2]
    u = build_basis([s], None)
    assert u.shape == (5, 2)
    np.testing.assert_allclose(np.abs(u.T @ np.eye(5)[:2].T), np.eye(2), atol=1e-13)


def test_basis_drops_duplicate_factors():
    s = np.random.default_rng(0).standard_normal((3, 10))
    u = build_basis([s, s.copy()], None)
    assert u.shape[1] == 3


def test_basis_window_and_orthonormality():
    rng = np.random.default_rng(1)
    hist = [rng.standard_normal((4, 50)) for _ in range(3)]
    u = build_basis(hist[-2:], None)
    assert u.shape[1] == 8
    assert np.linalg.norm(u.T @ u - np.eye(8)) <= 1e-13


def test_basis_fallback_to_output_factor():
    c = np.random.default_rng(2).standard_normal((3, 20))
    u = build_basis([], c)
    assert u.shape == (20, 3)


def test_basis_all_zero_fails():
    with pytest.raises(BasisFailureError):
        build_basis([np.zeros((2, 6))], None)


def test_basis_cap_keeps_leading_pivoted_directions():
    # A 20-row window stack (two blocks of 10) with row norms graded over six
    # decades in shuffled order, as a stochastic solve's blocks are.
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((20, 60)) * rng.permutation(10.0 ** -np.linspace(0, 6, 20))[:, None]
    hist = [rows[:10], rows[10:]]
    u = build_basis(hist, None, q=4)
    assert u.shape == (60, 4)
    assert np.linalg.norm(u.T @ u - np.eye(4)) <= 1e-13
    largest = rows[np.argmax(np.linalg.norm(rows, axis=1))]
    assert np.linalg.norm(largest - u @ (u.T @ largest)) <= 1e-12 * np.linalg.norm(largest)
    full = build_basis(hist, None)
    assert full.shape[1] == 20
    for q in (20, 25):
        np.testing.assert_array_equal(build_basis(hist, None, q=q), full)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 5000), st.integers(1, 3))
def test_basis_property(seed, s):
    rng = np.random.default_rng(seed)
    hist = [rng.standard_normal((2, 30)) for _ in range(3)]
    u = build_basis(hist[-s:], None)
    d = u.shape[1]
    assert d <= 2 * s
    assert np.linalg.norm(u.T @ u - np.eye(d)) <= 1e-12


def pivoted_qr_basis(stack, q=None):
    """The oracle: leading columns of a full pivoted QR (LAPACK dgeqp3) of the stack's rows."""
    basis, r, _ = sla.qr(stack.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int(np.count_nonzero(diag > max(stack.shape) * np.finfo(float).eps * diag[0]))
    return basis[:, : rank if q is None else min(rank, q)]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from(["random", "duplicated", "graded"]),
    st.sampled_from([None, 1, 3, 6]),
)
def test_basis_matches_full_pivoted_qr(seed, kind, q):
    rng = np.random.default_rng(seed)
    rows, n = int(rng.integers(1, 25)), int(rng.integers(8, 40))
    stack = rng.standard_normal((rows, n))
    if kind == "duplicated":
        stack = stack[rng.integers(0, rows, rows + 3)]
    elif kind == "graded":  # row norms over 12 decades, in shuffled order
        stack *= rng.permutation(10.0 ** -np.linspace(0.0, 12.0, rows))[:, None]
    hist = [stack[: len(stack) // 2], stack[len(stack) // 2 :]]
    before = [h.copy() for h in hist]
    u = build_basis(hist, None, q=q)
    ref = pivoted_qr_basis(stack, q)
    assert u.shape == ref.shape  # the same numerical rank
    signs = np.sign(np.sum(u * ref, axis=0))
    np.testing.assert_allclose(u, ref * signs, rtol=0, atol=1e-12)
    for h, b in zip(hist, before):  # the window's blocks are Xi's: never written
        np.testing.assert_array_equal(h, b)


@pytest.mark.parametrize("seed", range(5))
def test_basis_stays_orthonormal_on_nearly_dependent_rows(seed):
    # Each row is the previous one plus a perturbation 1e-4 smaller than the
    # last, so deflation cancels all but 1e-4 .. 1e-12 of each later row:
    # without a second projection the basis loses orthogonality to about 1e-4.
    v = np.random.default_rng(seed).standard_normal((4, 40))
    rows = [v[0]]
    for k in range(1, 4):
        rows.append(rows[-1] + 10.0 ** (-4 * k) * v[k])
    stack = np.array(rows)
    u = build_basis([stack], None)
    assert u.shape == (40, 4)
    assert np.linalg.norm(u.T @ u - np.eye(4)) <= 1e-13
    assert np.linalg.norm(stack - (stack @ u) @ u.T) <= 1e-13 * np.linalg.norm(stack)


def test_basis_recomputes_a_cancelled_norm_as_dgeqp3_does():
    # Once row 0 is taken, row 1's downdated norm cancels to rounding, while
    # its true remainder (about 1e-9) exceeds row 2's norm: only a recomputed
    # norm picks row 1 next, as dgeqp3 does.
    v, w, z = np.random.default_rng(1).standard_normal((3, 50))
    stack = np.vstack([v, v + 1e-9 * w, 1e-10 * z])
    assert list(sla.qr(stack.T, mode="economic", pivoting=True)[2]) == [0, 1, 2]
    u = build_basis([stack], None)
    ref = pivoted_qr_basis(stack)
    # The same pivots give the same columns, to the cancellation's accuracy.
    np.testing.assert_allclose(np.abs(np.sum(u * ref, axis=0)), 1.0, rtol=0, atol=1e-6)


@pytest.mark.parametrize("rank", [40, 4], ids=["full", "deficient"])
def test_gram_rows_are_the_leading_rows_of_the_pivoted_cholesky(rank):
    # The q partial steps pivot as LAPACK's dpstrf does, so their rows are
    # the leading rows of the full factor; on a rank-4 Gram they stop at 4.
    rng = np.random.default_rng(16)
    c = rng.standard_normal((rank, 40)) * 10.0 ** -np.linspace(0.0, 6.0, 40)
    g = c.T @ c
    full, _ = kernels.gram_factor(g)
    rows = shifts.gram_rows(g, 6)
    assert rows.shape == (min(6, rank), 40)
    scale = np.linalg.norm(full[0])
    assert np.linalg.norm(rows - full[: rows.shape[0]]) <= 1e-12 * scale


def test_hamiltonian_shifts_read_the_residual_in_either_form():
    # Qbar is (C W)^T (C W) in factor form and W^T G W in Gram form; with
    # G = C^T C the shifts agree to rounding.
    base = gen_heat_problem(60, 2, 2, seed=3, scale=50.0, damping=20.0, mass_matrix=True)
    p = with_noise_blocks(base, [1e-3], seed=103)
    st = init_state(p)
    st = step_once(p, st, 300.0, SolveOptions(cap_cols=1500))[0]
    u = build_basis(st.xi_blocks[-1:], st.ccur, q=2)
    want = hamiltonian_shifts(u, p, st)
    st.gram, st.ccur = st.ccur.T @ st.ccur, None
    got = hamiltonian_shifts(u, p, st)
    np.testing.assert_allclose(got, want, rtol=1e-10)


def c9_recompute_inputs():
    """A c9 shift recompute at n = 300: a 300-row block and residual, graded over 12 decades."""
    base = gen_heat_problem(300, 7, 6, seed=0, scale=100.0, damping=100.0)
    p = with_noise_blocks(base, [1e-5, 1e-4, 1e-3, 1e-2], seed=100)
    rng = np.random.default_rng(0)
    grade = 10.0 ** -np.linspace(0.0, 12.0, 300)[:, None]
    state = init_state(p)
    state.ccur = rng.standard_normal((300, 300)) * grade
    return p, state, rng.standard_normal((300, 300)) * grade


def det_mass_recompute_inputs():
    """A det-mass shift recompute at n = 5000: the 6 x 5000 block of a first step."""
    p = gen_heat_problem(5000, 7, 6, seed=0, mass_matrix=True)
    state, _ = step_once(p, init_state(p), 1e3)
    return p, state, state.xi_blocks[-1]


@pytest.mark.parametrize("s", [1, 2, 5])
def test_recomputes_project_onto_the_tail_of_xi(monkeypatch, s):
    # Per-iteration shifts recompute at every step.  In factor form each
    # recompute's window is the last s blocks of Xi, the very arrays the steps
    # appended, and the first, with only Xi's empty seed block, falls back to
    # the residual factor.  In Gram form, which this solve reaches, the window
    # is the l*s leading rows of the pivoted Cholesky of the residual Gram.
    base = gen_heat_problem(60, 2, 2, seed=3, scale=50.0, damping=20.0)
    p = with_noise_blocks(base, [1e-3], seed=103)
    calls, blocks, grams = [], [], []
    real_basis, real_step = shifts.build_basis, engine.step_once

    def recording_basis(window, fallback, q=None):
        calls.append((list(window), fallback))
        return real_basis(window, fallback, q)

    def recording_step(p, state, *args, **kwargs):
        # the residual the step's shift was computed from; a Gram step
        # overwrites it in place
        grams.append(None if state.gram is None else state.gram.copy())
        st, row = real_step(p, state, *args, **kwargs)
        if row.svd_route == "gram":  # the switch folds Xi's blocks into X_tall
            blocks.append(st.xi_blocks[-1])
        return st, row

    monkeypatch.setattr(shifts, "build_basis", recording_basis)
    monkeypatch.setattr(engine, "step_once", recording_step)
    _, report = radi_solve(
        p, SolveOptions(shift=ShiftConfig("hamiltonian", s, "per_iteration")))
    assert report.converged and report.iterations > 5
    assert not any(row.rejections for row in report.rows)
    assert len(calls) == len(grams) == report.iterations
    assert any(g is None for g in grams) and any(g is not None for g in grams)
    seed_block = calls[0][0][0]
    assert seed_block.shape == (0, p.n)
    assert len(calls[0][0]) == 1
    np.testing.assert_array_equal(calls[0][1], p.c)
    for k, (window, fallback) in enumerate(calls):
        if grams[k] is not None:
            assert fallback is None and len(window) == 1
            np.testing.assert_array_equal(window[0], shifts.gram_rows(grams[k], p.l * s))
            continue
        want = ([seed_block] + blocks[:k])[-s:]
        assert len(window) == len(want)
        assert all(got is block for got, block in zip(window, want))


@pytest.mark.parametrize("make", [c9_recompute_inputs, det_mass_recompute_inputs],
                         ids=["c9", "det-mass"])
def test_hamiltonian_shifts_on_the_basis_match_the_full_qr_basis(make):
    p, state, block = make()

    def shifts_on(u):
        return hamiltonian_shifts(u, p, state)

    got = shifts_on(build_basis([block], None, q=6))
    want = shifts_on(pivoted_qr_basis(block, 6))
    assert len(got) == len(want)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


# ---------------------------------------------------------------------------
# Hamiltonian strategy


def test_hamiltonian_scalar_closed_form(scalar_problem):
    p = scalar_problem()
    got = hamiltonian_shifts(np.eye(1), p, init_state(p))
    np.testing.assert_allclose(got, [np.sqrt(2.0)], atol=1e-12)


def test_hamiltonian_degenerate_blocks_pick_mildest_stable():
    p = diag_problem([-1.0, -3.0, -2.0])
    got = hamiltonian_shifts(np.eye(3), p, init_state(p))
    np.testing.assert_allclose(got[0], 1.0, atol=1e-12)


def test_hamiltonian_matches_dense_oracle_selection():
    p = random_standard_problem(n=40, m=2, l=3, r=2, seed=7)
    st = init_state(p)
    u = build_basis([], st.ccur)
    got = hamiltonian_shifts(u, p, st)[0]

    # independent dense reconstruction of the same selection rule
    a = p.a_sparse().toarray()
    abar = u.T @ (a + p.b @ st.f) @ u
    ub = u.T @ p.b
    qu = st.ccur @ u
    ham = np.block([[abar, ub @ ub.T], [qu.T @ qu, -abar.T]])
    lam, vecs = np.linalg.eig(ham)
    d = abar.shape[0]
    qn = np.linalg.norm(vecs[d:, :], axis=0)
    mask = lam.real < 0
    best = max(np.nonzero(mask)[0], key=lambda i: qn[i])
    assert abs(got - (-lam[best].real)) <= 1e-10 * got


def test_hamiltonian_cached_returns_ordered_distinct_shifts():
    p = random_standard_problem(n=50, m=2, l=4, r=2, seed=8)
    st = init_state(p)
    u = build_basis([], st.ccur)
    gammas = hamiltonian_shifts(u, p, st)
    assert len(gammas) >= 2
    assert all(g > 0 for g in gammas)
    assert len(set(np.round(gammas, 12))) == len(gammas)


def test_hamiltonian_selection_invariant_under_basis_permutation():
    p = random_standard_problem(n=40, m=2, l=3, r=2, seed=9)
    st = init_state(p)
    u = build_basis([], st.ccur)
    g1 = hamiltonian_shifts(u, p, st)[0]
    g2 = hamiltonian_shifts(u[:, [2, 0, 1]], p, st)[0]
    assert abs(g1 - g2) <= 1e-10 * abs(g1)


def test_hamiltonian_without_stable_eigenvalue_falls_back_on_the_same_projection(monkeypatch):
    # With Gbar and Qbar Grams, the Hamiltonian's imaginary eigenvalues are
    # Abar's, so only rounding can leave it without a stable eigenvalue while
    # Abar has one; reflecting its spectrum onto the right reaches that
    # branch.  The fallback's shifts are the projection strategy's, taken
    # from the closed loop the Hamiltonian already projected.
    p = random_standard_problem(n=40, m=2, l=3, r=2, seed=7)
    st = init_state(p)
    u = build_basis([], st.ccur)
    want = projection_shifts(u, p, st)
    real_eig, real_projection = np.linalg.eig, shifts._projected_closed_loop
    projections = []

    def reflected_eig(m):
        lam, vecs = real_eig(m)
        return np.abs(lam.real) + 1j * lam.imag, vecs

    def recording_projection(*args):
        projections.append(args[0].shape)
        return real_projection(*args)

    monkeypatch.setattr(np.linalg, "eig", reflected_eig)
    monkeypatch.setattr(shifts, "_projected_closed_loop", recording_projection)
    got = hamiltonian_shifts(u, p, st)
    assert len(want) >= 2
    assert got == want
    assert projections == [u.shape]


def test_gamma_floor_clamps():
    # |A|_1 = 100 puts the floor 1e-8 |A|_1 at 1e-6, far above the two
    # eigenvalues the basis projects onto.
    p = diag_problem([-1e-15, -2e-15, -100.0])
    got = projection_shifts(np.eye(3)[:, :2], p, init_state(p))
    assert got == [1e-8 * 100.0]  # both clamped shifts collapse into one


# ---------------------------------------------------------------------------
# projection strategy


def test_projection_reads_diagonal():
    p = diag_problem([-1.0, -3.0, -2.0])
    got = projection_shifts(np.eye(3), p, init_state(p))
    np.testing.assert_allclose(got[0], 3.0)


def test_projection_scalar(scalar_problem):
    p = scalar_problem()
    got = projection_shifts(np.eye(1), p, init_state(p))
    np.testing.assert_allclose(got, [1.0])


def test_projection_cached_order():
    p = diag_problem([-1.0, -3.0, -2.0])
    got = projection_shifts(np.eye(3), p, init_state(p))
    np.testing.assert_allclose(got, [3.0, 2.0, 1.0])


def test_projection_matches_dense_eigs():
    p = random_standard_problem(n=40, m=2, l=2, r=2, seed=10)
    st = init_state(p)
    u = build_basis([], st.ccur)
    got = projection_shifts(u, p, st)[0]
    a = p.a_sparse().toarray()
    lam = np.linalg.eigvals(u.T @ (a + p.b @ st.f) @ u)
    assert abs(got - (-lam.real.min())) <= 1e-10 * got


def test_projection_unstable_projection_fails():
    p = diag_problem([1.0, 2.0])
    with pytest.raises(ShiftFailureError):
        projection_shifts(np.eye(2), p, init_state(p))


# ---------------------------------------------------------------------------
# next_shift bookkeeping


def test_shift_config_validation():
    with pytest.raises(ValueError):
        ShiftConfig(strategy="secant")
    with pytest.raises(ValueError):
        ShiftConfig(mode="sometimes")
    with pytest.raises(ValueError):
        ShiftConfig(window_s=0)
    # The window counts blocks: it slices Xi's block list.
    for bad in (1.5, 2.0, True):
        with pytest.raises(ValueError, match="window_s must be an integer"):
            ShiftConfig(window_s=bad)
    assert ShiftConfig(window_s=np.int64(2)).window_s == 2


def test_next_shift_pops_cache():
    p = random_standard_problem(n=15, m=2, l=2, r=2, seed=11)
    st = init_state(p)
    cfg = ShiftConfig("hamiltonian", 1, "cached")
    cache = ShiftCache(pending=[2.0, 1.5])
    g, cache = next_shift(cfg, cache, p, st)
    assert g == 2.0 and cache.pending == [1.5]


def test_next_shift_per_iteration_ignores_cache():
    p = random_standard_problem(n=15, m=2, l=2, r=2, seed=12)
    st = init_state(p)
    st, _ = step_once(p, st, 1.0)
    cfg = ShiftConfig("hamiltonian", 1, "per_iteration")
    stale = ShiftCache(pending=[123.0], source_iteration=st.k - 1)
    g, cache = next_shift(cfg, stale, p, st)
    assert g != 123.0 and cache.source_iteration == st.k
    # a cache from the current iteration holds the retry candidates
    current = ShiftCache(pending=[123.0, 45.0], source_iteration=st.k)
    g, cache = next_shift(cfg, current, p, st)
    assert g == 123.0 and cache is current and cache.pending == [45.0]


def test_next_shift_recomputes_when_exhausted():
    p = random_standard_problem(n=50, m=2, l=2, r=2, seed=13)
    st = init_state(p)
    st, _ = step_once(p, st, 1.0)
    cfg = ShiftConfig("hamiltonian", 1, "cached")
    g, cache = next_shift(cfg, ShiftCache(pending=[]), p, st)
    assert g > 0
    assert cache.source_iteration == st.k


@pytest.mark.parametrize("mode", ["cached", "per_iteration"])
def test_next_shift_skips_the_rejected_shifts(monkeypatch, mode):
    p = random_standard_problem(n=50, m=2, l=2, r=2, seed=13)
    st, _ = step_once(p, init_state(p), 1.0)
    cfg = ShiftConfig("hamiltonian", 1, mode)
    first, cache = next_shift(cfg, ShiftCache(), p, st)
    assert len(cache.pending) >= 1  # the projection offers more than one shift
    g, _ = next_shift(cfg, ShiftCache(), p, st, rejected=[first])
    assert g != first
    # A projection with a single candidate has nothing left once it is rejected.
    monkeypatch.setattr(shifts, "hamiltonian_shifts", lambda *a: [0.5])
    assert next_shift(cfg, ShiftCache(), p, st)[0] == 0.5
    with pytest.raises(NoProgressError):
        next_shift(cfg, ShiftCache(), p, st, rejected=[0.5])


def test_cached_picks_take_the_pending_shift_the_applied_ones_damp_least(monkeypatch):
    cfg = ShiftConfig("hamiltonian", 1, "cached")
    # Each pick is a projection's second step: the projection was computed
    # one committed step earlier, at ``source_iteration``.  A state holds the
    # shifts of its committed steps; a rejected shift is never one of them.
    state = types.SimpleNamespace(k=1, shifts=[4.1])
    # After 4.1 the damping factors |g - 4.1| / (g + 4.1) are 0.32, 0.34 and
    # 0.61, so 1.0 goes first although it has the lowest priority.
    cache = ShiftCache(pending=[8.0, 2.0, 1.0], source_iteration=0)
    g, cache = next_shift(cfg, cache, None, state)
    assert g == 1.0 and cache.pending == [8.0, 2.0]
    # A retry at the same count: the rejected 1.0 is no applied shift, so
    # 2.0 leads (8.0 would if 1.0 counted).
    g, cache = next_shift(cfg, cache, None, state, rejected=[1.0])
    assert g == 2.0 and cache.pending == [8.0]
    state.k, state.shifts = 2, [4.1, 2.0]
    cache.source_iteration = 1
    assert next_shift(cfg, cache, None, state)[0] == 8.0
    # Equal damping (1/3 for both) keeps the priority order.
    for pending in ([2.0, 0.5], [0.5, 2.0]):
        cache = ShiftCache(pending=list(pending), source_iteration=0)
        state = types.SimpleNamespace(k=1, shifts=[1.0])
        assert next_shift(cfg, cache, None, state)[0] == pending[0]
    # A repeat of an applied shift comes last, even at the highest priority.
    cache = ShiftCache(pending=[3.0, 9.0, 7.0])
    state = types.SimpleNamespace(k=2, shifts=[3.0, 8.0])
    order = []
    for _ in range(3):
        cache.source_iteration = state.k - 1
        g, cache = next_shift(cfg, cache, None, state)
        order.append(g)
        state.k += 1
        state.shifts.append(g)
    assert order == [9.0, 7.0, 3.0]
    # Past its two steps a projection is recomputed, though shifts remain.
    monkeypatch.setattr(shifts, "_compute", lambda cfg, p, state: ShiftCache([5.0], state.k))
    state = types.SimpleNamespace(k=2, shifts=[4.1, 2.0])
    g, cache = next_shift(cfg, ShiftCache(pending=[8.0, 1.0], source_iteration=0), None, state)
    assert g == 5.0 and cache.source_iteration == 2


_SHIFT_VALUES = st.one_of(
    st.sampled_from([0.5, 1.0, 2.0, 3.0, 40.0, 1e3]),  # repeats across projections
    st.floats(1e-3, 1e6),
)


def _damping_score(g, applied):
    """sum_j log(|g - a_j| / (g + a_j)) over the applied a_j; -inf for a repeat."""
    if g in applied:
        return -math.inf
    return math.fsum(math.log(abs(g - a) / (g + a)) for a in applied)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(_SHIFT_VALUES, min_size=1, max_size=6, unique=True),
                min_size=1, max_size=8))
def test_cached_mode_uses_each_projection_up_from_its_primary(projections):
    # With no rejections each projection serves min(2, its length) steps:
    # its primary, then a pending shift that the applied ones damp least
    # (up to rounding) and that repeats no applied shift while a non-repeat
    # is pending.  The next call computes the next projection.
    fresh = iter(projections)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(shifts, "_compute",
                  lambda cfg, p, state: ShiftCache(list(next(fresh)), state.k))
        cfg, cache = ShiftConfig(mode="cached"), None
        state = types.SimpleNamespace(k=0, shifts=[])
        for listed in projections:
            source, rest = state.k, listed[1:]
            g, cache = next_shift(cfg, cache, None, state)
            assert g == listed[0] and cache.source_iteration == source
            state.shifts.append(g)
            state.k += 1
            if rest:
                g, cache = next_shift(cfg, cache, None, state)
                assert cache.source_iteration == source
                assert sorted(cache.pending + [g]) == sorted(rest)
                best = max(_damping_score(c, state.shifts) for c in rest)
                assert _damping_score(g, state.shifts) >= best - 1e-9 * max(1.0, abs(best))
                if any(c not in state.shifts for c in rest):
                    assert g not in state.shifts
                state.shifts.append(g)
                state.k += 1
        assert next(fresh, None) is None


@pytest.mark.parametrize("strategy", ["hamiltonian", "projection"])
def test_a_projection_serves_two_cached_steps_and_one_per_iteration_step(
    monkeypatch, strategy
):
    # Every projection of these solves offers at least two shifts, and no
    # step is rejected, so a cached solve of k steps projects ceil(k / 2)
    # times and a per-iteration solve k times.
    p = gen_heat_problem(200, 2, 3, seed=1)
    computed_at, real_compute = [], shifts._compute

    def spy(cfg, prob, state):
        computed_at.append(state.k)
        return real_compute(cfg, prob, state)

    monkeypatch.setattr(shifts, "_compute", spy)
    for mode, serves in (("cached", 2), ("per_iteration", 1)):
        computed_at.clear()
        _, report = radi_solve(p, SolveOptions(shift=ShiftConfig(strategy, 1, mode)))
        assert report.converged and report.iterations > 10
        assert not any(row.rejections for row in report.rows)
        assert computed_at == list(range(0, report.iterations, serves))


def test_a_rejection_at_a_projections_second_step_retries_from_that_projection(monkeypatch):
    p = gen_heat_problem(200, 2, 3, seed=1)
    projections, attempts, real_compute = {}, {}, shifts._compute

    def spy(cfg, prob, state):
        cache = real_compute(cfg, prob, state)
        projections[state.k] = list(cache.pending)
        return cache

    def rejecting_step(prob, st, gamma, opts=None):
        attempts.setdefault(st.k, []).append(gamma)
        if st.k == 3 and len(attempts[3]) == 1:
            raise ShiftRejectionError("rejected once for the test")
        return step_once(prob, st, gamma, opts)

    monkeypatch.setattr(shifts, "_compute", spy)
    monkeypatch.setattr(engine, "step_once", rejecting_step)
    _, report = radi_solve(p, SolveOptions(shift=ShiftConfig("hamiltonian", 1, "cached")))
    assert report.converged
    # Step 3 is the second of the projection made at step 2: the retry takes
    # another of its pending shifts, and the projections keep their pairs.
    rejected, retried = attempts[3]
    assert retried != rejected and {rejected, retried} <= set(projections[2][1:])
    assert report.rows[4].gamma == retried and report.rows[4].rejections == 1
    assert sorted(projections) == list(range(0, report.iterations, 2))


def test_per_iteration_solve_takes_each_fresh_projections_primary(monkeypatch):
    p = gen_heat_problem(400, 3, 2, seed=4, mass_matrix=True)
    primaries, real_compute = {}, shifts._compute

    def spy(cfg, prob, state):
        cache = real_compute(cfg, prob, state)
        primaries[state.k] = cache.pending[0]
        return cache

    monkeypatch.setattr(shifts, "_compute", spy)
    _, report = radi_solve(p, SolveOptions(shift=ShiftConfig("hamiltonian", 1, "per_iteration")))
    assert report.converged and report.iterations > 5
    assert not any(row.rejections for row in report.rows)
    assert [row.gamma for row in report.rows[1:]] == [primaries[k] for k in range(len(primaries))]


def test_shift_order_ignores_rounding_level_priorities(monkeypatch):
    # Cached Hamiltonian shifts whose lower-block norms sit at the rounding
    # floor (here ~1e-16) must not be reordered by rounding of the residual
    # factor.  Perturb every wide-route factor by a sigma round trip: the
    # solve keeps its iteration count and shift sequence.
    p = gen_heat_problem(5000, 7, 6, seed=10, mass_matrix=True)
    opts = SolveOptions(shift=ShiftConfig("hamiltonian", 1, "cached"))
    _, ref = radi_solve(p, opts)

    def round_trip(stacked, *args, **kwargs):
        trunc = kernels.trunc_svd(stacked, *args, **kwargs)
        if trunc.route != "gram":
            return trunc
        sigma = np.linalg.norm(trunc.factor, axis=1)[:, None]
        return dataclasses.replace(trunc, factor=sigma * (trunc.factor / sigma))

    monkeypatch.setattr(engine, "trunc_svd", round_trip)
    _, got = radi_solve(p, opts)
    assert ref.converged and got.converged
    assert got.iterations == ref.iterations
    np.testing.assert_allclose(
        [r.gamma for r in got.rows[1:]], [r.gamma for r in ref.rows[1:]], rtol=1e-6
    )


def test_all_twelve_variants_converge_small():
    p = random_standard_problem(n=30, m=2, l=2, r=2, seed=14)
    for strategy in ("hamiltonian", "projection"):
        for s in (1, 2, 5):
            for mode in ("cached", "per_iteration"):
                _, rep = radi_solve(
                    p,
                    SolveOptions(shift=ShiftConfig(strategy, s, mode), max_iter=80),
                )
                assert rep.converged, (strategy, s, mode)
