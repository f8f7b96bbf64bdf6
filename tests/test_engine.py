import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st_h

from scare_radi import engine, kernels, shifts
from scare_radi.bench import gen_heat_problem, with_noise_blocks
from scare_radi.engine import (
    SolveOptions,
    init_state,
    nres_trace,
    radi_solve,
    step_once,
)
from scare_radi.errors import (
    AssumptionViolationError,
    DegenerateProblemError,
    NoProgressError,
    NumericalBreakdownError,
    ShiftRejectionError,
)
from scare_radi.kernels import factor_shifted, smw_row_solve
from scare_radi.oracles import (
    alg1_init,
    alg1_step,
    care_schur_solve,
    newton_ref_solve,
    one_step_approximant,
)
from scare_radi.problems import DenseCoefficients, adapt_in_place, residual_dense
from scare_radi.shifts import ShiftConfig, next_shift
from scare_radi.testing import random_original_problem, random_standard_problem

SQRT2 = np.sqrt(2.0)
NO_TRUNC = dict(trunc_rel=1e-300, cap_cols=10**6)
SHIFTS = [2.0, 0.9, 3.5, 1.2, 0.6, 2.7, 1.8, 1.1, 0.8, 2.2]


def x_of(state):
    return state.dense_x()


# ---------------------------------------------------------------------------
# step mechanics


def test_scalar_one_step_at_optimal_shift(scalar_problem):
    p = scalar_problem()
    st = init_state(p)
    st, row = step_once(p, st, SQRT2)
    np.testing.assert_allclose(x_of(st), [[SQRT2 - 1.0]], atol=1e-14)
    assert nres_trace(st) <= 1e-25
    assert (row.k, row.gamma, row.nres) == (1, SQRT2, nres_trace(st))


def test_zero_feedback_step_reduces_to_plain_shifted_solve():
    p = random_standard_problem(n=20, m=2, l=2, r=2, seed=0)
    gamma = 1.7
    got, _ = smw_row_solve(factor_shifted(p.operators(), gamma), p.b, np.zeros((p.m, p.n)), p.c)
    a = p.a_sparse().toarray()
    expected = np.linalg.solve((a - gamma * np.eye(20)).T, p.c.T).T
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_first_step_gram_is_one_step_approximant():
    p = random_standard_problem(n=25, m=2, l=3, r=2, seed=1)
    st = init_state(p)
    gamma = 1.3
    st, _ = step_once(p, st, gamma, SolveOptions(**NO_TRUNC))
    x_ref, _, _ = one_step_approximant(p.dense_coefficients(), gamma)
    assert np.linalg.norm(x_of(st) - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


def test_singular_smw_core_rejects_shift(scalar_problem, monkeypatch):
    # a=-1, b=c=1, f0=2 at gamma=1: I + F (A - I)^-1 B = 1 + 2 * (-1/2) = 0.
    p = scalar_problem()
    p.f0 = np.array([[2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", sla.LinAlgWarning)
        with pytest.raises(ShiftRejectionError):
            step_once(p, init_state(p), 1.0)
    monkeypatch.setattr(
        engine, "next_shift", lambda cfg, cache, p, state, rejected=(): (1.0, cache)
    )
    with pytest.raises(NoProgressError):
        radi_solve(p, SolveOptions())


@pytest.mark.parametrize("mode", ["cached", "per_iteration"])
def test_retry_takes_next_candidate(monkeypatch, mode):
    p = random_standard_problem(n=30, m=2, l=2, r=2, seed=20)
    attempts, computed_at = {}, []
    real_compute = shifts._compute

    def rejecting_step(p, st, gamma, opts=None):
        attempts.setdefault(st.k, []).append(gamma)
        if st.k == 1 and len(attempts[1]) == 1:
            raise ShiftRejectionError("rejected once for the test")
        return step_once(p, st, gamma, opts)

    def recording_compute(cfg, p, state):
        computed_at.append(state.k)
        return real_compute(cfg, p, state)

    monkeypatch.setattr(engine, "step_once", rejecting_step)
    monkeypatch.setattr(shifts, "_compute", recording_compute)
    _, report = radi_solve(p, SolveOptions(shift=ShiftConfig("hamiltonian", 2, mode)))
    assert report.converged
    rejected, retried = attempts[1]
    assert retried != rejected
    assert report.rows[2].gamma == retried
    assert computed_at.count(1) <= 1  # the retry reads the pending list, no new projection
    # The trace counts the rejected shift on the row of the step that followed it.
    assert [row.rejections for row in report.rows] == [0, 0, 1] + [0] * (report.iterations - 2)


@pytest.mark.parametrize("mode", ["cached", "per_iteration"])
def test_same_iteration_recompute_drops_rejected_shifts(monkeypatch, mode):
    # One candidate per projection: once it is rejected, a recompute at the
    # same iteration has nothing new to offer, so the solve stops at once.
    p = random_standard_problem(n=30, m=2, l=2, r=2, seed=20)
    attempts = {}

    def rejecting_step(p, st, gamma, opts=None):
        attempts.setdefault(st.k, []).append(gamma)
        raise ShiftRejectionError("rejected for the test")

    monkeypatch.setattr(engine, "step_once", rejecting_step)
    monkeypatch.setattr(shifts, "hamiltonian_shifts", lambda *a: [0.5])
    with pytest.raises(NoProgressError):
        radi_solve(p, SolveOptions(shift=ShiftConfig("hamiltonian", 1, mode)))
    assert attempts == {0: [0.5]}


def test_state_shifts_are_the_committed_steps_shifts(monkeypatch):
    # A rejected shift never enters the state's record of applied shifts: it
    # is the report's gamma column, one entry per committed step.
    p = random_standard_problem(n=30, m=2, l=2, r=2, seed=20)
    tried = []

    def rejecting_step(p, st, gamma, opts=None):
        tried.append(gamma)
        if len(tried) in (2, 5):
            raise ShiftRejectionError("rejected for the test")
        return step_once(p, st, gamma, opts)

    monkeypatch.setattr(engine, "step_once", rejecting_step)
    state, report = radi_solve(p, SolveOptions())
    assert report.converged and sum(row.rejections for row in report.rows) == 2
    assert state.shifts == [row.gamma for row in report.rows[1:]]
    assert len(state.shifts) == state.k == report.iterations


def test_stochastic_shift_basis_is_capped(monkeypatch, tmp_path):
    # The criterion-9 solve at n = 300: its last solution block grows to
    # hundreds of rows, while the shift basis keeps only l * s directions.
    base = gen_heat_problem(300, 7, 6, seed=0, scale=100.0, damping=100.0)
    p = with_noise_blocks(base, [1e-5, 1e-4, 1e-3, 1e-2], seed=100)
    cfg = ShiftConfig("hamiltonian", 1, "cached")
    dims = []
    real_shifts = shifts.hamiltonian_shifts

    def recording_shifts(u, *args, **kwargs):
        dims.append(u.shape[1])
        return real_shifts(u, *args, **kwargs)

    monkeypatch.setattr(shifts, "hamiltonian_shifts", recording_shifts)
    _, report = radi_solve(p, SolveOptions(shift=cfg, cap_cols=1500))
    assert report.converged and report.iterations <= 16
    assert dims and max(dims) <= p.l * cfg.window_s
    report.to_csv(tmp_path / "c9.csv")
    lines = (tmp_path / "c9.csv").read_text().splitlines()
    src = lines[0].split(",").index("shift_src")
    sources = [line.split(",")[src] for line in lines[2:]]
    assert {"recompute", "cache"} <= set(sources)


def test_cached_solve_factors_e_once(monkeypatch):
    # E is factored where the solve's operator forms are built, once per
    # solve however many projections solve with it.
    p = random_standard_problem(n=40, m=2, l=2, r=2, seed=13, with_e=True)
    factored, projections = [], []
    real_splu, real_hami = kernels.splu, shifts.hamiltonian_shifts

    def counting_splu(m, *args, **kwargs):
        if abs(m - p.e).max() == 0.0:  # not a shifted matrix
            factored.append(m.shape)
        return real_splu(m, *args, **kwargs)

    def counting_hami(*args, **kwargs):
        projections.append(1)
        return real_hami(*args, **kwargs)

    monkeypatch.setattr(kernels, "splu", counting_splu)
    monkeypatch.setattr(shifts, "hamiltonian_shifts", counting_hami)
    _, report = radi_solve(p, SolveOptions(shift=ShiftConfig("hamiltonian", 1, "cached")))
    assert report.converged
    assert len(projections) >= 2
    assert factored == [(p.n, p.n)]


def test_singular_mass_matrix_raises_before_any_step(monkeypatch):
    base = gen_heat_problem(30, 2, 2, mass_matrix=True)
    e = base.e.tolil()
    e[5, :] = 0.0
    e[:, 5] = 0.0
    p = dataclasses.replace(base, e=sp.csc_matrix(e))
    steps = []
    monkeypatch.setattr(engine, "step_once", lambda *a, **k: steps.append(1))
    with pytest.raises(AssumptionViolationError, match="singular"):
        radi_solve(p, SolveOptions(shift=ShiftConfig("hamiltonian", 1, "cached")))
    assert steps == []


def test_overflowing_solve_raises_breakdown():
    # The noise at 1e-1 on the undamped stencil admits no stabilizing
    # solution: the iterates grow until the residual ceiling stops them.
    base = gen_heat_problem(200, 7, 6, seed=0)
    p = with_noise_blocks(base, [1e-1], seed=100)
    with pytest.raises(NumericalBreakdownError) as info:
        radi_solve(p, SolveOptions(shift=ShiftConfig("hamiltonian", 1, "cached")))
    assert info.value.iteration <= 10  # stopped by the residual ceiling, not by overflow


def test_r1_step_leaves_kpi_bit_identical():
    p = adapt_in_place(random_original_problem(n=20, m=2, l=2, r=1, seed=3))
    st = init_state(p)
    kpi0 = st.kpi.copy()
    assert not np.array_equal(kpi0, np.eye(2))  # a nontrivial accumulator seed
    for g in SHIFTS[:3]:
        st, _ = step_once(p, st, g)
    assert st.kpi.tobytes() == kpi0.tobytes()


def test_mass_matrix_step_truncates_a_c_contiguous_c_top(monkeypatch):
    # With E, the E-weighted block is Fortran-ordered; C_top is still summed
    # into a C-ordered array, which the truncation's Gram products expect.
    p = gen_heat_problem(200, 2, 2, seed=0, mass_matrix=True)
    seen = []
    real_trunc = engine.trunc_svd

    def recording_trunc(c, **kwargs):
        seen.append((c.shape, c.flags["C_CONTIGUOUS"]))
        return real_trunc(c, **kwargs)

    monkeypatch.setattr(engine, "trunc_svd", recording_trunc)
    st = init_state(p)
    assert p.e is not None
    step_once(p, st, 1e3)
    assert seen == [((p.l, p.n), True)]


def test_xi_blocks_assemble_to_hstack(monkeypatch):
    p = random_standard_problem(n=30, m=2, l=2, r=1, seed=19)
    blocks, before_trim = [], []

    def recording_step(*args, **kwargs):
        st, row = step_once(*args, **kwargs)
        blocks.append(st.xi_blocks[-1].copy())
        before_trim.append(st.xi)  # assembled from the blocks so far
        return st, row

    monkeypatch.setattr(engine, "step_once", recording_step)
    st, report = radi_solve(p, SolveOptions(**NO_TRUNC, max_iter=12))
    assert len(blocks) == 12
    for k, xi in enumerate(before_trim, start=1):
        assert xi.flags["C_CONTIGUOUS"]
        assert xi.tobytes() == np.hstack([s.T for s in blocks[:k]]).tobytes()
    assert len(st.xi_blocks) == 1  # trim_xi assembled Xi once
    assert st.xi.flags["C_CONTIGUOUS"]
    assert st.xi.shape == (p.n, st.xi_width) == (p.n, report.xi_width)
    assert st.xi.tobytes() == np.hstack([s.T for s in blocks]).tobytes()


def test_xi_assembles_blocks_of_any_height():
    # Runs of thin blocks are stacked into one buffer, a taller block goes alone.
    p = random_standard_problem(n=30, m=2, l=2, r=1, seed=19)
    st = init_state(p)
    rng = np.random.default_rng(0)
    heights = (3, 200, 5, 5, 130, 1, engine.XI_GROUP_ROWS, 2, engine.XI_GROUP_ROWS - 2)
    blocks = [rng.standard_normal((k, p.n)) for k in heights]
    for s in blocks:
        st.append_xi(s)
    want = np.hstack([s.T for s in blocks]).tobytes()
    assert st.xi.flags["C_CONTIGUOUS"] and st.xi.tobytes() == want
    st.trim_xi()
    assert st.xi.flags["C_CONTIGUOUS"] and st.xi.tobytes() == want


def test_step_counter_and_width_growth():
    p = random_standard_problem(n=15, m=2, l=2, r=3, seed=2)
    st = init_state(p)
    opts = SolveOptions(**NO_TRUNC)
    widths = []
    for g in SHIFTS[:4]:
        st, _ = step_once(p, st, g, opts)
        widths.append(st.xi_width)
    assert st.k == 4
    assert all(b > a for a, b in zip(widths, widths[1:]))


@pytest.mark.parametrize(
    "bad",
    [
        dict(cap_cols=0),
        dict(max_cols_xi=0),
        dict(max_iter=-1),
        dict(tol_nres=0.0),
        dict(tol_nres=np.nan),
        dict(tol_nres=np.inf),
        dict(trunc_rel=np.nan),
        dict(trunc_rel=np.inf),
        dict(cap_cols=2.5),
        dict(max_cols_xi=100.0),
        dict(max_iter=10.5),
        dict(cap_cols=True),
        dict(max_iter=False),
    ],
)
def test_solve_options_reject_out_of_range(bad):
    with pytest.raises(ValueError):
        SolveOptions(**bad)


def test_step_rejects_nonpositive_shift():
    p = random_standard_problem(n=8, m=1, l=1, r=1, seed=0)
    with pytest.raises(ValueError):
        step_once(p, init_state(p), -1.0)


def dense_inv_sqrt(z):
    """(I + Z Z^T)^-1/2 by a dense eigh: the reference for the step's scalings."""
    lam, v = np.linalg.eigh(np.eye(z.shape[0]) + z @ z.T)
    return (v * lam**-0.5) @ v.T


@pytest.mark.parametrize(
    "rows,cols,decades",
    [(3, 7, 0.0), (7, 7, 0.0), (40, 7, 0.0), (40, 7, None), (30, 7, 8.0), (5, 7, 8.0)],
    ids=["wide", "square", "tall", "zero", "tall-graded", "wide-graded"],
)
def test_inv_sqrt_gram_matches_dense_eigh(rows, cols, decades):
    # A wide step scales its couplings X by (I + Z Z^T)^-1/2 from the
    # accumulator factor K (K^T K = I + Z^T Z) and T = K^-T Z^T X alone.
    rng = np.random.default_rng(rows + cols)
    if decades is None:
        z = np.zeros((rows, cols))
    else:
        z = rng.standard_normal((rows, cols)) * 10.0 ** -np.linspace(0.0, decades, cols)
    gram = np.eye(rows) + z @ z.T
    dense = dense_inv_sqrt(z)
    k = kernels.chol_spd(np.eye(cols) + z.T @ z)

    def scale(x):
        return engine._scale_couplings(x, z.T, k, sla.solve_triangular(k, z.T @ x, trans="T"))

    w = scale(np.eye(rows))
    assert np.linalg.norm(w - dense) <= 1e-12 * np.linalg.norm(dense)
    assert np.linalg.norm(w @ w @ gram - np.eye(rows)) <= 1e-12 * np.sqrt(rows)
    x = rng.standard_normal((rows, 4))
    for order in "CF":  # the scaling overwrites its argument, in either layout
        y = np.array(x, order=order)
        assert scale(y) is y
        np.testing.assert_allclose(y, dense @ x, rtol=0, atol=1e-12)


def test_stochastic_step_factors_only_the_accumulator(monkeypatch):
    # The residual factor grows to tens of rows at n = 40 and r = 5 (then to
    # its n x n Gram), while the only matrix a step factors is the m x m
    # accumulator Gram.
    base = gen_heat_problem(40, 7, 6, seed=0, scale=100.0, damping=100.0)
    p = with_noise_blocks(base, [1e-5, 1e-4, 1e-3, 1e-2], seed=100)
    dims, rows = [], []
    real_chol, real_step = engine.chol_spd, engine.step_once

    def recording_chol(mat):
        dims.append(mat.shape[0])
        return real_chol(mat)

    def recording_step(p, state, *args, **kwargs):
        rows.append(p.n if state.ccur is None else state.ccur.shape[0])
        return real_step(p, state, *args, **kwargs)

    monkeypatch.setattr(engine, "chol_spd", recording_chol)
    monkeypatch.setattr(engine, "step_once", recording_step)
    _, report = radi_solve(p, SolveOptions(cap_cols=1500))
    assert report.converged
    assert max(rows) > p.m
    assert dims and max(dims) <= p.m


# ---------------------------------------------------------------------------
# exact bookkeeping


@pytest.mark.parametrize("r,with_e", [(1, False), (2, False), (4, False), (2, True)])
def test_exact_residual_bookkeeping_without_truncation(r, with_e):
    p = random_standard_problem(n=30, m=2, l=2, r=r, seed=3, with_e=with_e)
    st = init_state(p)
    opts = SolveOptions(**NO_TRUNC)
    for g in SHIFTS[:6]:
        st, _ = step_once(p, st, g, opts)
        lhs = residual_dense(p, x_of(st))
        rhs = st.residual_gram()
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * st.nu0


@settings(max_examples=25, deadline=None)
@given(
    st_h.integers(0, 10_000),
    st_h.integers(1, 4),
    st_h.floats(0.1, 20.0),
    st_h.booleans(),
)
def test_bookkeeping_property_single_steps(omega_recorder, seed, r, gamma, with_e):
    p = random_standard_problem(n=14, m=2, l=2, r=r, seed=seed, with_e=with_e)
    st = init_state(p)
    opts = SolveOptions(trunc_rel=1e-9)
    with omega_recorder() as omegas:
        for g in (gamma, 0.5 * gamma + 0.3):
            st, _ = step_once(p, st, g, opts)
    lhs = residual_dense(p, x_of(st))
    rhs = st.residual_gram()
    for om in omegas:
        rhs = rhs + om.T @ om
    assert np.linalg.norm(lhs - rhs) <= 1e-9 * st.nu0


def test_residual_bookkeeping_with_truncation_debt(omega_recorder):
    p = random_standard_problem(n=40, m=2, l=3, r=3, seed=4)
    opts = SolveOptions(trunc_rel=1e-6)
    st = init_state(p)
    with omega_recorder() as omegas:
        for g in SHIFTS[:6]:
            st, _ = step_once(p, st, g, opts)
            lhs = residual_dense(p, x_of(st))
            rhs = st.residual_gram()
            for om in omegas:
                rhs = rhs + om.T @ om
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * st.nu0
    assert st.nu_omega > 0  # truncation actually fired at this tolerance
    recorded = sum(np.linalg.norm(om) ** 2 for om in omegas)
    assert abs(recorded - st.nu_omega) <= 1e-9 * st.nu0


def _stacked_residual_factor(p, state, gamma):
    """The step's new residual factor [C_top; (I + Z Z^T)^-1/2 X], built as a stack.

    The reference for both shapes of the step: W is applied to the couplings
    of C_gamma, not taken from S = W C_gamma, and both scalings are dense
    eighs, not the accumulator's.  Returns the stack and
    |C_top|_F^2 + |X|_F^2.
    """
    sqrt2g = np.sqrt(2.0 * gamma)
    c_f, _ = smw_row_solve(factor_shifted(state.ops, gamma), p.b, state.f, state.ccur)
    c_gamma = sqrt2g * c_f
    y = c_f @ p.b @ np.linalg.inv(state.kpi)
    w = dense_inv_sqrt(y)
    w8 = sqrt2g * w @ w @ c_gamma
    w8e = w8 if p.e is None else np.asarray((p.e.T @ w8.T).T)
    c_top = state.ccur + w8e
    f_mid = state.f - np.linalg.solve(state.kpi, y.T) @ w8e
    yhat = [c_gamma @ b_i for b_i in p.bhat.blocks]
    z = np.vstack([w @ y_i @ np.linalg.inv(state.kpi) for y_i in yhat])
    x = np.vstack([w @ (c_gamma @ a_i + y_i @ f_mid) for a_i, y_i in zip(p.ahat.blocks, yhat)])
    stack = np.vstack([c_top, dense_inv_sqrt(z) @ x])
    return stack, np.linalg.norm(c_top) ** 2 + np.linalg.norm(x) ** 2


@pytest.mark.parametrize("with_e", [False, True], ids=["standard", "mass"])
@pytest.mark.parametrize("noise", [5e-2, 3.0])
def test_tall_step_gram_matches_the_stacked_factor(monkeypatch, noise, with_e):
    # A wide step truncates the stack it scales from K and T; the first step
    # whose stack has more rows than n stores the stack's Gram exactly
    # instead (route "switch"), and the solve goes on in Gram form.  Either
    # way it must be the Gram of the stacked factor.
    p = random_standard_problem(n=20, m=2, l=3, r=4, seed=6, noise=noise, with_e=with_e)
    st = init_state(p)
    grams, routes = [], []

    def recording_svd(c, *args, **kwargs):
        grams.append(c.T @ c)
        return kernels.trunc_svd(c, *args, **kwargs)

    monkeypatch.setattr(engine, "trunc_svd", recording_svd)
    for g in SHIFTS[:4]:
        if st.gram is not None:
            break
        stack, scale = _stacked_residual_factor(p, st, g)
        st, row = step_once(p, st, g, SolveOptions(trunc_rel=1e-12))
        assert (row.svd_route == "switch") == (stack.shape[0] > p.n)
        routes.append(row.svd_route)
        got = st.gram if row.svd_route == "switch" else grams[-1]
        gap = np.linalg.norm(got - stack.T @ stack)
        assert gap <= 50 * np.finfo(float).eps * scale, gap / scale
    assert routes == ["gram"] * (len(routes) - 1) + ["switch"] and len(routes) >= 2
    assert len(grams) == len(routes) - 1


def test_r1_solve_with_more_outputs_than_states_carries_its_gram():
    # One shape rule for every r: with l > n the first r = 1 step's factor
    # C_top is tall, so that step stores its Gram and the solve goes on in
    # Gram form, whose steps keep the residual exact.
    p = random_standard_problem(n=6, m=2, l=9, r=1, seed=2)
    _, report = radi_solve(p)
    routes = [row.svd_route for row in report.rows[1:]]
    assert report.converged and routes[0] == "switch" and set(routes[1:]) <= {"gram-step"}
    st = init_state(p)
    for g in SHIFTS[:4]:
        st, row = step_once(p, st, g, SolveOptions(**NO_TRUNC))
        lhs = residual_dense(p, x_of(st))
        assert np.linalg.norm(lhs - st.residual_gram()) <= 1e-9 * st.nu0
        assert nres_trace(st) * st.nu0 == pytest.approx(np.trace(lhs), rel=1e-9, abs=1e-12 * st.nu0)
    assert row.svd_route == "gram-step" and st.ccur is None


def _twice_scaled_block(p, state, gamma):
    """S, C_top and F_mid with W applied twice: S = W C_gamma, then sqrt(2 gamma) W S."""
    sqrt2g = np.sqrt(2.0 * gamma)
    c_f, _ = smw_row_solve(factor_shifted(state.ops, gamma), p.b, state.f, state.ccur)
    y = c_f @ p.b @ np.linalg.inv(state.kpi)
    w = dense_inv_sqrt(y)
    s = w @ (sqrt2g * c_f)
    w8 = sqrt2g * w @ s
    w8e = w8 if p.e is None else np.asarray((p.e.T @ w8.T).T)
    return s, state.ccur + w8e, state.f - np.linalg.solve(state.kpi, y.T) @ w8e


@pytest.mark.parametrize("shape", ["det-mass", "c9"])
def test_new_block_takes_w_and_w_squared_from_one_projection(shape):
    # An r = 1 step at n = 5000 with the mass matrix (l = 6), and an r = 5
    # step at n = 300 whose residual factor has 300 graded rows.  One step
    # first makes F (and for r = 5, Kpi) nontrivial; for r = 5 it starts from
    # C, so that it stays in factor form.  The compared step takes the shift
    # the solver would.
    if shape == "det-mass":
        p = gen_heat_problem(5000, 7, 6, seed=0, mass_matrix=True)
    else:
        base = gen_heat_problem(300, 7, 6, seed=0, scale=100.0, damping=100.0)
        p = with_noise_blocks(base, [1e-5, 1e-4, 1e-3, 1e-2], seed=100)
    st = init_state(p)
    gamma, _ = next_shift(ShiftConfig(), None, p, st)
    st, _ = step_once(p, st, gamma, SolveOptions(cap_cols=1500))
    if shape == "c9":
        grade = 10.0 ** -np.linspace(0.0, 12.0, 300)[:, None]
        st.ccur = np.random.default_rng(0).standard_normal((300, 300)) * grade
        st.nu0 = float(np.linalg.norm(st.ccur) ** 2)
    gamma, _ = next_shift(ShiftConfig(), None, p, st)
    assert np.linalg.norm(st.f) > 0.0
    want = _twice_scaled_block(p, st, gamma)
    c_f, c_fb = smw_row_solve(factor_shifted(st.ops, gamma), p.b, st.f, st.ccur)
    got = engine._new_block(st, gamma, c_f, c_fb)
    for g, w in zip(got, want, strict=True):
        assert np.linalg.norm(g - w) <= 1e-13 * np.linalg.norm(w)


def test_nu_omega_monotone_and_width_bounded():
    # n = 40 holds the capped stack (12 rows and 2 x 12 coupling rows), so
    # every step is a wide one, which the cap binds.
    p = random_standard_problem(n=40, m=2, l=2, r=3, seed=5)
    cap = 12
    opts = SolveOptions(trunc_rel=1e-8, cap_cols=cap)
    st = init_state(p)
    debt = [0.0]
    for g in SHIFTS[:6]:
        st, _ = step_once(p, st, g, opts)
        debt.append(st.nu_omega)
        assert st.ccur.shape[0] <= cap
    assert all(b >= a for a, b in zip(debt, debt[1:]))
    assert st.xi_width <= 6 * cap


@pytest.mark.parametrize("cap", [12, 10**6], ids=["binding", "loose"])
def test_cap_discard_is_the_share_of_the_discard_the_cap_moved(cap):
    p = random_standard_problem(n=30, m=2, l=2, r=3, seed=5)
    st = init_state(p)
    capped = []
    for g in SHIFTS[:6]:
        before = st.nu_omega
        st, row = step_once(p, st, g, SolveOptions(trunc_rel=1e-8, cap_cols=cap))
        assert 0.0 <= row.cap_discard <= (st.nu_omega - before) * (1 + 1e-12)
        capped.append(row.cap_discard > 0.0)
    assert any(capped) == (cap == 12)


def test_cap_cols_binds_wide_steps_only():
    # A Gram step truncates nothing, so the row cap leaves it alone: its row
    # reports n residual rows and no discard, and the debt stays at what the
    # wide steps discarded.
    p = random_standard_problem(n=30, m=2, l=2, r=3, seed=5)
    st = init_state(p)
    routes = []
    for g in SHIFTS[:6]:
        before = st.nu_omega
        st, row = step_once(p, st, g, SolveOptions(trunc_rel=1e-8, cap_cols=12))
        routes.append(row.svd_route)
        if row.svd_route == "gram":
            assert row.cols_c <= 12
        else:
            assert row.cols_c == p.n > 12
            assert row.cap_discard == 0.0 and st.nu_omega == before
    assert routes[0] == "gram" and "switch" in routes and "gram-step" in routes, routes


def test_c9_n300_seeds_converge_with_independent_nres():
    # From step 3 on these solves run in Gram form, whose shift basis pivots
    # on the residual Gram, so a change there could move the shifts.  Seeds
    # 0-9 of the criterion-9 solve at n = 300 pin the iteration count, and
    # the dense trace-norm residual of X = Xi Xi^T, Xi the returned factor
    # (X_tall folded in by its pivoted Cholesky), checks the reported nres.
    opts = SolveOptions(shift=ShiftConfig("hamiltonian", 1, "cached"), cap_cols=1500)
    iterations = [11, 12, 12, 11, 12, 12, 12, 12, 12, 12]
    for seed in range(10):
        base = gen_heat_problem(300, 7, 6, seed=seed, scale=100.0, damping=100.0)
        p = with_noise_blocks(base, [1e-5, 1e-4, 1e-3, 1e-2], seed=seed + 100)
        st, rep = radi_solve(p, opts)
        assert rep.converged and rep.iterations == iterations[seed], seed
        res = residual_dense(p, st.xi @ st.xi.T)
        dense_nres = np.abs(np.linalg.eigvalsh(res)).sum() / st.nu0
        assert dense_nres <= 1e-12, seed
        assert abs(dense_nres - rep.final_nres) <= 1e-14, seed


# ---------------------------------------------------------------------------
# prototype equivalence


@pytest.mark.parametrize("r,steps", [(1, 10), (2, 8), (3, 5)])
def test_prototype_matches_engine(r, steps):
    p = random_standard_problem(n=30, m=2, l=2, r=r, seed=6)
    st = init_state(p)
    proto = alg1_init(p)
    opts = SolveOptions(**NO_TRUNC)
    for g in SHIFTS[:steps]:
        st, _ = step_once(p, st, g, opts)
        proto = alg1_step(proto, g)
        x1, x2 = proto.x, x_of(st)
        assert np.linalg.norm(x1 - x2) <= 1e-10 * np.linalg.norm(x1)


@pytest.mark.parametrize("ell", [1, 3])
def test_prototype_matches_engine_r5(ell):
    # m = 7: with ell = 1 the first step has (r-1) ell = 4 < m stacked coupling
    # rows (square Q in the thin QR), later steps and ell = 3 have more than m.
    p = random_standard_problem(n=40, m=7, l=ell, r=5, seed=8)
    st = init_state(p)
    proto = alg1_init(p)
    opts = SolveOptions(**NO_TRUNC)
    for g in SHIFTS[:3]:
        st, _ = step_once(p, st, g, opts)
        proto = alg1_step(proto, g)
        x1, x2 = proto.x, x_of(st)
        assert np.linalg.norm(x1 - x2) <= 1e-10 * np.linalg.norm(x1)
        lhs = residual_dense(p, x2)
        assert np.linalg.norm(lhs - st.residual_gram()) <= 1e-10 * st.nu0


def _mass_prototype(p):
    """The dense prototype of a problem with E, run on its E^-1-standard form.

    With Atil = E^-1 A and the same on B and the noise blocks, the standard
    form's shifted solve is C M^-1 E for M = A + B F - gamma*E, so its blocks
    are S E, its feedback and residual factor are those of the problem with
    E, and its X is E^T X_E E.  Returns the prototype state and E^-1.
    """
    co = p.dense_coefficients()
    einv = np.linalg.inv(co.e)
    std = DenseCoefficients(einv @ co.a, einv @ co.b, co.c,
                            [einv @ a for a in co.ahat], [einv @ b for b in co.bhat])
    return alg1_init(std), einv


@pytest.mark.parametrize("case", ["r2", "r2-dense", "r3-ldlt", "r1-tall"])
def test_gram_steps_with_a_mass_matrix_match_the_prototype(case):
    # Ten fixed shifts, most of them Gram steps, on a problem with a mass
    # matrix: r = 2 (SuperLU), with sparse or dense noise blocks, r = 3 on
    # the LDL^T route, and r = 1 with l > n, which goes to Gram form at its
    # first step.  X is compared with the dense prototype at criterion 4's
    # bound, and trace G with the trace norm of the dense residual.  The
    # prototype's residual factor grows by a factor r each step; X depends
    # on it only through its Gram, so once it has more than n rows it is
    # replaced by an n-row factor of that Gram.
    if case.startswith("r2"):
        p = random_standard_problem(n=30, m=2, l=2, r=2, seed=21, with_e=True)
        if case == "r2-dense":
            dense = [blk.toarray() for blk in p.ahat.blocks]
            p = dataclasses.replace(p, ahat=kernels.StackedMat.from_blocks(dense))
    elif case == "r3-ldlt":
        base = gen_heat_problem(40, 2, 2, seed=3, mass_matrix=True, scale=5.0, damping=1.0)
        p = with_noise_blocks(base, [1e-3, 1e-2], seed=103)
    else:
        p = random_standard_problem(n=8, m=2, l=11, r=1, seed=22, with_e=True)
    st = init_state(p)
    assert st.ops.route == ("ldlt" if case == "r3-ldlt" else "superlu")
    proto, einv = _mass_prototype(p)
    routes = []
    for g in SHIFTS:
        st, row = step_once(p, st, g, SolveOptions(**NO_TRUNC))
        routes.append(row.svd_route)
        proto = alg1_step(proto, g)
        if proto.c.shape[0] > p.n:
            w, v = np.linalg.eigh(proto.c.T @ proto.c)
            proto.c = np.sqrt(np.maximum(w, 0.0))[:, None] * v.T
        x_ref = einv.T @ proto.x @ einv
        x = x_of(st)
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref), row.k
        if st.gram is not None:
            trace_norm = np.abs(np.linalg.eigvalsh(residual_dense(p, x))).sum()
            assert abs(np.trace(st.gram) - trace_norm) <= 1e-9 * st.nu0, row.k
    assert routes.count("switch") == 1 and routes.count("gram-step") >= 5, routes


def test_prototype_scalar_first_step(scalar_problem):
    proto = alg1_init(scalar_problem())
    proto = alg1_step(proto, SQRT2)
    np.testing.assert_allclose(proto.x, [[SQRT2 - 1.0]], atol=1e-14)


def test_prototype_first_step_is_one_step_approximant():
    p = random_standard_problem(n=20, m=2, l=2, r=2, seed=7)
    proto = alg1_init(p)
    gamma = 0.9
    proto = alg1_step(proto, gamma)
    x_ref, _, _ = one_step_approximant(p.dense_coefficients(), gamma)
    assert np.linalg.norm(proto.x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


def test_prototype_rejects_generalized_problems():
    p = random_standard_problem(n=10, m=1, l=1, r=1, seed=0, with_e=True)
    with pytest.raises(ValueError):
        alg1_init(p)


# ---------------------------------------------------------------------------
# nres_trace


def test_engine_feedback_tracks_original_coordinates():
    # The accumulated feedback equals the original-coordinates feedback at
    # the accumulated iterate: F = F0 + Kpi0^-1 Fhat(X).
    from scare_radi.oracles import feedback_original
    from scare_radi.testing import random_original_problem

    orig = random_original_problem(n=25, m=2, l=2, r=3, seed=42)
    p = adapt_in_place(orig)
    st = init_state(p)
    opts = SolveOptions(**NO_TRUNC)
    for g in SHIFTS[:6]:
        st, _ = step_once(p, st, g, opts)
    fb = feedback_original(p, x_of(st))
    assert np.linalg.norm(fb - st.f) <= 1e-10 * max(np.linalg.norm(fb), 1.0)


def test_nres_is_one_at_start():
    p = random_standard_problem(n=12, m=2, l=2, r=2, seed=8)
    assert nres_trace(init_state(p)) == 1.0


def test_nres_degenerate_signal():
    p = random_standard_problem(n=12, m=2, l=2, r=2, seed=8)
    p.c[:] = 0.0
    st = init_state(p)
    with pytest.raises(DegenerateProblemError):
        nres_trace(st)


def test_nres_upper_bounds_dense_trace_norm():
    p = random_standard_problem(n=30, m=2, l=2, r=2, seed=9)
    opts = SolveOptions(trunc_rel=1e-7)
    st = init_state(p)
    for g in SHIFTS[:5]:
        st, _ = step_once(p, st, g, opts)
    dense_trace = float(np.trace(residual_dense(p, x_of(st))))
    assert nres_trace(st) * st.nu0 >= dense_trace - 1e-9 * st.nu0


# ---------------------------------------------------------------------------
# full solve


def test_degenerate_tolerance_converges_in_zero_iterations():
    p = random_standard_problem(n=10, m=2, l=2, r=2, seed=10)
    _, report = radi_solve(p, SolveOptions(tol_nres=1.0))
    assert report.converged
    assert report.iterations == 0


def test_zero_output_returns_immediately():
    p = random_standard_problem(n=10, m=2, l=2, r=2, seed=10)
    p.c[:] = 0.0
    st, report = radi_solve(p, SolveOptions())
    assert report.converged
    assert report.iterations == 0
    assert st.xi_width == 0


def test_solve_converges_and_matches_newton():
    p = random_standard_problem(n=40, m=2, l=2, r=3, seed=11)
    st, report = radi_solve(
        p, SolveOptions(shift=ShiftConfig("hamiltonian", 1, "cached"))
    )
    assert report.converged
    x_ref = newton_ref_solve(p).x
    assert np.linalg.norm(x_of(st) - x_ref) <= 1e-8 * np.linalg.norm(x_ref)


def test_solve_r1_matches_schur_reference():
    p = random_standard_problem(n=60, m=2, l=2, r=1, seed=12)
    st, report = radi_solve(
        p, SolveOptions(shift=ShiftConfig("hamiltonian", 1, "cached"))
    )
    assert report.converged
    co = p.dense_coefficients()
    x_ref = care_schur_solve(co.a, co.b, co.c).x
    assert np.linalg.norm(x_of(st) - x_ref) <= 1e-8 * np.linalg.norm(x_ref)


def test_solve_generalized_converges():
    p = random_standard_problem(n=40, m=2, l=2, r=2, seed=13, with_e=True)
    st, report = radi_solve(
        p, SolveOptions(shift=ShiftConfig("projection", 2, "per_iteration"))
    )
    assert report.converged
    res = residual_dense(p, x_of(st))
    assert np.trace(res) <= 1.1e-12 * st.nu0


def test_solve_report_consistency():
    p = random_standard_problem(n=30, m=2, l=2, r=2, seed=14)
    st, report = radi_solve(p, SolveOptions())
    assert report.rows[0].nres == 1.0
    assert report.final_nres == report.rows[-1].nres
    assert report.iterations == len(report.rows) - 1
    assert report.xi_width == st.xi_width
    # per-iteration nres equals the recomputed engine history on replay
    gammas = [row.gamma for row in report.rows[1:]]
    st2 = init_state(p)
    opts = SolveOptions()
    for g, row in zip(gammas, report.rows[1:]):
        st2, _ = step_once(p, st2, g, opts)
        assert nres_trace(st2) == row.nres


def test_solve_deterministic():
    p = random_standard_problem(n=25, m=2, l=2, r=2, seed=15)
    opts = SolveOptions(max_iter=12)
    _, rep1 = radi_solve(p, opts)
    _, rep2 = radi_solve(p, opts)
    assert rep1.numeric_content() == rep2.numeric_content()


def test_solve_width_cap_sets_flag():
    p = random_standard_problem(n=30, m=2, l=3, r=3, seed=16)
    _, report = radi_solve(p, SolveOptions(max_cols_xi=20, max_iter=50))
    assert report.flags == "m"
    assert report.xi_width >= 20


def test_width_budget_stops_a_solve_in_gram_form():
    # Each Gram step counts n columns, so flag "m" fires in Gram form too.
    # The returned Xi, X_tall folded in by its pivoted Cholesky, is no wider
    # than that count.
    p = random_standard_problem(n=30, m=2, l=3, r=3, seed=16)
    _, free = radi_solve(p, SolveOptions(max_iter=50))
    first = next(row for row in free.rows if row.svd_route == "gram-step")
    budget = first.cols_xi + p.n  # reached at the second Gram step
    st, report = radi_solve(p, SolveOptions(max_cols_xi=budget, max_iter=50))
    assert report.flags == "m" and not report.converged
    last = report.rows[-1]
    assert last.svd_route == "gram-step" and last.cols_xi == budget
    assert report.iterations == first.k + 1 < free.iterations
    assert report.xi_width == st.xi.shape[1] <= budget


def c9_problem(n):
    """The criterion-9 stochastic problem (r = 5, damped heat) at size n, seed 0."""
    base = gen_heat_problem(n, 7, 6, seed=0, scale=100.0, damping=100.0)
    return with_noise_blocks(base, [1e-5, 1e-4, 1e-3, 1e-2], seed=100)


@pytest.mark.parametrize("case", ["c9-n40", "mass-r3"])
def test_gram_form_returns_a_factor_of_at_most_n_columns(monkeypatch, case):
    # At the switch Xi's blocks are folded into X_tall and freed, so from
    # then on X_tall holds all of X and the returned factor is its pivoted
    # Cholesky alone, at most n columns; what that leaves out is the
    # reported xi_discard share of trace X.  The width budget still counts n
    # columns a Gram step.
    if case == "c9-n40":
        p = c9_problem(40)
    else:
        p = random_standard_problem(n=30, m=2, l=2, r=3, seed=21, with_e=True)
    rows, before = [], []
    real_step, real_trim = engine.step_once, engine.SolverState.trim_xi

    def recording_step(*args, **kwargs):
        st, row = real_step(*args, **kwargs)
        rows.append((row, [b.shape for b in st.xi_blocks]))
        return st, row

    def recording_trim(self):
        before.append(self.dense_x())
        real_trim(self)

    monkeypatch.setattr(engine, "step_once", recording_step)
    monkeypatch.setattr(engine.SolverState, "trim_xi", recording_trim)
    opts = SolveOptions(shift=ShiftConfig("hamiltonian", 1, "cached"), cap_cols=1500)
    st, report = radi_solve(p, opts)
    assert report.converged
    assert [row.svd_route for row, _ in rows].count("switch") == 1
    for (prev, _), (row, shapes) in zip(rows, rows[1:]):
        if row.svd_route == "gram-step":
            assert shapes == [(0, p.n)] and row.cols_xi == prev.cols_xi + p.n
    assert st.xi.flags.c_contiguous and st.x_tall is None
    assert st.xi.shape == (p.n, report.xi_width) and report.xi_width <= p.n
    assert report.xi_discard == st.xi_discard
    x = before[0]
    gap = np.linalg.norm(x - st.xi @ st.xi.T)
    assert gap <= (report.xi_discard + p.n * np.finfo(float).eps) * np.trace(x)


def test_a_gram_step_makes_no_n_by_n_temporary():
    # A Gram step of the c9 solve at n = 300 works in the state's reused
    # arrays, so its traced allocation peak stays below one n x n array.
    n = 300
    p = c9_problem(n)
    st = init_state(p)
    st.ccur = np.random.default_rng(0).standard_normal((n, n))
    st.ccur *= 10.0 ** -np.linspace(0.0, 12.0, n)[:, None]
    st.nu0 = float(np.linalg.norm(st.ccur) ** 2)
    for gamma in (200.0, 150.0):  # the switch, then a first Gram step
        st, row = step_once(p, st, gamma)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        st, row = step_once(p, st, 120.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert row.svd_route == "gram-step"
    assert peak < 8 * n * n


def test_solve_stall_rule_sets_flag():
    # Loose truncation accumulates debt that passes the tolerance, so the
    # total residual (including debt) cannot get below it.
    p = random_standard_problem(n=40, m=2, l=2, r=2, seed=17)
    _, report = radi_solve(
        p,
        SolveOptions(
            tol_nres=1e-10,
            trunc_rel=3e-8,
            shift=ShiftConfig("hamiltonian", 1, "cached"),
        ),
    )
    assert report.flags == "t"
    assert not report.converged
    assert report.final_nres > 1e-10


def test_debt_stop_fires_at_the_first_row_past_tolerance():
    # The truncation debt never shrinks, so once nu_omega / nu0 passes tol no
    # later step can converge and the run stops at that row with flag "t".
    # At n = 200 the residual stays wide (truncated) until the debt stop.
    p = with_noise_blocks(
        gen_heat_problem(200, 7, 6, seed=0, scale=100.0, damping=100.0), [1e-4, 1e-3], seed=100
    )
    st, report = radi_solve(p, SolveOptions(trunc_rel=1e-12))
    assert {row.svd_route for row in report.rows[1:]} == {"gram"}
    debt = [row.nu_omega / st.nu0 for row in report.rows]
    first = next(k for k, d in enumerate(debt) if d > 1e-12)
    assert report.flags == "t" and not report.converged
    assert report.iterations == first
    assert report.final_nres > 1e-12


def test_solve_timing_rows_sum_to_iteration_totals():
    p = random_standard_problem(n=25, m=2, l=2, r=2, seed=18)
    _, report = radi_solve(p, SolveOptions(max_iter=8))
    for row in report.rows[1:]:
        assert row.t_other >= 0.0
        assert row.t_solve >= 0.0 and row.t_svd >= 0.0
