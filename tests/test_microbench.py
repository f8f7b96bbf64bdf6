"""Kernel micro-benchmarks (pytest-benchmark) at the sizes of the benchmark workloads.

Few rounds keep them cheap inside the full suite; run them alone with
``pytest tests/test_microbench.py`` to read the timing table, or with
``--benchmark-disable`` to run each body once as a plain test.
"""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from scare_radi.bench import gen_heat_problem, with_noise_blocks
from scare_radi.engine import SolveOptions, init_state, step_once
from scare_radi.kernels import (
    OperatorForms,
    factor_shifted,
    ltimes,
    trunc_svd,
)
from scare_radi.shifts import ShiftConfig, build_basis, hamiltonian_shifts, next_shift

N = 5000


@pytest.mark.parametrize("case", ["ldlt", "superlu-tridiagonal", "superlu"])
def test_factor_shifted_and_row_solve(benchmark, case):
    # The LDL^T route on det-mass's n = 5000 tridiagonal A and E; SuperLU on
    # the same E with a 1-D convection-diffusion A (a nonsymmetric
    # tridiagonal), and on a 70 x 70 5-point stencil (n = 4900).  All solve
    # the stacked [C; F] shape of one step, 13 rows.
    if case != "superlu":
        p = gen_heat_problem(N, 7, 6, seed=0, mass_matrix=True)
        a = p.a
        if case == "superlu-tridiagonal":
            h = N + 1.0  # 1 / grid spacing; u'' - 40 u' by central differences
            a = a + sp.diags([20.0 * h, -20.0 * h], [-1, 1], shape=(N, N))
        e = p.e
        rows = np.vstack([p.c, p.b.T])
    else:
        t = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(70, 70))
        a, e = sp.kron(t, sp.identity(70)) + sp.kron(sp.identity(70), t), None
        rows = np.random.default_rng(0).standard_normal((13, 4900))
    ops = OperatorForms.of(a, e)
    assert ops.route == case.split("-")[0]
    gamma = 1e3

    def factor_and_solve():
        return factor_shifted(ops, gamma).row_solve(rows)

    out = benchmark.pedantic(factor_and_solve, rounds=5, iterations=1, warmup_rounds=1)
    shifted = a - gamma * (sp.identity(a.shape[0]) if e is None else e)
    back = np.asarray(shifted.T @ out.T).T
    assert np.linalg.norm(back - rows) <= 1e-10 * np.linalg.norm(rows)


def test_xi_append_75_steps(benchmark):
    p = gen_heat_problem(N, 7, 6, seed=0)
    rng = np.random.default_rng(0)
    blocks = [rng.standard_normal((6, N)) for _ in range(75)]

    def fresh_state():
        return (init_state(p),), {}

    def append_all(state):
        for s in blocks:
            state.append_xi(s)
        state.trim_xi()
        return state

    state = benchmark.pedantic(append_all, setup=fresh_state, rounds=5, warmup_rounds=1)
    assert state.xi.flags["C_CONTIGUOUS"]
    assert state.xi.tobytes() == np.hstack([s.T for s in blocks]).tobytes()


@pytest.mark.parametrize("route", ["gram"], ids=["wide"])
def test_trunc_svd_c9_shape(benchmark, route):
    # A graded c9 stack at n = 300: the 150-row stack of step 2, whose
    # spectrum spans 12 decades.  (A taller residual is not truncated: the
    # solve carries its Gram instead.)
    rng = np.random.default_rng(0)
    c = 10.0 ** -np.linspace(0.0, 12.0, 150)[:, None] * rng.standard_normal((150, 300))
    res = benchmark.pedantic(trunc_svd, args=(c, 0.0, 1500), rounds=5, warmup_rounds=1)
    total = np.linalg.norm(c) ** 2
    assert res.route == route
    assert np.linalg.norm(c.T @ c - res.factor.T @ res.factor) <= 50 * np.finfo(float).eps * total


def c9_gram_state(p):
    """A c9 state in Gram form at n = 300, from the switch step of a graded 300-row factor."""
    ccur = np.random.default_rng(0).standard_normal((300, 300))
    ccur *= 10.0 ** -np.linspace(0.0, 12.0, 300)[:, None]
    st = init_state(p)
    st.ccur, st.nu0 = ccur, float(np.linalg.norm(ccur) ** 2)
    st, row = step_once(p, st, 200.0, SolveOptions(cap_cols=1500))
    assert row.svd_route == "switch"
    return st


def test_gram_step_c9_shape(benchmark):
    # One Gram step of the c9 stochastic solve at n = 300 (r = 5, m = 7):
    # two SMW solves with n right-hand sides, the sums over the noise blocks
    # and the n x n updates of G and X_tall.
    base = gen_heat_problem(300, 7, 6, seed=0, scale=100.0, damping=100.0)
    p = with_noise_blocks(base, [1e-5, 1e-4, 1e-3, 1e-2], seed=100)

    def fresh_state():
        return (p, c9_gram_state(p), 150.0), {}

    st, row = benchmark.pedantic(step_once, setup=fresh_state, rounds=10, warmup_rounds=1)
    assert row.svd_route == "gram-step" and (st.k, row.cols_c) == (2, 300)
    assert np.array_equal(st.gram, st.gram.T) and np.isfinite(st.x_tall).all()
    assert 0.0 < row.nres < 1.0 and st.nu_omega == 0.0


@pytest.mark.parametrize("impl", ["build_basis", "dgeqp3"])
def test_basis_det_mass_shape(benchmark, impl):
    # A det-mass shift basis: the 6 x 5000 block of an r = 1 step, q = 6 =
    # min(shape), so the q pivoted steps do the full QR's work.  dgeqp3 (a
    # full pivoted QR) is the reference time.
    block = np.random.default_rng(0).standard_normal((6, N)) * 10.0 ** -np.arange(6)[:, None]
    if impl == "build_basis":
        u = benchmark.pedantic(build_basis, args=([block], None), kwargs={"q": 6},
                               rounds=20, warmup_rounds=2)
    else:
        u = benchmark.pedantic(lambda: sla.qr(block.T, mode="economic", pivoting=True)[0],
                               rounds=20, warmup_rounds=2)
    assert u.shape == (N, 6)
    assert np.linalg.norm(u.T @ u - np.eye(6)) <= 1e-13


def test_ltimes_couplings_c9_shape(benchmark):
    # Cm = C_gamma lt Ahat and Yhat = C_gamma lt Bhat of one c9 step at n = 300
    # once the residual factor has ell = 300 rows: k = 4 sparse Ahat_i (the
    # stencil's pattern) and dense 300 x 7 Bhat_i, one stacked product each.
    base = gen_heat_problem(300, 7, 6, seed=0, scale=100.0, damping=100.0)
    p = with_noise_blocks(base, [1e-5, 1e-4, 1e-3, 1e-2], seed=100)
    c_gamma = np.random.default_rng(0).standard_normal((300, 300))

    def couplings():
        return ltimes(c_gamma, p.ahat), ltimes(c_gamma, p.bhat)

    cm, yhat = benchmark.pedantic(couplings, rounds=5, warmup_rounds=1)
    assert cm.shape == (4, 300, 300) and yhat.shape == (4, 300, 7)
    tol = dict(rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(cm[3], c_gamma @ p.ahat.blocks[3].toarray(), **tol)
    np.testing.assert_allclose(yhat[3], c_gamma @ p.bhat.blocks[3], **tol)


def test_capped_basis_and_hamiltonian_shifts_c9_shape(benchmark):
    # One shift recompute of the c9 stochastic solve at n = 300: a 300-row
    # last solution block and residual factor, projected onto q = l * s = 6
    # leading directions.
    base = gen_heat_problem(300, 7, 6, seed=0, scale=100.0, damping=100.0)
    p = with_noise_blocks(base, [1e-5, 1e-4, 1e-3, 1e-2], seed=100)
    st = init_state(p)
    rng = np.random.default_rng(0)
    grade = 10.0 ** -np.linspace(0.0, 12.0, 300)[:, None]
    block = rng.standard_normal((300, 300)) * grade
    st.ccur = rng.standard_normal((300, 300)) * grade

    def recompute():
        u = build_basis([block], st.ccur, q=6)
        return u, hamiltonian_shifts(u, p, st)

    u, gammas = benchmark.pedantic(recompute, rounds=5, warmup_rounds=1)
    assert u.shape == (300, 6)
    assert gammas and all(g > 0 for g in gammas)


def test_step_once_det_mass_shape(benchmark):
    # One step of a det-mass solve: r = 1 at n = 5000 with the mass matrix,
    # l = 6 and m = 7, on the LDL^T route, at the solver's first shift.
    p = gen_heat_problem(N, 7, 6, seed=0, mass_matrix=True)
    gamma, _ = next_shift(ShiftConfig(), None, p, init_state(p))

    def fresh_state():
        return (p, init_state(p), gamma), {}

    st, row = benchmark.pedantic(step_once, setup=fresh_state, rounds=20, warmup_rounds=2)
    assert st.ops.route == "ldlt"
    assert (st.k, st.xi_width) == (1, 6) and row.nres < 1.0


def test_step_once_c9_shape(benchmark):
    # One step of the c9 stochastic solve at n = 300 once its residual factor
    # has grown to ell = n = 300 rows: r = 5, m = 7.  Its new residual has
    # 5 x 300 rows, so this is the switch step, which stores their Gram.
    base = gen_heat_problem(300, 7, 6, seed=0, scale=100.0, damping=100.0)
    p = with_noise_blocks(base, [1e-5, 1e-4, 1e-3, 1e-2], seed=100)
    rng = np.random.default_rng(0)
    ccur = rng.standard_normal((300, 300)) * 10.0 ** -np.linspace(0.0, 12.0, 300)[:, None]
    opts = SolveOptions(cap_cols=1500)

    def fresh_state():
        st = init_state(p)
        st.ccur = ccur
        st.nu0 = float(np.linalg.norm(ccur) ** 2)
        return (p, st, 200.0, opts), {}

    st, row = benchmark.pedantic(step_once, setup=fresh_state, rounds=5, warmup_rounds=1)
    assert (st.k, st.xi_width) == (1, 300)
    assert row.svd_route == "switch" and st.ccur is None and st.gram.shape == (300, 300)
    assert np.isfinite(row.nres)
