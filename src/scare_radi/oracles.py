"""Independent small-scale reference solvers, transforms and identity validators.

A flattened-system Newton iteration and a Hamiltonian-Schur CARE solver give
two routes to the exact dense solution; the explicit standardizing transform
(`standardize`), the original-coordinates feedback and the defect-correction
("incorporation") coefficients and residual are the dense references the
production adapter and residual tracking are checked against; the dense
prototype (`alg1_init`/`alg1_step`) rewrites the full coefficient matrices
every iteration and is the engine's equivalence oracle, and its first step
is what the residual-formula validator checks; the general semi-tensor
product (`ltimes_dense`) validates the blockwise kernels and the product
identities.  These are verification tools: simplicity beats speed, and all
of them are guarded to dense-friendly sizes.  The dense residual and feedback
they build on live in :mod:`scare_radi.problems`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import ConformabilityError, DefinitenessError, OracleFailureError, SpdViolationError
from .kernels import StackedMat, chol_spd, kron_gram, materialize_stack, right_tri_solve
from .problems import (
    DenseCoefficients,
    OriginalProblem,
    StandardProblem,
    _as_dense,
    _check_shape,
    _middle_and_cross,
    _r_inv_lt,
    feedback_dense,
    residual_dense,
)

__all__ = [
    "Alg1State",
    "DenseSolution",
    "alg1_init",
    "alg1_step",
    "feedback_original",
    "incorporation_coefficients",
    "incorporation_residual_dense",
    "ltimes_dense",
    "ltimes_identities_check",
    "NewtonOptions",
    "newton_ref_solve",
    "care_schur_solve",
    "residual_formula_check",
    "run_validation",
    "standardize",
]

NEWTON_GUARD = 80


@dataclass
class NewtonOptions:
    tol: float = 1e-13
    max_iter: int = 50
    x0: np.ndarray = None


@dataclass
class DenseSolution:
    """Dense symmetric solution with solver metadata."""

    x: np.ndarray
    iterations: int = 0
    residual: float = 0.0


# ---------------------------------------------------------------------------
# Explicit transform and dense references of the original problem


def standardize(orig: OriginalProblem) -> StandardProblem:
    """Explicit transform of the original problem to standard form.

    Absorbs the cross/input weights into the coefficients: A = A0 - B0 R^-1 L^T,
    B = B0 P^-1 with P^T P = R, and the same on every stochastic block.  This
    densifies the drift when L is nonzero, so it is the oracle-scale route;
    production solves of original data use :func:`~scare_radi.problems.adapt_in_place`.
    """
    rinv_lt, p = _r_inv_lt(orig.r_weight, orig.l)
    n = orig.n

    def absorb(a, b):
        if not np.any(orig.l):
            return a
        return sp.csc_matrix(_as_dense(a) - _as_dense(b) @ rinv_lt)

    a = absorb(orig.a_list[0], orig.b_list[0])
    b, *bhat_blocks = [right_tri_solve(p, _as_dense(bi)) for bi in orig.b_list]
    ahat = StackedMat.from_blocks(
        [sp.csc_matrix(absorb(ai, bi)) for ai, bi in zip(orig.a_list[1:], orig.b_list[1:])],
        block_rows=n,
        block_cols=n,
    )
    bhat = StackedMat.from_blocks(bhat_blocks, block_rows=n, block_cols=orig.m)
    return StandardProblem(
        a=sp.csc_matrix(a),
        b=b,
        c=orig.c0.copy(),
        ahat=ahat,
        bhat=bhat,
        e=orig.e,
    )


def feedback_original(p: StandardProblem, x: np.ndarray) -> np.ndarray:
    """Original-coordinates feedback F0 + Kpi0^-1 Fhat_X (equals Fhat when standard)."""
    fhat = feedback_dense(p, x)
    return p.f0 + sla.solve_triangular(p.kpi0, fhat, lower=False)


def incorporation_coefficients(p: StandardProblem | DenseCoefficients, x: np.ndarray):
    """Shifted coefficients (A_X, B_X, Ahat_X, Bhat_X, L_X^T) of the defect equation.

    With R_X = I + Bhat' lt X lt Bhat = P_X^T P_X and the cross factor of the
    residual, B_X = B P_X^-1 (the same on every Bhat block) and
    L_X^T = P_X^-T cross^T; A_X = A - B_X L_X^T and likewise every Ahat block.
    """
    co = p.dense_coefficients()
    x = np.atleast_2d(np.asarray(x, dtype=float))
    r_x, cross = _middle_and_cross(co, x)
    try:
        p_x = chol_spd(0.5 * (r_x + r_x.T))
    except SpdViolationError as exc:
        raise DefinitenessError("R_X = I + Bhat' X Bhat is not positive definite") from exc

    b_x = right_tri_solve(p_x, co.b)
    bhat_x = [right_tri_solve(p_x, bh) for bh in co.bhat]
    lt = sla.solve_triangular(p_x, cross.T, trans="T", lower=False)
    a_x = co.a - b_x @ lt
    ahat_x = [ah - bhx @ lt for ah, bhx in zip(co.ahat, bhat_x)]
    return DenseCoefficients(a_x, b_x, co.c, ahat_x, bhat_x, co.e), lt


def incorporation_residual_dense(
    p: StandardProblem | DenseCoefficients, x: np.ndarray, delta: np.ndarray
) -> np.ndarray:
    """Residual of the defect-correction equation at increment ``delta``.

    Built from the shifted coefficients with the base value anchored at the
    plain residual of ``x``; by construction it equals
    ``residual_dense(p, x + delta)``.
    """
    co = p.dense_coefficients()
    delta = np.atleast_2d(np.asarray(delta, dtype=float))
    _check_shape("Delta", delta, (co.n, co.n))
    shifted, _ = incorporation_coefficients(co, x)
    base = residual_dense(co, x)
    inner = residual_dense(
        DenseCoefficients(
            shifted.a,
            shifted.b,
            np.zeros((0, co.n)),
            shifted.ahat,
            shifted.bhat,
            shifted.e,
        ),
        delta,
    )
    return base + inner


# ---------------------------------------------------------------------------
# Reference solvers


def _frechet_matrix(co: DenseCoefficients, x: np.ndarray) -> np.ndarray:
    """Flattened derivative of the residual operator at x (column-major vec)."""
    shifted, _ = incorporation_coefficients(co, x)
    n = co.n
    e = np.eye(n) if co.e is None else co.e
    mat = np.kron(e.T, shifted.a.T) + np.kron(shifted.a.T, e.T)
    for ah in shifted.ahat:
        mat += np.kron(ah.T, ah.T)
    return mat


def newton_ref_solve(
    p: StandardProblem | DenseCoefficients, opts: NewtonOptions | None = None
) -> DenseSolution:
    """Newton iteration on the dense residual with a fully flattened linear solve.

    Each step solves the n^2 x n^2 linearized system directly, so the guard on
    n is hard.  The generated test corpus keeps the drift stable so that the
    zero matrix is an admissible start.
    """
    opts = opts or NewtonOptions()
    co = p.dense_coefficients()
    n = co.n
    if n > NEWTON_GUARD:
        raise ConformabilityError(f"Newton reference is guarded to n <= {NEWTON_GUARD}")
    scale = max(np.linalg.norm(co.c.T @ co.c), np.finfo(float).tiny)
    x = np.zeros((n, n)) if opts.x0 is None else np.array(opts.x0, dtype=float)
    last = np.inf
    for it in range(opts.max_iter + 1):
        res = residual_dense(co, x)
        err = np.linalg.norm(res)
        if err <= opts.tol * scale:
            return DenseSolution(0.5 * (x + x.T), iterations=it, residual=err / scale)
        if not np.isfinite(err) or err > 1e8 * scale and err > last:
            raise OracleFailureError(f"Newton diverged at iteration {it}")
        last = err
        mat = _frechet_matrix(co, x)
        try:
            delta = sla.solve(mat, -res.flatten(order="F"))
        except np.linalg.LinAlgError as exc:
            raise OracleFailureError("singular Newton linearization") from exc
        dx = delta.reshape((n, n), order="F")
        x = x + 0.5 * (dx + dx.T)
    raise OracleFailureError(
        f"Newton did not reach tolerance in {opts.max_iter} iterations "
        f"(last residual {err / scale:.3e})"
    )


def care_schur_solve(a, b, c) -> DenseSolution:
    """Classical Riccati reference via the stable invariant subspace.

    Solves C^T C + A^T X + X A - X B B^T X = 0 from the ordered real Schur
    form of the 2n x 2n Hamiltonian matrix.  Eigenvalues on the imaginary
    axis (or a defective stable subspace) abort the oracle.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    n = a.shape[0]
    if n > 500:
        raise ConformabilityError("Schur reference is guarded to n <= 500")
    b = np.atleast_2d(np.asarray(b, dtype=float))
    c = np.atleast_2d(np.asarray(c, dtype=float))
    ham = np.block([[a, -b @ b.T], [-c.T @ c, -a.T]])
    _, z, sdim = sla.schur(ham, output="real", sort="lhp")
    if sdim != n:
        raise OracleFailureError(
            f"stable subspace has dimension {sdim}, expected {n} "
            "(eigenvalues on the imaginary axis?)"
        )
    u1 = z[:n, :n]
    u2 = z[n:, :n]
    try:
        x = sla.solve(u1.T, u2.T)
    except np.linalg.LinAlgError as exc:
        raise OracleFailureError("singular subspace basis") from exc
    x = 0.5 * (x + x.T)
    res = c.T @ c + a.T @ x + x @ a - x @ b @ b.T @ x
    rel = np.linalg.norm(res) / max(np.linalg.norm(c.T @ c), np.finfo(float).tiny)
    if rel > 1e-10:
        raise OracleFailureError(f"Schur reference residual {rel:.3e} too large")
    return DenseSolution(x, iterations=1, residual=rel)


def one_step_approximant(co: DenseCoefficients, gamma: float):
    """The rank-l one-step approximant X and its ingredients at shift gamma.

    Returns (x, c_gamma, y) where x = C_g^T (I + Y Y^T)^-1 C_g with
    C_g = sqrt(2 gamma) C (A - gamma I)^-1 and Y = C (A - gamma I)^-1 B; the
    closed form the first iteration step is checked against.
    """
    n = co.n
    a_g = co.a - gamma * np.eye(n)
    ca = sla.solve(a_g.T, co.c.T).T
    c_g = np.sqrt(2.0 * gamma) * ca
    y = ca @ co.b
    m_small = np.eye(co.c.shape[0]) + y @ y.T
    x = c_g.T @ sla.solve(m_small, c_g, assume_a="pos")
    return 0.5 * (x + x.T), c_g, y


def residual_formula_check(p: StandardProblem | DenseCoefficients, gamma: float) -> float:
    """Validate the low-rank residual factorization at the one-step approximant.

    Runs one dense prototype step (:func:`alg1_step`) from X = 0 at shift
    gamma and returns the max relative deviation of three identities at the
    step's X: the Gram of its residual factor against the dense residual, its
    cross-term row L_X^T against that of :func:`incorporation_coefficients`,
    and its closed-loop input term B_X L_X^T against -B Fhat_X from the
    feedback operator.  The prototype handles the E = I form only.
    """
    co = p.dense_coefficients()
    st = alg1_step(alg1_init(co), gamma)
    x = st.x
    _, lt = incorporation_coefficients(co, x)
    return max(
        _rel_dev(residual_dense(co, x), st.c.T @ st.c),
        _rel_dev(lt, st.lt),
        _rel_dev(-co.b @ feedback_dense(co, x), st.b @ st.lt),
    )


# ---------------------------------------------------------------------------
# General semi-tensor product and its identities


def ltimes_dense(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """General left semi-tensor product via explicit Kronecker padding.

    Dense and small by design: this is the oracle used to validate the
    blockwise kernels and the product identities, not a production path.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    n = a.shape[1]
    p = b.shape[0]
    if p % n == 0:
        return np.kron(a, np.eye(p // n)) @ b
    if n % p == 0:
        return a @ np.kron(b, np.eye(n // p))
    raise ConformabilityError(
        f"inner dimensions {n} and {p} do not divide either way"
    )


def _rel_dev(lhs: np.ndarray, rhs: np.ndarray) -> float:
    num = np.linalg.norm(lhs - rhs)
    den = np.linalg.norm(lhs)
    if den == 0.0:
        return 0.0 if num == 0.0 else np.inf
    return float(num / den)


def ltimes_identities_check(u, v, seed: int = 0, m=None, d=None) -> float:
    """Max relative deviation over the three semi-tensor product identities.

    Checks, by direct Kronecker construction,
    ``U lt (I + V lt U) = (I + U lt V) lt U``, its inverse form, and the
    Sherman-Morrison-Woodbury form
    ``M^-1 - (M + U lt D lt V)^-1 = M^-1 lt U lt (D^-1 + V lt M^-1 lt U)^-1 lt V lt M^-1``.
    ``m`` and ``d`` default to well-conditioned random matrices of the sizes
    the products dictate.  A singular ``I + V lt U`` skips the inverse
    identities rather than failing.
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    rng = np.random.default_rng(seed)

    uv = ltimes_dense(u, v)
    vu = ltimes_dense(v, u)
    if uv.shape[0] != uv.shape[1] or vu.shape[0] != vu.shape[1]:
        raise ConformabilityError("U lt V and V lt U must both be square")
    s_uv = uv.shape[0]
    s_vu = vu.shape[0]

    devs = [
        _rel_dev(
            ltimes_dense(u, np.eye(s_vu) + vu),
            ltimes_dense(np.eye(s_uv) + uv, u),
        )
    ]

    i_vu = np.eye(s_vu) + vu
    i_uv = np.eye(s_uv) + uv
    if (
        np.linalg.matrix_rank(i_vu) == s_vu
        and np.linalg.matrix_rank(i_uv) == s_uv
    ):
        devs.append(
            _rel_dev(
                ltimes_dense(u, np.linalg.inv(i_vu)),
                ltimes_dense(np.linalg.inv(i_uv), u),
            )
        )

    if m is None:
        w = rng.standard_normal((s_uv, s_uv))
        m = np.eye(s_uv) + 0.3 * w / max(np.linalg.norm(w, 2), 1.0)
    if d is None:
        w = rng.standard_normal((s_vu, s_vu))
        d = np.eye(s_vu) + 0.2 * w / max(np.linalg.norm(w, 2), 1.0)
    m = np.atleast_2d(np.asarray(m, dtype=float))
    d = np.atleast_2d(np.asarray(d, dtype=float))
    minv = np.linalg.inv(m)
    dinv = np.linalg.inv(d)
    udv = ltimes_dense(ltimes_dense(u, d), v)
    core = dinv + ltimes_dense(ltimes_dense(v, minv), u)
    if np.linalg.matrix_rank(core) == core.shape[0]:
        lhs = minv - np.linalg.inv(m + udv)
        rhs = ltimes_dense(
            ltimes_dense(ltimes_dense(minv, u), np.linalg.inv(core)),
            ltimes_dense(v, minv),
        )
        devs.append(_rel_dev(lhs, rhs))

    return float(max(devs))


# ---------------------------------------------------------------------------
# Dense prototype (equivalence oracle)


@dataclass
class Alg1State:
    """Dense prototype state: coefficients are rewritten every iteration.

    ``lt`` is the cross-term row L^T of the last step (the row that rewrote
    A and the Ahat blocks); it is zero before the first step.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    ahat: list
    bhat: list
    xi: np.ndarray
    lt: np.ndarray

    @property
    def x(self) -> np.ndarray:
        return self.xi @ self.xi.T


def alg1_init(p: StandardProblem | DenseCoefficients) -> Alg1State:
    """Dense starting state from the effective standard-form coefficients."""
    if p.e is not None:
        raise ValueError("the dense prototype handles the E = I form only")
    if p.n > 200:
        raise ValueError("dense prototype is guarded to n <= 200")
    co = p.dense_coefficients()
    return Alg1State(
        a=co.a,
        b=co.b,
        c=co.c,
        ahat=[blk.copy() for blk in co.ahat],
        bhat=[blk.copy() for blk in co.bhat],
        xi=np.zeros((p.n, 0)),
        lt=np.zeros((co.m, co.n)),
    )


def alg1_step(st: Alg1State, gamma: float) -> Alg1State:
    """One literal prototype iteration over dense, explicitly updated matrices."""
    if gamma <= 0:
        raise ValueError("shift must be positive")
    n = st.a.shape[0]
    m = st.b.shape[1]
    ell = st.c.shape[0]
    k = len(st.ahat)
    sqrt2g = np.sqrt(2.0 * gamma)

    a_g = st.a - gamma * np.eye(n)
    c_gamma = sqrt2g * sla.solve(a_g.T, st.c.T).T
    y = c_gamma @ st.b / sqrt2g
    yhat = [c_gamma @ bh for bh in st.bhat]

    n_factor = chol_spd(np.eye(ell) + y @ y.T).T
    s = sla.solve_triangular(n_factor, c_gamma, lower=True)
    xi = np.hstack([st.xi, s.T])

    w = sqrt2g * sla.solve_triangular(n_factor, s, trans="T", lower=True)
    yw = y.T @ w
    cm_blocks = [c_gamma @ ah - yh @ yw for ah, yh in zip(st.ahat, yhat)]

    if k:
        yh_mat = materialize_stack(yhat, m)
        gram = kron_gram(np.eye(ell) + y @ y.T, k) + yh_mat @ yh_mat.T
        m_factor = chol_spd(0.5 * (gram + gram.T)).T
        cm_mat = materialize_stack(cm_blocks, n)
        c_new = np.vstack([st.c + w, sla.solve_triangular(m_factor, cm_mat, lower=True)])
    else:
        c_new = st.c + w

    ny = [sla.solve_triangular(n_factor, yh, lower=True) for yh in yhat]
    g_k = np.eye(m)
    for z in ny:
        g_k = g_k + z.T @ z
    k_factor = chol_spd(0.5 * (g_k + g_k.T))

    lt = k_factor @ yw
    acc = np.zeros((m, n))
    for z, cm in zip(ny, cm_blocks):
        acc += z.T @ sla.solve_triangular(n_factor, cm, lower=True)
    lt = lt + sla.solve_triangular(k_factor, acc, trans="T", lower=False)

    b_new = right_tri_solve(k_factor, st.b)
    bhat_new = [right_tri_solve(k_factor, bh) for bh in st.bhat]
    a_new = st.a - b_new @ lt
    ahat_new = [ah - bh @ lt for ah, bh in zip(st.ahat, bhat_new)]

    return Alg1State(a=a_new, b=b_new, c=c_new, ahat=ahat_new, bhat=bhat_new, xi=xi, lt=lt)


def validation_corpus():
    """The 100 seeded dense instances used by the formula-check gate."""
    sizes = [5, 20, 80, 200]
    ranks = [1, 2, 3, 5]
    gammas = [0.1, 1.0, 10.0]
    for idx in range(100):
        n = sizes[idx % 4]
        r = ranks[(idx // 4) % 4]
        gamma = gammas[(idx // 16) % 3]
        yield idx, n, r, gamma


def run_validation(verbose: bool = True) -> bool:
    """Self-contained oracle suite; prints one line per check when verbose."""
    from .testing import random_dense_coefficients, random_standard_problem

    ok = True

    def report(name, passed, detail=""):
        nonlocal ok
        ok = ok and passed
        if verbose:
            print(f"[{'PASS' if passed else 'FAIL'}] {name} {detail}")

    worst = 0.0
    for idx, n, r, gamma in validation_corpus():
        co = random_dense_coefficients(n=n, m=2, l=2, r=r, seed=idx)
        worst = max(worst, residual_formula_check(co, gamma))
    report("residual formula (100 instances)", worst <= 1e-10, f"max dev {worst:.2e}")

    devs = []
    for seed in range(5):
        p = random_standard_problem(n=25, m=2, l=2, r=1, seed=seed)
        co = p.dense_coefficients()
        xn = newton_ref_solve(co).x
        xs = care_schur_solve(co.a, co.b, co.c).x
        devs.append(np.linalg.norm(xn - xs) / np.linalg.norm(xs))
    report("Newton vs Schur (r=1)", max(devs) <= 1e-10, f"max dev {max(devs):.2e}")

    devs = []
    for seed in range(5):
        p = random_standard_problem(n=20, m=2, l=2, r=3, seed=seed)
        sol = newton_ref_solve(p)
        devs.append(sol.residual)
    report("Newton residual (r=3)", max(devs) <= 1e-12, f"max res {max(devs):.2e}")

    return ok
