"""The practical low-rank RADI-type iteration.

One iteration of the practical engine: draw a positive shift, push the
current residual through one sparse factorization of A - gamma*E (sharing it
via the low-rank SMW correction), add the step's rank-l block to X, and
refresh the residual and the feedback/accumulator pair through
identity-plus-rank-m scalings (no factor beyond m x m).  A solve holds the
residual in one of two forms, and one rule, for every r, moves it from the
first to the second:

- *Factor form.*  While the new residual factor has at most n rows it is
  stacked and truncated by an SVD through its Gram C C^T
  (`kernels.trunc_svd`), with the discarded energy accounted exactly, and
  the step appends its block S to the solution factor Xi.  The scaling
  W = (I + Y Y^T)^-1/2 is applied once, to S, and the stochastic couplings
  are taken from S; their scaling by (I + Z Z^T)^-1 comes from the
  accumulator factor and the one projection the feedback update makes.
- *Gram form.*  Once a step's new residual would have more than n rows
  (full-rank noise, or r = 1 with l > n), the step stores its n x n Gram G
  exactly, and folds the solution's blocks into a dense X_tall, which from
  then on holds all of X.  Every later step updates G and X_tall from two
  SMW solves with n right-hand sides and rank-m corrections
  (:func:`_gram_step`), in arrays the solve reuses.  Nothing is truncated
  there, so these steps add no truncation debt.

The trace-norm residual is the kept residual's energy (the squared Frobenius
norm of the factor, or trace G) plus the accumulated discard.  The solution
factor is assembled once, at the end of a solve
(:meth:`SolverState.trim_xi`): Xi's blocks in factor form, or in Gram form
the pivoted-Cholesky rows of X_tall alone, at most n columns.

The dense prototype this iteration is checked against (`alg1_init`/
`alg1_step`) lives in :mod:`scare_radi.oracles`.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    DegenerateProblemError,
    NoProgressError,
    NumericalBreakdownError,
    ShiftRejectionError,
    SpdViolationError,
    check_count,
    check_real,
)
from .kernels import (
    OperatorForms,
    add_product,
    add_sparse_product,
    chol_spd,
    factor_shifted,
    gram_factor,
    kron_gram,  # unused here, but perfbench/tracing.py wraps engine.kron_gram by name
    ltimes,
    materialize_stack,  # unused here too, for the same reason
    right_tri_solve,
    smw_row_solve,
    tri_solve,
    trunc_svd,
)
from .problems import StandardProblem
from .report import IterationRecord, RunReport
from .shifts import ShiftConfig, next_shift

__all__ = [
    "SolveOptions",
    "SolverState",
    "init_state",
    "step_once",
    "nres_trace",
    "radi_solve",
]

MAX_SHIFT_REJECTIONS = 5
# Converging runs stay at or below their initial normalized residual of 1 (on
# the n=200 grid and the benchmark workloads); a run whose residual passes
# this ceiling has diverged, and would otherwise spin until it overflows.
MAX_NRES = 1e8
# Xi is assembled from runs of consecutive blocks stacked into one buffer of at
# most this many rows: a block of few rows (an r = 1 block has l), copied
# transposed on its own, writes a short run into every row of Xi.  det-mass at
# n=5000 (73 blocks of 6 rows) took 18-25 ms a solve block by block, 11-13 ms
# in runs.
XI_GROUP_ROWS = 128


@dataclass
class SolveOptions:
    """Stopping, truncation, and shift knobs for one solve.

    ``trunc_rel`` is relative to the trace norm of the residual at zero, so
    the default pairs 1e-12 accuracy with 300 iterations.  ``cap_cols`` caps
    the residual-factor row count (default 10*r*l), forcing truncation by
    energy beyond it; it binds factor-form (wide) steps only, since a Gram
    step truncates nothing.  ``max_cols_xi`` optionally stops the run when
    the solution factor reaches a width budget (reported as flag "m"); a
    Gram step counts n columns (see :class:`SolverState`), so the flag fires
    on a solve in Gram form too.  A run whose truncation debt alone passes
    ``tol_nres`` always stops (flag "t"): the debt never shrinks, so no
    later step could converge.
    """

    tol_nres: float = 1e-12
    max_iter: int = 300
    trunc_rel: float = 3.33e-15
    cap_cols: int | None = None
    shift: ShiftConfig = field(default_factory=ShiftConfig)
    max_cols_xi: int | None = None

    def __post_init__(self):
        check_real("tol_nres", self.tol_nres)
        check_real("trunc_rel", self.trunc_rel)
        check_count("max_iter", self.max_iter)
        for name in ("cap_cols", "max_cols_xi"):
            if getattr(self, name) is not None:
                check_count(name, getattr(self, name), 1)


@dataclass
class SolverState:
    """Mutable per-solve state: the solution, the residual, feedback and accumulators.

    X = Xi Xi^T + X_tall.  The factor part is kept as the list of its
    blocks: Xi = [B_0^T, ..., B_k^T] for the blocks B_i of n columns in
    ``xi_blocks``, where B_0 is 0 x n and each factor-form step appends its
    block S without copying it; no block is written once appended.  The
    residual is the factor ``ccur`` (factor form) until a step's new residual
    would have more than n rows.  That step (the switch) folds the blocks,
    its own S included, into ``x_tall`` = Xi Xi^T, the dense n x n X, and
    ``xi_blocks`` goes back to the empty B_0; from then on ``ccur`` is None,
    ``gram`` holds the residual's n x n Gram G, and each Gram step updates
    G and X_tall in place; ``work`` holds the n x n arrays the Gram steps
    reuse, so that a step makes no new ones on the LDL^T route with E = I.
    ``xi_width`` counts the columns the steps appended, n for each Gram step
    (the rows of a full-rank S), until ``trim_xi`` writes Xi once as one
    C-contiguous n x xi_width array, which then stands, transposed, as the
    only block: in Gram form the rows of the pivoted Cholesky of X_tall, at
    most n, and ``xi_discard`` the share of trace X that factorization left
    out.  Until then ``xi`` assembles the factor part on each call;
    :meth:`dense_x` and :meth:`residual_gram` read X and the residual's Gram
    in either form.  ``ops`` holds the problem's operators in the forms the
    steps and the shift layer use, built once per solve.  ``shifts`` lists
    the solve's applied shifts, one per committed step: the shift layer's
    record of them.
    """

    xi_blocks: list
    f: np.ndarray
    kpi: np.ndarray
    ccur: np.ndarray | None
    nu0: float
    ops: OperatorForms
    gram: np.ndarray | None = None
    x_tall: np.ndarray | None = None
    work: dict = field(default_factory=dict, repr=False)
    xi_width: int = 0
    xi_discard: float = 0.0
    nu_omega: float = 0.0
    k: int = 0
    shifts: list = field(default_factory=list)

    @property
    def xi(self) -> np.ndarray:
        """The factor part of X, n x (its width) and C-contiguous."""
        blocks = self.xi_blocks
        if len(blocks) == 1:
            return blocks[0].T
        out = np.empty((blocks[0].shape[1], sum(b.shape[0] for b in blocks)))
        buf = np.empty((XI_GROUP_ROWS, out.shape[0]))
        col = i = 0
        while i < len(blocks):
            j, rows = i + 1, blocks[i].shape[0]
            while j < len(blocks) and rows + blocks[j].shape[0] <= XI_GROUP_ROWS:
                rows, j = rows + blocks[j].shape[0], j + 1
            part = blocks[i] if j == i + 1 else np.concatenate(blocks[i:j], out=buf[:rows])
            out[:, col : col + rows] = part.T
            col, i = col + rows, j
        return out

    def append_xi(self, s: np.ndarray) -> None:
        """Append the columns s^T to Xi; s is kept, not copied."""
        self.xi_blocks.append(s)
        self.xi_width += s.shape[0]

    def trim_xi(self) -> None:
        """Assemble Xi once, so that ``xi`` is one C-contiguous array holding all of X.

        In factor form Xi is the appended blocks.  In Gram form, where X_tall
        holds all of X, Xi is the rows of its pivoted Cholesky
        (:func:`gram_factor`) alone, at most n columns; ``xi_discard`` is
        the share of trace X they leave out, and X_tall and the work arrays
        are dropped.  ``xi_width`` becomes the assembled width.
        """
        if self.x_tall is None:
            self.xi_blocks = [self.xi.T]
        else:
            self.work = {}
            rows, left = gram_factor(self.x_tall)
            trace = float(np.trace(self.x_tall))
            self.xi_discard = left / trace if trace > 0.0 else 0.0
            self.x_tall = None
            self.xi_blocks = [np.ascontiguousarray(rows.T).T]
        self.xi_width = self.xi_blocks[0].shape[0]

    def dense_x(self) -> np.ndarray:
        """X = Xi Xi^T + X_tall as a dense n x n array, in either form (oracle sizes)."""
        xi = self.xi
        x = xi @ xi.T
        return x if self.x_tall is None else x + self.x_tall

    def residual_gram(self) -> np.ndarray:
        """The n x n Gram of the kept residual, C^T C or G (oracle sizes)."""
        if self.gram is not None:
            return self.gram.copy()
        return self.ccur.T @ self.ccur


def init_state(p: StandardProblem) -> SolverState:
    """The state at X = 0: the empty Xi, the problem's seeds and its operators."""
    n = p.n
    c = np.array(p.c, dtype=float)
    return SolverState(
        xi_blocks=[np.zeros((0, n))],
        f=np.array(p.f0, dtype=float),
        kpi=np.array(p.kpi0, dtype=float),
        ccur=c,
        nu0=float(np.linalg.norm(c) ** 2),
        ops=p.operators(),
    )


def nres_trace(state: SolverState) -> float:
    """Trace-norm normalized residual including accumulated truncation debt."""
    if state.nu0 <= 0.0:
        raise DegenerateProblemError("residual at zero vanishes; the solution is X = 0")
    if state.gram is not None:
        energy = float(np.trace(state.gram))
    else:
        energy = float(np.linalg.norm(state.ccur) ** 2)
    return (energy + state.nu_omega) / state.nu0


def _new_block(state: SolverState, gamma: float, c_f: np.ndarray, c_fb: np.ndarray):
    """The new block S, the residual factor's top C_top and the mid-step feedback.

    ``c_f`` is C_F = C (A + B F - gamma*E)^-1 and ``c_fb`` is C_F B.  For
    Y = C_F B Kpi^-1 and W = (I + Y Y^T)^-1/2:

        S = sqrt(2 gamma) W C_F,
        C_top = C + 2 gamma W^2 C_F E,
        F_mid = F - Kpi^-1 Y^T (2 gamma W^2 C_F E).

    W = (I + Y Y^T)^-1/2 = Q N^-1 for N N^T = I + Y Y^T and an orthogonal Q,
    so S^T S and the Grams built from S are those N^-1 gives.  For the thin
    QR Y = Q_Y R and the eigh I + R R^T = V Lambda V^T, any power W^a is
    I + U (Lambda^-a/2 - I) U^T with U = Q_Y V, so W and W^2 take the one
    projection T = U^T C_F: S = sqrt(2 gamma) (C_F + U D_1 T) with
    D_1 = Lambda^-1/2 - I, and 2 gamma W^2 C_F = 2 gamma (C_F + U D_2 T)
    with D_2 = Lambda^-1 - I, formed in place of ``c_f``, which is
    overwritten (it must be C- or Fortran-contiguous).  S is a new array,
    and C_top is formed in place of 2 gamma W^2 C_F.
    """
    y = right_tri_solve(state.kpi, c_fb)
    q, rz = np.linalg.qr(y)
    lam, v = np.linalg.eigh(np.eye(rz.shape[0]) + rz @ rz.T)
    u = q @ v
    t = u.T @ c_f
    g2 = 2.0 * gamma
    sqrt2g = np.sqrt(g2)
    s = add_product(sqrt2g * c_f, u, (sqrt2g * (lam**-0.5 - 1.0))[:, None] * t)
    w8 = add_product(np.multiply(c_f, g2, out=c_f), u, (g2 * (1.0 / lam - 1.0))[:, None] * t)
    w8e = state.ops.e_times(w8)
    f_mid = add_product(state.f.copy(), -tri_solve(state.kpi, y.T), w8e)
    c_top = np.add(state.ccur, w8e, out=w8)
    return s, c_top, f_mid


def _scale_couplings(x: np.ndarray, zt: np.ndarray, k: np.ndarray, t: np.ndarray):
    """(I + Z Z^T)^-1/2 X in place of the p x n ``x``, from K and T alone.

    ``zt`` is Z^T (m x p), ``k`` the upper-triangular K with K^T K = I + Z^T Z
    and ``t`` = T = K^-T Z^T X.  For K K^T = Q Lambda Q^T (an m x m eigh) the
    result is X - Z K^-1 Q D Q^T T with D = (I + Lambda^-1/2)^-1, which lies
    in [1/2, 1) since Lambda >= 1, so nothing small is divided by.  ``x``
    must be C- or Fortran-contiguous; it is overwritten and returned.
    """
    lam, q = np.linalg.eigh(k @ k.T)
    corr = tri_solve(k, (q / (1.0 + lam**-0.5)) @ (q.T @ t))
    return add_product(x, -zt.T, corr)


def step_once(
    p: StandardProblem,
    state: SolverState,
    gamma: float,
    opts: SolveOptions | None = None,
) -> tuple[SolverState, IterationRecord]:
    """One full iteration at a fixed shift; commits to state only on success.

    In Gram form the step is :func:`_gram_step`.  In factor form the step's
    one sparse solve gives C_F = C (A + B F - gamma*E)^-1 and, from the SMW
    core, C_F B (:func:`smw_row_solve`).  The new block S = W C_gamma
    (C_gamma = sqrt(2 gamma) C_F), the top rows C_top of the new residual
    factor and the mid-step feedback F_mid then take one projection of C_F
    and one product with E (:func:`_new_block`).  With r = 1 the new
    residual factor is C_top and the new feedback F_mid.  With r > 1 it is
    [C_top; (I + Z Z^T)^-1/2 X] for the stochastic couplings
    X = Sa + Shat F_mid and Z = Shat Kpi^-1, where Sa = S lt Ahat and
    Shat = S lt Bhat; the scaling comes from the accumulator factor K
    (K^T K = I + Z^T Z) and T = K^-T Z^T X, which the feedback update makes
    anyway (:func:`_scale_couplings`).  One rule picks what happens to the
    new factor, for every r: with at most n rows it is truncated by an SVD
    (:func:`trunc_svd`, route ``"gram"``); with more, the step stores its
    Gram exactly, folds Xi into X_tall, and the solve goes on in Gram form
    (route ``"switch"``).

    Returns the state and the iteration's trace row; its ``t_shift`` is left
    to the caller, who picked the shift.  Raises :class:`ShiftRejectionError`
    (recoverable with another shift) when the shifted factorization or the
    small SMW core fails, :class:`SpdViolationError` when the m x m
    accumulator Gram, the only matrix the step factors, loses definiteness,
    and :class:`NumericalBreakdownError` when the new residual or feedback is
    not finite (the iteration has diverged).
    """
    if gamma <= 0:
        raise ValueError("shift must be positive")
    opts = opts or SolveOptions()
    t_start = time.perf_counter()
    if state.gram is not None:
        return _gram_step(p, state, gamma, t_start)
    n, m, r = p.n, p.m, p.r

    # Rows of C through A + B F - gamma*E, from one sparse factorization of
    # A - gamma*E and the SMW correction for the feedback, which yields C_F B.
    t0 = time.perf_counter()
    fac = factor_shifted(state.ops, gamma)
    c_f, c_fb = smw_row_solve(fac, p.b, state.f, state.ccur)
    t_solve = time.perf_counter() - t0

    s, c_top, f_mid = _new_block(state, gamma, c_f, c_fb)

    t_ltimes = 0.0
    if r > 1:
        # W acts on the left, so (I (x) W)(C_gamma lt M) = S lt M.  The blocks
        # are kept as the C-contiguous transposes ltimes gives, (r - 1, ., ell):
        # sht[i] = Shat_i^T and xt[i] = X_i^T; zt = Z^T, block-major columns.
        ell = s.shape[0]
        t0 = time.perf_counter()
        sht = ltimes(s, p.bhat).transpose(0, 2, 1)
        xt = ltimes(s, p.ahat).transpose(0, 2, 1)
        t_ltimes = time.perf_counter() - t0
        for x_i, sh_i in zip(xt, sht):
            add_product(x_i, f_mid.T, sh_i)
        zt = tri_solve(state.kpi, sht.transpose(1, 0, 2).reshape(m, -1), trans=True)
        k_factor = chol_spd(np.eye(m) + zt @ zt.T)
        kpi_new = k_factor @ state.kpi
        # kzx = T = K^-T Z^T X, with Z^T X = sum_i Z_i^T X_i.
        ztx = np.matmul(zt.reshape(m, r - 1, ell).transpose(1, 0, 2), xt.transpose(0, 2, 1))
        kzx = tri_solve(k_factor, ztx.sum(axis=0), trans=True)
        f_new = f_mid - tri_solve(kpi_new, kzx)
        x_mat = xt.transpose(0, 2, 1).reshape(-1, n)
        stacked = np.vstack([c_top, _scale_couplings(x_mat, zt, k_factor, kzx)])
    else:
        # No stochastic blocks: the accumulator Gram is I, so its factor is I
        # and the update leaves Kpi and the mid-step feedback as they are.
        kpi_new, f_new, stacked = state.kpi, f_mid, c_top

    # The stack's squared norm is the new residual's energy; once that or
    # the feedback is no longer finite the iteration has diverged.
    t0 = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        energy = np.linalg.norm(stacked) ** 2
        finite = np.isfinite(energy) and np.isfinite(f_new).all()
    if not finite:
        raise NumericalBreakdownError(
            state.k + 1, f"residual or feedback not finite at iteration {state.k + 1}"
        )
    tall = stacked.shape[0] > n
    if tall:
        gram = stacked.T @ stacked
    else:
        cap = opts.cap_cols if opts.cap_cols is not None else 10 * r * max(p.l, 1)
        trunc = trunc_svd(stacked, tau_abs=opts.trunc_rel * state.nu0, cap=cap)
    t_svd = time.perf_counter() - t0

    # Commit.
    state.append_xi(s)
    state.shifts.append(gamma)
    state.f = f_new
    state.kpi = kpi_new
    state.k += 1
    if tall:
        # All of X moves into X_tall, the Gram of Xi's stacked blocks (S
        # included), and the blocks are freed.
        rows = np.concatenate(state.xi_blocks)
        state.xi_blocks = state.xi_blocks[:1]
        state.ccur, state.gram, state.x_tall = None, gram, rows.T @ rows
        state.work = {"r": np.empty((n + m, n)), "p": np.empty((n + m, n)),
                      "g_s": np.empty((n, n)), "z": np.empty((n, n))}
        route, cols_c, cap_discard = "switch", n, 0.0
    else:
        state.ccur = trunc.factor
        state.nu_omega += trunc.discarded_sq_trace
        route, cols_c, cap_discard = trunc.route, trunc.rank, trunc.cap_discard
    return state, _record(state, gamma, cols_c, route, cap_discard, t_start,
                          t_solve, t_ltimes, t_svd)


def _record(state, gamma, cols_c, route, cap_discard, t_start, t_solve, t_ltimes, t_svd):
    """The trace row of the step just committed; ``t_other`` is the rest of its time."""
    t_total = time.perf_counter() - t_start
    return IterationRecord(
        k=state.k,
        gamma=float(gamma),
        nres=nres_trace(state),
        cols_c=cols_c,
        cols_xi=state.xi_width,
        nu_omega=state.nu_omega,
        t_solve=t_solve,
        t_ltimes=t_ltimes,
        t_svd=t_svd,
        t_other=max(t_total - t_solve - t_ltimes - t_svd, 0.0),
        svd_route=route,
        cap_discard=cap_discard,
    )


def _gram_step(p: StandardProblem, state: SolverState, gamma: float, t_start: float):
    """One step in Gram form: the residual Gram G and X_tall updated, nothing truncated.

    For M = A + B F - gamma*E and V = B Kpi^-1, two SMW solves with n
    right-hand sides give R = G M^-1 and P = M^-T G M^-1 = R^T M^-1, and
    with them R V and P V.  For Psi = V^T P V and H = (I + Psi)^-1 (an
    m x m eigh), the RADI identities in Gram form (the factor C of G is
    never needed) are:

        G_S = S^T S = 2 gamma (P - P V H (P V)^T),
        F_mid = F - 2 gamma Kpi^-1 H (P V)^T E,
        C_top^T C_top = G + N + N^T,  N = 2 gamma (R' + gamma E^T Q_2) E,

    with R' = R - R V H (P V)^T and Q_2 = P - P V (2H - H Psi H) (P V)^T,
    the W^4 term.  With r > 1, L = sum_i Ahat_i^T G_S Bhat_i and
    Omega = sum_i Bhat_i^T G_S Bhat_i give the couplings' Gram
    sum_i X_i^T X_i = sum_i Ahat_i^T G_S Ahat_i + L F_mid + F_mid^T L^T
    + F_mid^T Omega F_mid, the accumulator I + Z^T Z = I + Kpi^-T Omega
    Kpi^-1 = K^T K and Z^T X = Kpi^-T (L^T + Omega F_mid), so
    T = K^-T Z^T X; the new G is C_top^T C_top plus the couplings' Gram
    minus T^T T, and the feedback and Kpi update as in factor form.
    X_tall += G_S.  R, P, G_S and the transposed products with the noise
    blocks live in the state's ``work`` arrays, reused from step to step;
    the terms of the new G are summed in R's array (C-ordered on both
    routes), one of each symmetric pair doubled, and its symmetric part
    overwrites the old G.  Each sparse noise block's products are added in
    place (:func:`add_sparse_product`), Ahat_i^T G_S into P's array, free
    once Q_2 is folded into R'.  On the LDL^T route with E = I the step
    makes no n x n array; SuperLU's solves and the products with E make new
    ones.

    The two solves count as ``t_solve`` and the products with Ahat and Bhat
    as ``t_ltimes``; nothing is truncated, so ``t_svd`` is 0.  Route
    ``"gram-step"``.
    """
    n, m, r = p.n, p.m, p.r
    g2 = 2.0 * gamma
    e_times = state.ops.e_times
    work = state.work

    t0 = time.perf_counter()
    fac = factor_shifted(state.ops, gamma)
    rr, rb = smw_row_solve(fac, p.b, state.f, state.gram, out=work["r"])
    pp, pb = smw_row_solve(fac, p.b, state.f, rr.T, out=work["p"])
    t_solve = time.perf_counter() - t0

    pv = right_tri_solve(state.kpi, pb)
    rv = right_tri_solve(state.kpi, rb)
    psi = tri_solve(state.kpi, p.b.T @ pv, trans=True)
    lam, u = np.linalg.eigh(np.eye(m) + 0.5 * (psi + psi.T))
    upv = u.T @ pv.T
    h_pv = (u / lam) @ upv  # H (P V)^T
    h2_pv = (u * ((lam + 1.0) / lam**2)) @ upv  # (2H - H Psi H) (P V)^T
    g_s = add_product(np.multiply(pp, g2, out=work["g_s"]), -g2 * pv, h_pv)
    f_mid = state.f - g2 * tri_solve(state.kpi, e_times(h_pv))
    add_product(rr, -rv, h_pv)  # R'
    add_product(pp, -pv, h2_pv)  # Q_2
    # The new G is the symmetric part of g_acc = G + 2N + (the couplings'
    # Gram, doubled where it is not symmetric) - T^T T, which starts as
    # 2N = 4 gamma (R' + gamma E^T Q_2) E in R's array, C-ordered on both
    # routes (E's product is copied back into it).
    pp *= gamma
    rr += pp if p.e is None else e_times(pp).T  # E^T Q_2 = (Q_2 E)^T
    if p.e is not None:
        rr[...] = e_times(rr)
    g_acc = rr
    g_acc *= 2.0 * g2
    g_acc += state.gram

    t_ltimes = 0.0
    if r > 1:
        t0 = time.perf_counter()
        # ltimes(G_S^T, Bhat) is the product of the stacked Bhat_i^T with
        # G_S itself; its blocks are G_S^T Bhat_i = G_S Bhat_i.  The sum over
        # the Ahat_i goes block by block: Ahat_i^T G_S into P's array, free
        # now, its transpose G_S Ahat_i into z, and Ahat_i^T z added to
        # g_acc in place, so the loop makes no n x n array.
        gsb = ltimes(g_s.T, p.bhat)
        omega = np.matmul(p.bhat.stacked.reshape(r - 1, m, n), gsb).sum(axis=0)
        l_mat = np.zeros((n, m))
        buf, z = work["p"][:n], work["z"]
        for at_i, gsb_i in zip(p.ahat.blocks_t, gsb):
            add = add_product if isinstance(at_i, np.ndarray) else add_sparse_product
            buf.fill(0.0)
            np.copyto(z, add(buf, at_i, g_s).T)
            add(g_acc, at_i, z)
            add(l_mat, at_i, gsb_i)
        t_ltimes = time.perf_counter() - t0
        omega = 0.5 * (omega + omega.T)
        ztz = right_tri_solve(state.kpi, tri_solve(state.kpi, omega, trans=True))
        k_factor = chol_spd(np.eye(m) + 0.5 * (ztz + ztz.T))
        kpi_new = k_factor @ state.kpi
        ztx = tri_solve(state.kpi, l_mat.T + omega @ f_mid, trans=True)
        kzx = tri_solve(k_factor, ztx, trans=True)
        f_new = f_mid - tri_solve(kpi_new, kzx)
        add_product(g_acc, 2.0 * l_mat + f_mid.T @ omega, f_mid)
        add_product(g_acc, -kzx.T, kzx)
    else:
        kpi_new, f_new = state.kpi, f_mid

    # trace g_acc is the new residual's energy; once that or the feedback is
    # no longer finite the iteration has diverged.
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(np.trace(g_acc)) and np.isfinite(f_new).all()
    if not finite:
        raise NumericalBreakdownError(
            state.k + 1, f"residual or feedback not finite at iteration {state.k + 1}"
        )

    # Commit: G is overwritten by the new one.
    np.add(g_acc, g_acc.T, out=state.gram)
    state.gram *= 0.5
    state.x_tall += g_s
    state.xi_width += n
    state.shifts.append(gamma)
    state.f = f_new
    state.kpi = kpi_new
    state.k += 1
    return state, _record(state, gamma, n, "gram-step", 0.0, t_start, t_solve, t_ltimes, 0.0)


def radi_solve(p: StandardProblem, opts: SolveOptions | None = None):
    """Run the iteration to the stopping rule; returns (state, report).

    This loop alone decides when a run stops and which shifts it has
    rejected.  It stops when the normalized trace residual (kept energy plus
    truncation debt over the initial energy) is at or below tolerance, which
    a vanishing residual or a tolerance of 1 meets before any step; when the
    iteration budget runs out; when the truncation debt alone exceeds the
    tolerance (flag "t"; the debt never shrinks, so no later step could
    converge, and an empty residual factor that has not converged is such a
    case); or when the solution factor hits its width budget (flag "m").  The
    shifts rejected at the current iteration are kept in one list: a retry
    takes a shift outside it (see :func:`next_shift`), and once it holds more
    than ``MAX_SHIFT_REJECTIONS`` the solve aborts with
    :class:`NoProgressError`, or :class:`NumericalBreakdownError` when the
    accumulator Gram was the one that failed.  A residual above ``MAX_NRES``
    raises :class:`NumericalBreakdownError`.  The returned state holds all of
    X as Xi, one C-contiguous array (X_tall folded in by
    :meth:`SolverState.trim_xi`).
    """
    opts = opts or SolveOptions()
    wall0 = time.perf_counter()
    state = init_state(p)
    report = RunReport(config=asdict(opts), backend=state.ops.route)
    report.rows.append(
        IterationRecord(
            k=0,
            gamma=np.nan,
            nres=1.0 if state.nu0 > 0 else 0.0,
            cols_c=state.ccur.shape[0],
            cols_xi=0,
            nu_omega=0.0,
        )
    )
    report.converged = report.rows[0].nres <= opts.tol_nres

    cache, rejected = None, []
    while not (report.converged or report.flags) and state.k < opts.max_iter:
        t0 = time.perf_counter()
        gamma, cache = next_shift(opts.shift, cache, p, state, rejected)
        t_shift = time.perf_counter() - t0
        try:
            state, row = step_once(p, state, gamma, opts)
        except (ShiftRejectionError, SpdViolationError) as exc:
            rejected.append(gamma)
            if len(rejected) > MAX_SHIFT_REJECTIONS:
                if isinstance(exc, SpdViolationError):
                    raise NumericalBreakdownError(
                        state.k, f"Gram factorization failed repeatedly: {exc}"
                    ) from exc
                raise NoProgressError(
                    f"all candidate shifts rejected at iteration {state.k}: {exc}"
                ) from exc
            continue
        row.rejections, rejected = len(rejected), []
        row.t_shift = t_shift
        row.shift_src = "recompute" if cache.source_iteration == row.k - 1 else "cache"
        row.basis_dim = cache.basis_dim
        report.rows.append(row)

        if row.nres <= opts.tol_nres:
            report.converged = True
        elif row.nres > MAX_NRES:
            raise NumericalBreakdownError(
                state.k, f"residual {row.nres:.3e} exceeds {MAX_NRES:.0e} at iteration {state.k}"
            )
        elif state.nu_omega / state.nu0 > opts.tol_nres:
            report.flags = "t"
        elif opts.max_cols_xi is not None and state.xi_width >= opts.max_cols_xi:
            report.flags = "m"

    state.trim_xi()
    report.iterations = state.k
    report.xi_width = state.xi_width
    report.xi_discard = state.xi_discard
    report.final_nres = report.rows[-1].nres
    report.wall_time = time.perf_counter() - wall0
    return state, report
