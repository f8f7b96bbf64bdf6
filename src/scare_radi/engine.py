"""The practical low-rank RADI-type iteration.

One iteration of the practical engine: draw a positive shift, push the
current residual factor and the accumulated feedback through one sparse
factorization of A - gamma*E (sharing it via the low-rank SMW correction),
append a rank-l block to the solution factor, refresh the residual factor and
the feedback/accumulator pair through identity-plus-rank-m scalings (no
factor beyond m x m), compress the new residual factor, and account the
discarded energy exactly.  The scaling W = (I + Y Y^T)^-1/2 is applied once,
to the new block S, and the stochastic couplings are taken from S.  While the
new residual factor is wide it is stacked and truncated by an SVD through its
Gram C C^T (`kernels.trunc_svd`); once it would be tall, only its n x n Gram
C^T C is accumulated, never the stack, and truncated by a pivoted Cholesky
(`kernels.trunc_gram`).  The trace-norm residual is then available for free
as the squared Frobenius norm of the kept factor plus the accumulated
discard.

The dense prototype this iteration is checked against (`alg1_init`/
`alg1_step`) lives in :mod:`scare_radi.oracles`.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.linalg as sla

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
    chol_spd,
    factor_shifted,
    gram_upper,
    kron_gram,  # unused here, but perfbench/tracing.py wraps engine.kron_gram by name
    ltimes,
    materialize_stack,  # unused here too, for the same reason
    right_tri_solve,
    smw_row_solve,
    trunc_gram,
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
    energy beyond it; ``max_cols_xi`` optionally stops the run when the
    solution factor reaches a width budget (reported as flag "m").  A run
    whose truncation debt alone passes ``tol_nres`` always stops (flag "t"):
    the debt never shrinks, so no later step could converge.
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
    """Mutable per-solve state: factors, feedback and accumulators.

    The solution factor is kept as the list of its blocks: Xi = [B_0^T, ...,
    B_k^T] for the blocks B_i of n columns in ``xi_blocks``, where B_0 is
    0 x n and each step appends its block S without copying it.  No block is
    copied as Xi grows, and none is written once appended: the shift layer
    reads its window from the tail of this list.  ``trim_xi`` writes Xi once
    as one C-contiguous n x xi_width array, which then stands, transposed,
    as the only block; until then ``xi`` assembles Xi on each call.  ``ops``
    holds the problem's operators in the forms the steps and the shift layer
    use, built once per solve.  ``shifts`` lists the solve's applied shifts,
    one per committed step: the shift layer's record of them.
    """

    xi_blocks: list
    f: np.ndarray
    kpi: np.ndarray
    ccur: np.ndarray
    nu0: float
    ops: OperatorForms
    xi_width: int = 0
    nu_omega: float = 0.0
    k: int = 0
    shifts: list = field(default_factory=list)

    @property
    def xi(self) -> np.ndarray:
        """The solution factor Xi, n x xi_width and C-contiguous."""
        blocks = self.xi_blocks
        if len(blocks) == 1:
            return blocks[0].T
        out = np.empty((blocks[0].shape[1], self.xi_width))
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
        """Assemble Xi once, so that ``xi`` is one C-contiguous array."""
        self.xi_blocks = [self.xi.T]


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
    return (float(np.linalg.norm(state.ccur) ** 2) + state.nu_omega) / state.nu0


def _gram_eig(z: np.ndarray):
    """U and Lambda with I + Z Z^T = I + U (Lambda - I) U^T for any p x k Z.

    Lambda (>= 1) is the spectrum of I + R R^T = V Lambda V^T for the thin
    QR Z = Q R, and U = Q V has orthonormal columns, at most min(p, k).  Any
    power of I + Z Z^T is then I + U (Lambda^a - I) U^T, applied in O(p k)
    per column.
    """
    q, rz = np.linalg.qr(z)
    lam, v = np.linalg.eigh(np.eye(rz.shape[0]) + rz @ rz.T)
    return q @ v, lam


def _inv_sqrt_gram(z: np.ndarray):
    """The map x -> (I + Z Z^T)^-1/2 x for any p x k Z, in O(p k) per column of x.

    It is x + U (Lambda^-1/2 - I) U^T x for U and Lambda of :func:`_gram_eig`.
    The map overwrites x, a C- or Fortran-contiguous p x cols array, and
    returns it.
    """
    u, lam = _gram_eig(z)
    shrink = (lam**-0.5 - 1.0)[:, None]
    return lambda x: add_product(x, u, shrink * (u.T @ x))


def _new_block(state: SolverState, gamma: float, c_f: np.ndarray, c_fb: np.ndarray):
    """The new block S, the residual factor's top C_top and the mid-step feedback.

    ``c_f`` is C_F = C (A + B F - gamma*E)^-1 and ``c_fb`` is C_F B.  For
    Y = C_F B Kpi^-1 and W = (I + Y Y^T)^-1/2:

        S = sqrt(2 gamma) W C_F,
        C_top = C + 2 gamma W^2 C_F E,
        F_mid = F - Kpi^-1 Y^T (2 gamma W^2 C_F E).

    W = (I + Y Y^T)^-1/2 = Q N^-1 for N N^T = I + Y Y^T and an orthogonal Q,
    so S^T S and the Grams built from S are those N^-1 gives.  W and W^2 are
    I + U (Lambda^a - I) U^T (:func:`_gram_eig`), so both take the one
    projection T = U^T C_F: S = sqrt(2 gamma) (C_F + U D_1 T) with
    D_1 = Lambda^-1/2 - I, and 2 gamma W^2 C_F = 2 gamma (C_F + U D_2 T)
    with D_2 = Lambda^-1 - I, formed in place of ``c_f``, which is
    overwritten (it must be C- or Fortran-contiguous).  S is a new array,
    and C_top is formed in place of 2 gamma W^2 C_F.
    """
    y = right_tri_solve(state.kpi, c_fb)
    u, lam = _gram_eig(y)
    t = u.T @ c_f
    g2 = 2.0 * gamma
    sqrt2g = np.sqrt(g2)
    s = add_product(sqrt2g * c_f, u, (sqrt2g * (lam**-0.5 - 1.0))[:, None] * t)
    w8 = add_product(np.multiply(c_f, g2, out=c_f), u, (g2 * (1.0 / lam - 1.0))[:, None] * t)
    w8e = state.ops.e_times(w8)
    f_mid = add_product(
        state.f.copy(), -sla.solve_triangular(state.kpi, y.T, lower=False), w8e
    )
    c_top = np.add(state.ccur, w8e, out=w8)
    return s, c_top, f_mid


def step_once(
    p: StandardProblem,
    state: SolverState,
    gamma: float,
    opts: SolveOptions | None = None,
) -> tuple[SolverState, IterationRecord]:
    """One full iteration at a fixed shift; commits to state only on success.

    The step's one sparse solve gives C_F = C (A + B F - gamma*E)^-1 and,
    from the SMW core, C_F B (:func:`smw_row_solve`).  The new block
    S = W C_gamma (C_gamma = sqrt(2 gamma) C_F), the top rows C_top of the
    new residual factor and the mid-step feedback F_mid then take one
    projection of C_F and one product with E (:func:`_new_block`).  With
    r = 1 the new residual factor is C_top and the new feedback F_mid.
    With r > 1 the new residual factor is [C_top; (I + Z Z^T)^-1/2 X] for the
    stochastic couplings X = Sa + Shat F_mid and Z = Shat Kpi^-1, where
    Sa = S lt Ahat and Shat = S lt Bhat.
    When its row count exceeds n the step assembles its Gram
    C_top^T C_top + X^T X - T^T T (T = K^-T Z^T X for I + Z^T Z = K^T K, the
    solve the feedback update makes anyway) by ``dsyrk`` and truncates that;
    otherwise it stacks the factor and truncates it by an SVD.  The Gram
    assembly counts as truncation time (``t_svd``).

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
    n, m, r = p.n, p.m, p.r

    # Rows of C through A + B F - gamma*E, from one sparse factorization of
    # A - gamma*E and the SMW correction for the feedback, which yields C_F B.
    t0 = time.perf_counter()
    fac = factor_shifted(state.ops, gamma)
    c_f, c_fb = smw_row_solve(fac, p.b, state.f, state.ccur)
    t_solve = time.perf_counter() - t0

    s, c_top, f_mid = _new_block(state, gamma, c_f, c_fb)

    t_ltimes = t_gram = 0.0
    stacked = gram = None
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
        zt = sla.solve_triangular(state.kpi, sht.transpose(1, 0, 2).reshape(m, -1), trans="T")
        k_factor = chol_spd(np.eye(m) + zt @ zt.T)
        kpi_new = k_factor @ state.kpi
        # kzx = T = K^-T Z^T X, with Z^T X = sum_i Z_i^T X_i.
        ztx = np.matmul(zt.reshape(m, r - 1, ell).transpose(1, 0, 2), xt.transpose(0, 2, 1))
        kzx = sla.solve_triangular(k_factor, ztx.sum(axis=0), trans="T")
        f_new = f_mid - sla.solve_triangular(kpi_new, kzx)
        if c_top.shape[0] + (r - 1) * ell > n:
            # X^T (I + Z Z^T)^-1 X = X^T X - T^T T.  Building the Gram replaces
            # the C^T C that truncating a tall stack would form, so it is timed
            # as truncation.
            t0 = time.perf_counter()
            gram = gram_upper(n, [c_top, *(x_i.T for x_i in xt)], [kzx])
            t_gram = time.perf_counter() - t0
        else:
            x_mat = xt.transpose(0, 2, 1).reshape(-1, n)
            stacked = np.vstack([c_top, _inv_sqrt_gram(zt.T)(x_mat)])
    else:
        # No stochastic blocks: the accumulator Gram is I, so its factor is I
        # and the update leaves Kpi and the mid-step feedback as they are.
        kpi_new, f_new, stacked = state.kpi, f_mid, c_top

    # The trace of the new residual's Gram is its energy before truncation.
    # Once it or the feedback is no longer finite the iteration has diverged.
    with np.errstate(over="ignore", invalid="ignore"):
        energy = np.trace(gram) if stacked is None else np.linalg.norm(stacked) ** 2
        finite = np.isfinite(energy) and np.isfinite(f_new).all()
    if not finite:
        raise NumericalBreakdownError(
            state.k + 1, f"residual or feedback not finite at iteration {state.k + 1}"
        )

    t0 = time.perf_counter()
    cap = opts.cap_cols if opts.cap_cols is not None else 10 * r * max(p.l, 1)
    tau_abs = opts.trunc_rel * state.nu0
    if stacked is None:
        trunc = trunc_gram(gram, tau_abs=tau_abs, cap=cap)
    else:
        trunc = trunc_svd(stacked, tau_abs=tau_abs, cap=cap)
    t_svd = t_gram + time.perf_counter() - t0

    # Commit.
    state.append_xi(s)
    state.shifts.append(gamma)
    state.ccur = trunc.factor
    state.f = f_new
    state.kpi = kpi_new
    state.nu_omega += trunc.discarded_sq_trace
    state.k += 1

    t_total = time.perf_counter() - t_start
    return state, IterationRecord(
        k=state.k,
        gamma=float(gamma),
        nres=nres_trace(state),
        cols_c=state.ccur.shape[0],
        cols_xi=state.xi_width,
        nu_omega=state.nu_omega,
        t_solve=t_solve,
        t_ltimes=t_ltimes,
        t_svd=t_svd,
        t_other=max(t_total - t_solve - t_ltimes - t_svd, 0.0),
        svd_route=trunc.route,
        cap_discard=trunc.cap_discard,
    )


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
    raises :class:`NumericalBreakdownError`.  The returned state holds Xi as a
    C-contiguous array.
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
    report.final_nres = report.rows[-1].nres
    report.wall_time = time.perf_counter() - wall0
    return state, report
