"""The practical low-rank RADI-type iteration.

One iteration of the practical engine: draw a positive shift, push the
current residual factor and the accumulated feedback through one sparse
factorization of A - gamma*E (sharing it via the low-rank SMW correction),
append a rank-l block to the solution factor, refresh the residual factor and
the feedback/accumulator pair, compress the stacked residual factor by a
truncated SVD, and account the discarded energy exactly.  The trace-norm
residual is then available for free as the squared Frobenius norm of the
kept factor plus the accumulated discard.

The dense prototype this iteration is checked against (`alg1_init`/
`alg1_step`) lives in :mod:`scare_radi.oracles`.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import (
    DegenerateProblemError,
    NoProgressError,
    NumericalBreakdownError,
    ShiftRejectionError,
    SpdViolationError,
)
from .kernels import (
    chol_spd,
    factor_shifted,
    kron_gram,  # unused here, but perfbench/tracing.py wraps engine.kron_gram by name
    ltimes,
    materialize_stack,
    smw_row_solve,
    trunc_svd,
)
from .problems import OperatorForms, StandardProblem
from .report import IterationRecord, RunReport
from .shifts import ShiftConfig, next_shift

__all__ = [
    "SolveOptions",
    "SolverState",
    "IterationScratch",
    "init_state",
    "step_once",
    "nres_trace",
    "radi_solve",
]

MAX_SHIFT_REJECTIONS = 5


@dataclass
class SolveOptions:
    """Stopping, truncation, and shift knobs for one solve.

    ``trunc_rel`` is relative to the trace norm of the residual at zero, so
    the default pairs 1e-12 accuracy with 300 iterations.  ``cap_cols`` caps
    the residual-factor row count (default 10*r*l), forcing truncation by
    energy beyond it; ``max_cols_xi`` optionally stops the run when the
    solution factor reaches a width budget (reported as flag "m").  With
    ``stop_on_stall`` the run also stops once the residual net of the
    accumulated truncation debt falls below tolerance (flag "t").
    """

    tol_nres: float = 1e-12
    max_iter: int = 300
    trunc_rel: float = 3.33e-15
    cap_cols: int | None = None
    shift: ShiftConfig = field(default_factory=ShiftConfig)
    stop_on_stall: bool = False
    max_cols_xi: int | None = None
    shift_sequence: list | None = None  # replay externally supplied shifts, cycled per attempt

    def __post_init__(self):
        if self.tol_nres <= 0 or self.trunc_rel <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class SolverState:
    """Mutable per-solve state: factors, feedback, accumulators, history.

    The solution factor is kept transposed: the leading ``xi_width`` rows of
    ``xi_buf`` hold Xi^T, so a step appends its block as contiguous rows.  The
    buffer doubles when an append overflows it, so appending costs amortized
    O(n * ell) per step instead of a copy of the whole factor.  ``ops`` holds
    the problem's operators in the forms the steps and the shift layer use,
    built once per solve.
    """

    xi_buf: np.ndarray
    f: np.ndarray
    kpi: np.ndarray
    ccur: np.ndarray
    nu0: float
    ops: OperatorForms
    xi_width: int = 0
    nu_omega: float = 0.0
    k: int = 0
    s_history: deque = field(default_factory=lambda: deque(maxlen=8))

    @property
    def xi(self) -> np.ndarray:
        """The solution factor Xi, n x xi_width (a view into the buffer)."""
        return self.xi_buf[: self.xi_width].T

    def append_xi(self, s: np.ndarray) -> None:
        """Append the columns s^T to Xi, doubling the buffer when it is full."""
        width, ell = self.xi_width, s.shape[0]
        if width + ell > self.xi_buf.shape[0]:
            grown = np.empty((max(2 * self.xi_buf.shape[0], width + ell), self.xi_buf.shape[1]))
            grown[:width] = self.xi_buf[:width]
            self.xi_buf = grown
        self.xi_buf[width : width + ell] = s
        self.xi_width = width + ell

    def trim_xi(self) -> None:
        """Shrink the buffer to Xi itself, so that ``xi`` is C-contiguous."""
        self.xi_buf = np.ascontiguousarray(self.xi).T


@dataclass
class IterationScratch:
    """Intermediate quantities of one iteration, exposed for tests/replay."""

    gamma: float
    c_gamma: np.ndarray
    t_solve: float = 0.0
    t_ltimes: float = 0.0
    t_svd: float = 0.0
    t_total: float = 0.0


def init_state(p: StandardProblem, window_s: int = 8) -> SolverState:
    n = p.n
    c = np.array(p.c, dtype=float)
    return SolverState(
        xi_buf=np.zeros((0, n)),
        f=np.array(p.f0, dtype=float),
        kpi=np.array(p.kpi0, dtype=float),
        ccur=c,
        nu0=float(np.linalg.norm(c) ** 2),
        ops=p.operators(),
        s_history=deque(maxlen=max(window_s, 1)),
    )


def nres_trace(state: SolverState) -> float:
    """Trace-norm normalized residual including accumulated truncation debt."""
    if state.nu0 <= 0.0:
        raise DegenerateProblemError("residual at zero vanishes; the solution is X = 0")
    return (float(np.linalg.norm(state.ccur) ** 2) + state.nu_omega) / state.nu0


def _right_tri_solve(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x @ t^-1 for upper-triangular t."""
    return sla.solve_triangular(t, x.T, trans="T", lower=False).T


def step_once(
    p: StandardProblem,
    state: SolverState,
    gamma: float,
    opts: SolveOptions | None = None,
) -> tuple[SolverState, IterationScratch]:
    """One full iteration at a fixed shift; commits to state only on success.

    Raises :class:`ShiftRejectionError` (recoverable with another shift) when
    the shifted factorization or the small SMW core fails,
    :class:`SpdViolationError` when one of the Gram factorizations loses
    definiteness, and :class:`NumericalBreakdownError` when the new residual
    or feedback is not finite (the iteration has diverged).
    """
    if gamma <= 0:
        raise ValueError("shift must be positive")
    opts = opts or SolveOptions()
    t_start = time.perf_counter()
    n, m, r = p.n, p.m, p.r
    ell = state.ccur.shape[0]
    e = state.ops.e
    sqrt2g = np.sqrt(2.0 * gamma)

    # Rows of C through A + B F - gamma*E, from one sparse factorization of
    # A - gamma*E and the SMW correction for the feedback.
    t0 = time.perf_counter()
    fac = factor_shifted(state.ops.a, gamma, e=e)
    c_f = smw_row_solve(fac, p.b, state.f, state.ccur)
    c_gamma = sqrt2g * c_f
    t_solve = time.perf_counter() - t0

    # Stochastic couplings of the fresh residual factor.
    t0 = time.perf_counter()
    y = _right_tri_solve(state.kpi, c_f @ p.b)
    cm = ltimes(c_gamma, p.ahat)
    yhat = ltimes(c_gamma, p.bhat)
    t_ltimes = time.perf_counter() - t0

    n_factor = chol_spd(np.eye(ell) + y @ y.T).T  # lower, N N^T = I + Y Y^T
    s = sla.solve_triangular(n_factor, c_gamma, lower=True)

    # Residual-factor and feedback updates share sqrt(2g) N^-T S (times E).
    w8 = sqrt2g * sla.solve_triangular(n_factor, s, trans="T", lower=True)
    w8e = w8 if e is None else np.asarray((e.T @ w8.T).T)
    c_top = state.ccur + w8e
    f_mid = state.f - sla.solve_triangular(state.kpi, y.T @ w8e, lower=False)

    if r > 1:
        # Z = (I (x) N)^-1 Yhat Kpi^-1 and X = (I (x) N)^-1 Cm, one N-solve per
        # block.  I + Z^T Z = K^T K is the accumulator Gram, and X has Gram
        # Cm^T (I (x) (I + Y Y^T) + Yhat Yhat^T)^-1 Cm through (I + Z Z^T)^-1.
        z_mat = materialize_stack(
            [sla.solve_triangular(n_factor, _right_tri_solve(state.kpi, yh), lower=True)
             for yh in yhat.blocks], m,
        )
        x_mat = materialize_stack(
            [sla.solve_triangular(n_factor, blk + yh @ f_mid, lower=True)
             for blk, yh in zip(cm.blocks, yhat.blocks)], n,
        )
        k_factor = chol_spd(np.eye(m) + z_mat.T @ z_mat)
        kpi_new = k_factor @ state.kpi
        f_new = f_mid - sla.solve_triangular(
            kpi_new,
            sla.solve_triangular(k_factor, z_mat.T @ x_mat, trans="T", lower=False),
            lower=False,
        )

        # (I + Z Z^T)^-1/2 X = X + Q ((I + R R^T)^-1/2 - I) Q^T X for Z = Q R.
        q, rz = np.linalg.qr(z_mat)
        lam, v = np.linalg.eigh(np.eye(rz.shape[0]) + rz @ rz.T)
        qv = q @ v
        bottom = x_mat + qv @ ((lam**-0.5 - 1.0)[:, None] * (qv.T @ x_mat))
        stacked = np.vstack([c_top, bottom])
    else:
        # No stochastic blocks: the accumulator Gram is I, so its factor is I
        # and the update leaves Kpi and the mid-step feedback as they are.
        kpi_new, f_new, stacked = state.kpi, f_mid, c_top

    # |stacked|_F^2 is the new residual before truncation.  Once it or the
    # feedback is no longer finite the iteration has diverged.
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(np.linalg.norm(stacked) ** 2) and np.isfinite(f_new).all()
    if not finite:
        raise NumericalBreakdownError(
            state.k + 1, f"residual or feedback not finite at iteration {state.k + 1}"
        )

    t0 = time.perf_counter()
    cap = opts.cap_cols if opts.cap_cols is not None else 10 * r * max(p.l, 1)
    trunc = trunc_svd(stacked, tau_abs=opts.trunc_rel * state.nu0, cap=cap)
    t_svd = time.perf_counter() - t0

    # Commit.
    state.append_xi(s)
    state.ccur = trunc.factor()
    state.f = f_new
    state.kpi = kpi_new
    state.nu_omega += trunc.discarded_sq_trace
    state.k += 1
    state.s_history.append(s)

    scratch = IterationScratch(
        gamma=gamma,
        c_gamma=c_gamma,
        t_solve=t_solve,
        t_ltimes=t_ltimes,
        t_svd=t_svd,
        t_total=time.perf_counter() - t_start,
    )
    return state, scratch


def radi_solve(p: StandardProblem, opts: SolveOptions | None = None):
    """Run the iteration to the stopping rule; returns (state, report).

    Stops when the normalized trace residual (kept energy plus truncation
    debt over the initial energy) drops below tolerance, when the iteration
    budget runs out, when the stall rule fires, or when the solution factor
    hits its width budget.  A rejected shift is retried with the next
    candidate (the next entry of a replayed sequence, or the next pending
    shift of the last projection) up to a small budget before aborting.
    The returned state holds Xi as a C-contiguous array.
    """
    opts = opts or SolveOptions()
    wall0 = time.perf_counter()
    state = init_state(p, window_s=opts.shift.window_s)
    report = RunReport(backend="scipy-superlu", config=_echo_options(opts))
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
    if state.nu0 == 0.0 or 1.0 <= opts.tol_nres:
        report.converged = True
        report.final_nres = report.rows[0].nres = 0.0 if state.nu0 == 0.0 else 1.0
        report.wall_time = time.perf_counter() - wall0
        return state, report

    cache = None
    seq = list(opts.shift_sequence) if opts.shift_sequence else None
    attempts = 0
    rejections = 0
    last_error = None

    while state.k < opts.max_iter:
        t0 = time.perf_counter()
        if seq is not None:
            gamma = float(seq[attempts % len(seq)])
        elif rejections and cache.pending:
            gamma = cache.pending.pop(0)  # retry with the projection's next candidate
        else:
            gamma, cache = next_shift(opts.shift, cache, p, state)
        t_shift = time.perf_counter() - t0
        attempts += 1

        try:
            state, scratch = step_once(p, state, gamma, opts)
        except (ShiftRejectionError, SpdViolationError) as exc:
            rejections += 1
            last_error = exc
            if rejections > MAX_SHIFT_REJECTIONS:
                if isinstance(exc, SpdViolationError):
                    raise NumericalBreakdownError(
                        state.k, f"Gram factorization failed repeatedly: {exc}"
                    ) from exc
                raise NoProgressError(
                    f"all candidate shifts rejected at iteration {state.k}: {last_error}"
                ) from exc
            continue
        rejections = 0

        nres = nres_trace(state)
        report.rows.append(
            IterationRecord(
                k=state.k,
                gamma=gamma,
                nres=nres,
                cols_c=state.ccur.shape[0],
                cols_xi=state.xi_width,
                nu_omega=state.nu_omega,
                t_shift=t_shift,
                t_solve=scratch.t_solve,
                t_ltimes=scratch.t_ltimes,
                t_svd=scratch.t_svd,
                t_other=max(
                    scratch.t_total - scratch.t_solve - scratch.t_ltimes - scratch.t_svd,
                    0.0,
                ),
            )
        )

        if nres <= opts.tol_nres:
            report.converged = True
            break
        kept_rel = float(np.linalg.norm(state.ccur) ** 2) / state.nu0
        if (opts.stop_on_stall and kept_rel < opts.tol_nres) or state.ccur.shape[0] == 0:
            report.flags = "t"
            break
        if opts.max_cols_xi is not None and state.xi_width >= opts.max_cols_xi:
            report.flags = "m"
            break

    state.trim_xi()
    report.iterations = state.k
    report.xi_width = state.xi_width
    report.final_nres = report.rows[-1].nres
    report.wall_time = time.perf_counter() - wall0
    return state, report


def _echo_options(opts: SolveOptions) -> dict:
    return {
        "tol_nres": opts.tol_nres,
        "max_iter": opts.max_iter,
        "trunc_rel": opts.trunc_rel,
        "cap_cols": opts.cap_cols,
        "max_cols_xi": opts.max_cols_xi,
        "stop_on_stall": opts.stop_on_stall,
        "shift": {
            "strategy": opts.shift.strategy,
            "window_s": opts.shift.window_s,
            "mode": opts.shift.mode,
        },
    }
