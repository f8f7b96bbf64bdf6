"""Real shift generation for the low-rank Riccati iteration.

Two strategies over a window of recent residual factors: eigenpairs of a
small projected Hamiltonian matrix (picking the eigenvalue whose eigenvector
has the largest lower-block norm), and the spectrum of the projected
closed-loop matrix.  Each runs either once per iteration or in a cached mode
that consumes all stable eigenvalues of one projection before recomputing.

Only real shifts are produced: complex eigenvalues contribute their shared
real part once.  Emitted shifts are clamped to a positive floor (the solver
uses 1e-8 |A|_1), since the iteration scales its update by sqrt(2 gamma).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.sparse.linalg import splu

from .errors import BasisFailureError, ShiftFailureError

__all__ = [
    "ShiftConfig",
    "ShiftCache",
    "build_basis",
    "hamiltonian_shifts",
    "projection_shifts",
    "next_shift",
]

STRATEGIES = ("hamiltonian", "projection")
MODES = ("cached", "per_iteration")


@dataclass
class ShiftConfig:
    """Strategy grid knob: which spectrum, how wide a window, how often."""

    strategy: str = "hamiltonian"
    window_s: int = 1
    mode: str = "cached"

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.window_s < 1:
            raise ValueError("window_s must be >= 1")


@dataclass
class ShiftCache:
    """Pending shifts from one projection, oldest-priority first."""

    pending: list = field(default_factory=list)
    source_iteration: int = 0


def build_basis(s_history, s: int, fallback: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the span of the last ``s`` residual factors.

    Falls back to the rows of ``fallback`` (the current residual factor) when
    the history is empty, which is the only seed available before the first
    step.  Rank-deficient columns are dropped by pivoted QR.
    """
    mats = [m for m in list(s_history)[-s:] if m.size]
    if not mats:
        mats = [np.atleast_2d(np.asarray(fallback, dtype=float))]
    stack = np.vstack(mats)
    if not np.any(stack):
        raise BasisFailureError("cannot orthonormalize an all-zero factor stack")
    q, r, _ = sla.qr(stack.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = max(stack.shape) * np.finfo(float).eps * diag[0]
    rank = int(np.count_nonzero(diag > tol))
    return q[:, :rank]


def _projected_closed_loop(u: np.ndarray, p, f: np.ndarray, ops):
    """U^T (A + B F) E^-1 U together with the E^-1 U workspace."""
    if ops.e is None:
        w = u
    else:
        if ops.e_lu is None:
            ops.e_lu = splu(ops.e)
        w = ops.e_lu.solve(np.ascontiguousarray(u))
    aw = ops.a @ w
    abar = u.T @ aw + (u.T @ p.b) @ (f @ w)
    return abar, w


def _dedupe_keep_order(gammas, rel=1e-12):
    kept = []
    for g in gammas:
        if all(abs(g - h) > rel * max(abs(g), abs(h)) for h in kept):
            kept.append(g)
    return kept


def projection_shifts(
    u: np.ndarray, p, f: np.ndarray, *, gamma_floor: float, ops=None
) -> ShiftCache:
    """Shifts from the stable spectrum of the projected closed-loop matrix.

    Returns the negated real parts of every stable eigenvalue, most negative
    first; the first is the primary shift.  ``ops`` carries the solve's
    operator forms (``p.operators()``, built afresh when omitted).
    """
    abar, _ = _projected_closed_loop(u, p, f, ops or p.operators())
    lam = np.linalg.eigvals(abar)
    stable = lam[lam.real < 0]
    if stable.size == 0:
        raise ShiftFailureError("projected closed-loop matrix has no stable eigenvalue")
    order = np.argsort(stable.real)
    gammas = _dedupe_keep_order([max(-z.real, gamma_floor) for z in stable[order]])
    return ShiftCache(pending=gammas)


def hamiltonian_shifts(
    u: np.ndarray, p, f: np.ndarray, kpi: np.ndarray, ccur: np.ndarray, *,
    gamma_floor: float, ops=None,
) -> ShiftCache:
    """Shifts from the eigenpairs of the projected 2d x 2d Hamiltonian matrix.

    Builds Abar = U^T (A + B F) E^-1 U, Gbar = (U^T B_k)(U^T B_k)^T with
    B_k = B Kpi^-1, and Qbar from the projected residual factor, then selects
    stable eigenvalues ordered by descending lower-block eigenvector norm.
    Ties prefer real eigenvalues, then real parts closest to zero.  With no
    stable eigenpair available it degrades to the projection strategy.
    ``ops`` is as for :func:`projection_shifts`.
    """
    ops = ops or p.operators()
    abar, w = _projected_closed_loop(u, p, f, ops)
    bk = sla.solve_triangular(kpi, p.b.T, trans="T", lower=False).T
    ub = u.T @ bk
    gbar = ub @ ub.T
    cu = np.atleast_2d(ccur) @ w
    qbar = cu.T @ cu
    d = abar.shape[0]
    ham = np.block([[abar, gbar], [qbar, -abar.T]])
    lam, vecs = np.linalg.eig(ham)
    qnorm = np.linalg.norm(vecs[d:, :], axis=0)

    stable = lam.real < 0
    if not np.any(stable):
        return projection_shifts(u, p, f, gamma_floor=gamma_floor, ops=ops)
    idx = np.nonzero(stable)[0]
    # descending |q|, then smallest |Im|, then real part closest to zero
    order = idx[np.lexsort((-lam[idx].real, np.abs(lam[idx].imag), -qnorm[idx]))]
    gammas = _dedupe_keep_order([max(-lam[i].real, gamma_floor) for i in order])
    return ShiftCache(pending=gammas)


def _compute(cfg: ShiftConfig, p, state) -> ShiftCache:
    floor = 1e-8 * state.ops.a_norm1
    u = build_basis(state.s_history, cfg.window_s, state.ccur)
    if cfg.strategy == "hamiltonian":
        cache = hamiltonian_shifts(
            u, p, state.f, state.kpi, state.ccur, gamma_floor=floor, ops=state.ops
        )
    else:
        cache = projection_shifts(u, p, state.f, gamma_floor=floor, ops=state.ops)
    cache.source_iteration = state.k
    return cache


def next_shift(cfg: ShiftConfig, cache: ShiftCache | None, p, state):
    """Pop the next shift, recomputing per mode.

    Per-iteration mode always recomputes; cached mode consumes the pending
    list and recomputes only when it runs dry.  Either way the cache keeps
    the remaining candidates, which a retry after a rejected shift takes.
    """
    if cfg.mode == "per_iteration" or cache is None or not cache.pending:
        cache = _compute(cfg, p, state)
    gamma = cache.pending.pop(0)
    return gamma, cache
