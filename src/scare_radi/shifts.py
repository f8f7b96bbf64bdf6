"""Real shift generation for the low-rank Riccati iteration.

Two strategies over the last s solution blocks: eigenpairs of a
small projected Hamiltonian matrix (picking the eigenvalue whose eigenvector
has the largest lower-block norm), and the spectrum of the projected
closed-loop matrix.  Each runs either once per iteration or in a cached mode
in which one projection serves two committed steps.  A projection's first
shift is its primary, the strategy's top priority; the cached mode's second
step takes, in a greedy Leja-type order, the pending shift that the shifts
applied so far damp least, and the step after projects again (see
:func:`next_shift`).

Both project onto at most l*s directions: the leading pivoted directions of
the last s solution blocks, as the residual-Hamiltonian and projection shifts
of Benner, Kürschner & Saak project onto a few recent directions.  The
basis takes only those l*s directions, by as many steps of a row-pivoted
Gram-Schmidt with downdated norms (:func:`build_basis`), never a full
pivoted QR of the window, whose rows can number as many as n.  A block
of a stochastic (r > 1) solve can hold hundreds of rows; projecting onto all
of them costs a Hamiltonian eig of twice that width and yields poorer shifts
(c9 at n=300: 21-22 iterations against 14).  An r = 1 block has at most l
rows, so there the cap never binds.  A solve in Gram form (see
:mod:`scare_radi.engine`) has no blocks past its switch; its l*s directions
are the leading rows of the diagonally pivoted Cholesky of the residual
Gram G (:func:`gram_rows`), orthonormalized the same way, and the
Hamiltonian's residual term is W^T G W.

Only real shifts are produced: complex eigenvalues contribute their shared
real part once.  Emitted shifts are clamped to 1e-8 |A|_1, since the
iteration scales its update by sqrt(2 gamma).  The strategies read what they
project from the solve state, and the cached pick its applied shifts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BasisFailureError, NoProgressError, ShiftFailureError, check_count
from .kernels import add_product, right_tri_solve

__all__ = [
    "ShiftConfig",
    "ShiftCache",
    "build_basis",
    "gram_rows",
    "hamiltonian_shifts",
    "projection_shifts",
    "next_shift",
]

STRATEGIES = ("hamiltonian", "projection")
# The modes, and the committed steps one projection serves in each (see
# :func:`next_shift`).
SERVES = {"cached": 2, "per_iteration": 1}
_EPS = np.finfo(float).eps
# LAPACK's sqrt(dlamch('E')), with dlamch('E') = eps / 2: a downdated norm whose
# square has shrunk below this share of its last computed value is recomputed.
_TOL3Z = np.sqrt(_EPS / 2)
# A row whose deflation has kept at least this share of its norm is
# orthogonal to the basis to rounding; only one that lost more is projected
# again (Kahan's "twice is enough" test, Parlett, The Symmetric Eigenvalue
# Problem, 1980, sec. 6-9).
_REORTH = np.sqrt(0.5)


@dataclass
class ShiftConfig:
    """Strategy grid knob: which spectrum, how wide a window, how often.

    ``mode`` sets how many committed steps one projection serves:
    ``"per_iteration"`` one, ``"cached"`` two (``SERVES``).
    """

    strategy: str = "hamiltonian"
    window_s: int = 1
    mode: str = "cached"

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        if self.mode not in SERVES:
            raise ValueError(f"mode must be one of {tuple(SERVES)}")
        check_count("window_s", self.window_s, 1)


@dataclass
class ShiftCache:
    """Pending shifts from one projection, highest priority first.

    ``source_iteration`` is the iteration count the projection was computed
    at; the projection serves the steps from there up to that count plus
    ``SERVES[mode]``.  ``basis_dim`` is the dimension of the basis it
    projected onto.  The shifts the solve has applied are the state's
    ``shifts``, and those it has rejected at the current iteration are kept
    by the solver, not here.
    """

    pending: list = field(default_factory=list)
    source_iteration: int = 0
    basis_dim: int = 0


def build_basis(window, fallback: np.ndarray, q: int | None = None) -> np.ndarray:
    """Orthonormal basis of the leading directions of the rows of ``window``.

    ``window`` is a sequence of blocks of n columns, the last s solution
    blocks of a solve.  Blocks without rows (Xi's 0 x n seed) are skipped,
    and when none has rows the basis falls back to the rows of ``fallback``
    (the current residual factor), the only seed available before the first
    step.  Takes at most ``q`` steps (all rows when ``q`` is None) of a
    row-pivoted Gram-Schmidt on the stacked rows, the truncated pivoted QR of
    Businger & Golub (Numer. Math. 1965): each step takes the row with the
    most norm left after projecting out the directions already taken, so the
    basis holds the largest row, and the first ``q`` columns are those of a
    full pivoted QR of the stack at O(q p n) cost.  The rank rule is the
    QR's: the steps stop once the next pivot's norm is at most
    max(p, n) eps |r_11|.  The remaining norms are downdated each step and
    recomputed once the downdate cancels, by the sqrt(eps) test of LAPACK's
    ``xLAQPS`` (Quintana-Orti, Sun & Bischof, SIAM J. Sci. Comput. 1998), so
    that the pivots are LAPACK ``dgeqp3``'s on graded stacks too.  A pivot
    row is projected out of the basis a second time only when its deflation
    has cancelled more than a 1 - 1/sqrt(2) share of its norm.  Each step
    makes one product of the remaining rows with the pivot row, for its
    norm and the deflation.  The window's blocks are only read: the steps
    deflate a stacked copy.
    """
    mats = [m for m in window if m.size]
    if not mats:
        mats = [np.atleast_2d(np.asarray(fallback, dtype=float))]
    rest = np.vstack(mats)
    vn0 = np.sqrt(np.einsum("ij,ij->i", rest, rest))  # the rows' norms before any step
    if not vn0.any():
        raise BasisFailureError("cannot orthonormalize an all-zero factor stack")
    vn1 = vn0.copy()  # downdated norms of the deflated rows
    vn2 = vn0.copy()  # each row's norm when last computed
    p, n = rest.shape
    steps = min(p, n) if q is None else min(q, p, n)
    basis = np.empty((steps, n))
    for j in range(steps):
        pick = j + int(np.argmax(vn1[j:]))
        if pick != j:  # swap as LAPACK does, which sets the order ties break in
            for a in (rest, vn0, vn1, vn2):
                a[[j, pick]] = a[[pick, j]]
        v = rest[j]
        if vn1[j] < _REORTH * vn0[j]:
            add_product(rest[j : j + 1], -(basis[:j] @ v)[None, :], basis[:j])
        vt = rest[j:] @ v  # |v|^2, then the tail's products with v
        norm = np.sqrt(vt[0])
        if j == 0:
            tol = max(p, n) * _EPS * norm
        elif norm <= tol:
            steps = j
            break
        np.divide(v, norm, out=basis[j])
        if j + 1 == steps:
            break
        tail, old, ref = rest[j + 1 :], vn1[j + 1 :], vn2[j + 1 :]
        coef = vt[1:] / norm
        tail -= coef[:, None] * basis[j]
        ratio = np.divide(np.abs(coef), old, out=np.zeros_like(coef), where=old > 0.0)
        left = np.maximum((1.0 + ratio) * (1.0 - ratio), 0.0)
        stale = left * old**2 <= _TOL3Z * ref**2
        old *= np.sqrt(left)
        if stale.any():
            old[stale] = ref[stale] = np.linalg.norm(tail[stale], axis=1)
    return basis[:steps].T


def _projected_closed_loop(u: np.ndarray, p, state):
    """U^T (A + B F) E^-1 U, E^-1 U and U^T B.

    E^-1 U is ``state.ops.e_solve``, on the shifted solve's route
    (U itself when E is I).  U^T B is returned because the Hamiltonian needs
    it too.
    """
    w = state.ops.e_solve(u)
    ub = u.T @ p.b
    abar = u.T @ (state.ops.a @ w) + ub @ (state.f @ w)
    return abar, w, ub


def _closed_loop_shifts(abar: np.ndarray, state) -> list:
    """The negated real parts of Abar's stable eigenvalues, most negative first."""
    lam = np.linalg.eigvals(abar)
    stable = lam[lam.real < 0]
    if stable.size == 0:
        raise ShiftFailureError("projected closed-loop matrix has no stable eigenvalue")
    order = np.argsort(stable.real)
    return _clamped(-stable[order].real, state)


def _clamped(gammas, state) -> list:
    """``gammas`` clamped to 1e-8 |A|_1, repeats dropped, order kept."""
    floor = 1e-8 * state.ops.a_norm1
    return list(dict.fromkeys(max(g, floor) for g in gammas))


def projection_shifts(u: np.ndarray, p, state) -> list:
    """Shifts from the stable spectrum of the projected closed-loop matrix.

    Returns the negated real parts of every stable eigenvalue, most negative
    first; the first is the primary shift.  Reads the feedback F and the
    operator forms (A and E's solve) from ``state``.
    """
    return _closed_loop_shifts(_projected_closed_loop(u, p, state)[0], state)


def hamiltonian_shifts(u: np.ndarray, p, state) -> list:
    """Shifts from the eigenpairs of the projected 2d x 2d Hamiltonian matrix.

    Builds Abar = U^T (A + B F) E^-1 U, Gbar = (U^T B_k)(U^T B_k)^T with
    B_k = B Kpi^-1, and Qbar = W^T C^T C W for W = E^-1 U from the residual
    factor C, or W^T G W from its Gram G in Gram form, all read from
    ``state``, then returns the stable eigenvalues' negated real parts
    ordered by descending lower-block eigenvector norm.  Norms at the
    rounding floor (2d eps) count as zero.  Ties prefer real eigenvalues,
    then real parts closest to zero.  With no stable eigenpair available it
    degrades to the projection strategy on the same Abar, which is not
    projected again.
    """
    abar, w, ub = _projected_closed_loop(u, p, state)
    ub = right_tri_solve(state.kpi, ub)  # U^T B_k
    gbar = ub @ ub.T
    if state.gram is None:
        cu = np.atleast_2d(state.ccur) @ w
        qbar = cu.T @ cu
    else:
        qbar = w.T @ (state.gram @ w)
    d = abar.shape[0]
    ham = np.block([[abar, gbar], [qbar, -abar.T]])
    lam, vecs = np.linalg.eig(ham)
    qnorm = np.linalg.norm(vecs[d:, :], axis=0)
    # Lower-block norms at the rounding floor are ties, so that rounding
    # cannot reorder them; the secondary keys decide.
    qnorm[qnorm <= ham.shape[0] * np.finfo(float).eps] = 0.0

    stable = lam.real < 0
    if not np.any(stable):
        return _closed_loop_shifts(abar, state)
    idx = np.nonzero(stable)[0]
    # descending |q|, then smallest |Im|, then real part closest to zero
    order = idx[np.lexsort((-lam[idx].real, np.abs(lam[idx].imag), -qnorm[idx]))]
    return _clamped(-lam[order].real, state)


def gram_rows(g: np.ndarray, q: int) -> np.ndarray:
    """The first q rows of the diagonally pivoted Cholesky of a positive semidefinite G.

    Each step pivots on the largest diagonal entry of the Schur complement
    left so far, and stops early once it is at most n eps max diag(G),
    LAPACK ``dpstrf``'s default rank rule; the rows R[:j] P^T returned are
    those of a full pivoted Cholesky P^T G P = R^T R, at O(q^2 n) cost.
    """
    n = g.shape[0]
    d = np.diag(g).copy()
    tol = n * _EPS * float(d.max(initial=0.0))
    rows = np.empty((min(q, n), n))
    for j in range(rows.shape[0]):
        i = int(np.argmax(d))
        if d[i] <= tol:
            return rows[:j]
        rows[j] = (g[i] - rows[:j, i] @ rows[:j]) / np.sqrt(d[i])
        d -= rows[j] ** 2
    return rows


def _compute(cfg: ShiftConfig, p, state) -> ShiftCache:
    q = p.l * cfg.window_s
    if state.gram is None:
        u = build_basis(state.xi_blocks[-cfg.window_s:], state.ccur, q=q)
    else:
        u = build_basis([gram_rows(state.gram, q)], None, q=q)
    strategy = hamiltonian_shifts if cfg.strategy == "hamiltonian" else projection_shifts
    return ShiftCache(strategy(u, p, state), state.k, u.shape[1])


def next_shift(cfg: ShiftConfig, cache: ShiftCache | None, p, state, rejected=()):
    """Pop the next shift, recomputing per mode.

    A projection serves ``SERVES[cfg.mode]`` committed steps: one in
    per-iteration mode and two in cached mode.  The cache is reused while it
    has pending shifts and the iteration count is below its
    ``source_iteration`` plus that number; otherwise the projection is
    recomputed.  A rejected step leaves the count unchanged, so in both
    modes a retry takes the projection's next pending candidate, a shift
    different from the rejected one, while any remain.  ``rejected`` holds
    the shifts the solver has rejected at the current iteration: a recompute
    there reproduces the projection, so it drops them, and raises
    :class:`NoProgressError` when none is left.

    A fresh projection gives its primary shift, ``pending[0]``.  A later
    pick from it (cached mode's second step, or a retry) is the greedy
    Leja-type choice of ADI parameters from a fixed set (Reichel, BIT 1990;
    Starke, SIAM J. Numer. Anal. 1991): the pending gamma that maximizes
    sum_j log(|gamma - gamma_j| / (gamma + gamma_j)) over the shifts gamma_j
    the solve has applied, ``state.shifts``, the one they damp least.  The
    sum is taken in log space, so that long histories cannot underflow; the
    first maximum wins, so ties keep the strategy's priority order, and a
    repeat of an applied shift (log 0) comes last.
    """
    if not (cache and cache.pending
            and state.k < cache.source_iteration + SERVES[cfg.mode]):
        cache = _compute(cfg, p, state)
        cache.pending = [g for g in cache.pending if g not in rejected]
        if not cache.pending:
            raise NoProgressError(
                f"every candidate shift at iteration {state.k} was rejected: {list(rejected)}"
            )
        pick = 0
    else:
        pick = _least_damped(cache.pending, state.shifts)
    return cache.pending.pop(pick), cache


def _least_damped(pending: list, applied: list) -> int:
    """Index of the first pending g maximizing sum log(|g - a| / (g + a)) over ``applied``."""
    g, a = np.array(pending)[:, None], np.array(applied)
    with np.errstate(divide="ignore"):
        score = np.log(np.abs(g - a) / (g + a)).sum(axis=1)
    return int(np.argmax(score))
