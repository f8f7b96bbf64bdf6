"""Block linear-algebra kernels.

The left semi-tensor product on vertically stacked blocks, SMW-corrected
shifted row solves, small SPD Cholesky factorization, and truncated SVD with
exact accounting of the discarded energy.  Everything here is a pure function
of its inputs; factorization handles may be shared read-only across threads.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.lapack import dpotrf
from scipy.sparse.linalg import splu

from .errors import ConformabilityError, ShiftRejectionError, SpdViolationError

__all__ = [
    "StackedMat",
    "ShiftedFactorization",
    "TruncationResult",
    "ltimes",
    "factor_shifted",
    "smw_row_solve",
    "chol_spd",
    "trunc_svd",
    "materialize_stack",
    "kron_gram",
]

_MACHEPS = np.finfo(float).eps


def _left_mul(x: np.ndarray, block) -> np.ndarray:
    """x @ block for dense x and a dense or sparse block, always dense output."""
    if sp.issparse(block):
        return np.asarray((block.T @ x.T).T)
    return x @ block


@dataclass(frozen=True)
class StackedMat:
    """A vertically stacked matrix [M_1; ...; M_k] kept as its list of blocks.

    All blocks share the same shape ``block_rows x block_cols``.  A stack with
    zero blocks is legal and represents the absent stochastic part of a
    deterministic problem; the explicit block dimensions keep downstream
    shapes well defined in that case.
    """

    blocks: tuple
    block_rows: int
    block_cols: int

    def __post_init__(self):
        for blk in self.blocks:
            if blk.shape != (self.block_rows, self.block_cols):
                raise ConformabilityError(
                    f"stacked block of shape {blk.shape} does not match "
                    f"({self.block_rows}, {self.block_cols})"
                )

    @classmethod
    def from_blocks(cls, blocks, block_rows=None, block_cols=None) -> "StackedMat":
        blocks = tuple(blocks)
        if blocks:
            block_rows, block_cols = blocks[0].shape
        elif block_rows is None or block_cols is None:
            raise ValueError("an empty stack needs explicit block dimensions")
        return cls(blocks, block_rows, block_cols)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def materialize(self) -> np.ndarray:
        """Dense (k*p) x q matrix [M_1; ...; M_k]."""
        return materialize_stack(
            [np.asarray(b.toarray() if sp.issparse(b) else b, dtype=float)
             for b in self.blocks],
            self.block_cols,
        )


def materialize_stack(blocks, ncols: int) -> np.ndarray:
    """Stack a list of equal-shape dense blocks block-major: [M_1; ...; M_k]."""
    blocks = list(blocks)
    if not blocks:
        return np.zeros((0, ncols))
    return np.vstack(blocks)


def kron_gram(base: np.ndarray, k: int) -> np.ndarray:
    """I_k (x) base: the block diagonal of the Gram of a block-major stack."""
    return np.kron(np.eye(k), base)


def ltimes(x: np.ndarray, m: StackedMat) -> StackedMat:
    """Left semi-tensor product of a dense matrix with a stacked matrix.

    For the stacked operand this reduces to the blockwise product: block i of
    the result is ``x @ m.blocks[i]``.  Only the row-compatible case used by
    the iteration is supported here; the general divisibility-based product
    lives in :func:`scare_radi.oracles.ltimes_dense`.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != m.block_rows:
        raise ConformabilityError(
            f"left operand has shape {x.shape} but stacked blocks are "
            f"{m.block_rows} x {m.block_cols}"
        )
    return StackedMat.from_blocks(
        [_left_mul(x, b) for b in m.blocks],
        block_rows=x.shape[0],
        block_cols=m.block_cols,
    )


@dataclass
class ShiftedFactorization:
    """Sparse LU of A - gamma*E, reusable for many row solves.

    The handle is read-only after construction and safe to share across
    threads for simultaneous solves.
    """

    gamma: float
    n: int
    _lu: object = field(repr=False)

    def row_solve(self, rows: np.ndarray) -> np.ndarray:
        """rows @ (A - gamma*E)^-1 via one transposed sparse solve."""
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if rows.shape[1] != self.n:
            raise ConformabilityError(
                f"rows have {rows.shape[1]} columns, expected {self.n}"
            )
        if rows.shape[0] == 0:
            return rows.copy()
        return self._lu.solve(rows.T, trans="T").T


def _csc(m):
    """m in CSC format; a CSC input is returned as it is, not rebuilt."""
    return m.tocsc() if sp.issparse(m) else sp.csc_matrix(m)


def factor_shifted(a, gamma: float, e=None) -> ShiftedFactorization:
    """Factor A - gamma*E with sparse LU (partial pivoting, fill-reducing ordering)."""
    n = a.shape[0]
    shifted = _csc(a) - gamma * (sp.identity(n, format="csc") if e is None else _csc(e))
    try:
        lu = splu(shifted.tocsc())
    except RuntimeError as exc:  # SuperLU signals exact singularity this way
        raise ShiftRejectionError(
            f"factorization of A - {gamma}*E failed: {exc}"
        ) from exc
    return ShiftedFactorization(gamma=float(gamma), n=n, _lu=lu)


def _solve_core(core: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve with the small SMW core, rejecting numerically singular cores."""
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu, piv = sla.lu_factor(core)
    diag = np.abs(np.diag(lu))
    if diag.size and diag.min() <= 1e3 * _MACHEPS * max(diag.max(), 1.0):
        raise ShiftRejectionError("SMW core matrix I + F A_gamma^-1 B is numerically singular")
    return sla.lu_solve((lu, piv), rhs)


def smw_row_solve(
    fac: ShiftedFactorization, b: np.ndarray, f: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """rows @ (A + B F - gamma*E)^-1 from the factorization of A - gamma*E.

    Uses the low-rank correction
    ``rows A_g^-1 - rows A_g^-1 B (I + F A_g^-1 B)^-1 F A_g^-1``, with the
    rows and F pushed through one stacked sparse solve; with F = 0 this is
    the plain shifted solve.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    both = fac.row_solve(np.vstack([rows, np.atleast_2d(f)]))
    ra, fa = both[: rows.shape[0]], both[rows.shape[0]:]
    core = np.eye(b.shape[1]) + fa @ b
    return ra - (ra @ b) @ _solve_core(core, fa)


def chol_spd(m: np.ndarray) -> np.ndarray:
    """Upper-triangular P with P^T P = M for symmetric positive definite M.

    The single P^T P orientation is used everywhere; callers transpose when
    the other one is needed.  A non-positive pivot raises
    :class:`SpdViolationError` carrying the 1-based pivot index.
    """
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.shape[0] != m.shape[1]:
        raise ConformabilityError(f"Cholesky needs a square matrix, got {m.shape}")
    if m.shape[0] == 0:
        return np.zeros((0, 0))
    c, info = dpotrf(m, lower=0, clean=1)
    if info > 0:
        raise SpdViolationError(pivot_index=int(info))
    if info < 0:
        raise ValueError(f"illegal value in Cholesky argument {-info}")
    return c


@dataclass
class TruncationResult:
    """Retained factor Sigma V^T of a truncated SVD plus the discarded energy.

    ``discarded_sq_trace`` is the sum of the squared discarded singular
    values, so the Frobenius energy of the input splits exactly into
    ``|sigma|_2^2 + discarded_sq_trace``.
    """

    sigma: np.ndarray
    vt: np.ndarray
    discarded_sq_trace: float

    @property
    def rank(self) -> int:
        return int(self.sigma.size)

    def factor(self) -> np.ndarray:
        """The retained rows Sigma V^T."""
        return self.sigma[:, None] * self.vt


def _select_retained(sq_desc: np.ndarray, tau_abs: float, cap: int) -> int:
    """Smallest leading count whose discarded tail energy is <= tau_abs, capped."""
    tail = np.concatenate([np.cumsum(sq_desc[::-1])[::-1], [0.0]])
    keep = int(np.argmax(tail <= tau_abs))
    keep = min(keep, cap)
    while keep > 0 and sq_desc[keep - 1] == 0.0:
        keep -= 1
    return keep


def trunc_svd(c: np.ndarray, tau_abs: float, cap: int) -> TruncationResult:
    """Truncated SVD of a wide factor with exact discard accounting.

    Retains the minimal leading singular values such that the discarded Gram
    trace satisfies ``sum sigma_i^2 <= tau_abs``, then enforces the row cap,
    moving any overflow into ``discarded_sq_trace``.  The default route
    eigendecomposes the small Gram C C^T and recovers V^T as Sigma^-1 U^T C;
    it falls back to a one-sided SVD when the smallest retained sigma^2 drops
    below 1e-8 of the largest, where the cross product has lost half the
    significant digits.
    """
    c = np.ascontiguousarray(np.atleast_2d(c), dtype=float)
    if tau_abs < 0:
        raise ValueError("tau_abs must be nonnegative")
    if cap < 1:
        raise ValueError("cap must be positive")
    p, n = c.shape
    if p == 0 or not np.any(c):
        return TruncationResult(np.zeros(0), np.zeros((0, n)), 0.0)

    if p <= n:
        gram = c @ c.T
        w, u = np.linalg.eigh(gram)
        sq = np.maximum(w[::-1], 0.0)
        u = u[:, ::-1]
        keep = _select_retained(sq, tau_abs, cap)
        if keep == 0 or sq[keep - 1] >= 1e-8 * sq[0]:
            sigma = np.sqrt(sq[:keep])
            vt = (u[:, :keep].T @ c) / sigma[:, None] if keep else np.zeros((0, n))
            disc = float(np.sum(sq[keep:]))
            return TruncationResult(sigma, vt, disc)

    sv = np.linalg.svd(c, full_matrices=False)
    sq = sv.S**2
    keep = _select_retained(sq, tau_abs, cap)
    return TruncationResult(
        sv.S[:keep].copy(), sv.Vh[:keep].copy(), float(np.sum(sq[keep:]))
    )
