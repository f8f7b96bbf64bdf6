"""Block linear-algebra kernels.

The left semi-tensor product with vertically stacked blocks as one product,
SMW-corrected shifted row solves, right triangular solves, small SPD Cholesky
factorization, and a truncated SVD taken through the smaller Gram, with no
division by the singular values and exact accounting of the discarded energy.
Everything here is a pure function of its inputs; factorization handles may be
shared read-only across threads.
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
    "right_tri_solve",
    "factor_shifted",
    "smw_row_solve",
    "chol_spd",
    "trunc_svd",
    "materialize_stack",
    "kron_gram",
]

_MACHEPS = np.finfo(float).eps


@dataclass(frozen=True)
class StackedMat:
    """A vertically stacked matrix [M_1; ...; M_k] of equal-shape blocks.

    All blocks share the shape ``block_rows x block_cols``.  A stack with zero
    blocks is legal and represents the absent stochastic part of a
    deterministic problem; the explicit block dimensions keep downstream
    shapes well defined in that case.  ``stacked`` holds [M_1^T; ...; M_k^T],
    built at construction in the form :func:`ltimes` applies: CSR when the
    blocks are sparse, dense otherwise (0 x block_rows when there are none).
    """

    blocks: tuple
    block_rows: int
    block_cols: int
    stacked: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for blk in self.blocks:
            if blk.shape != (self.block_rows, self.block_cols):
                raise ConformabilityError(
                    f"stacked block of shape {blk.shape} does not match "
                    f"({self.block_rows}, {self.block_cols})"
                )
        if any(map(sp.issparse, self.blocks)):
            stacked = sp.vstack([blk.T for blk in self.blocks], format="csr", dtype=float)
        else:  # the transpose of C-ordered [M_1, ..., M_k]: BLAS sees x @ M_i's operands
            stacked = np.hstack([np.zeros((self.block_rows, 0)), *self.blocks]).T
        object.__setattr__(self, "stacked", stacked)

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


def materialize_stack(blocks, ncols: int) -> np.ndarray:
    """Stack a list of equal-shape dense blocks block-major: [M_1; ...; M_k]."""
    blocks = list(blocks)
    if not blocks:
        return np.zeros((0, ncols))
    return np.vstack(blocks)


def kron_gram(base: np.ndarray, k: int) -> np.ndarray:
    """I_k (x) base: the block diagonal of the Gram of a block-major stack."""
    return np.kron(np.eye(k), base)


def ltimes(x: np.ndarray, m: StackedMat) -> np.ndarray:
    """Left semi-tensor product of a dense matrix with a stacked matrix.

    For the stacked operand this is the blockwise product, taken for all k
    blocks as the one product ``m.stacked @ x^T`` and returned as the
    block-major k x rows(x) x block_cols array whose slice i is ``x @ M_i``
    (a transposed view, so reshaping it copies).  Only the row-compatible case
    used by the iteration is supported here; the general divisibility-based
    product lives in :func:`scare_radi.oracles.ltimes_dense`.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != m.block_rows:
        raise ConformabilityError(
            f"left operand has shape {x.shape} but stacked blocks are "
            f"{m.block_rows} x {m.block_cols}"
        )
    prod = np.asarray(m.stacked @ x.T)
    return prod.reshape(m.block_count, m.block_cols, x.shape[0]).transpose(0, 2, 1)


def right_tri_solve(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x @ t^-1 for upper-triangular t."""
    return sla.solve_triangular(t, x.T, trans="T", lower=False).T


@dataclass
class ShiftedFactorization:
    """Sparse LU of (A - gamma*E)^T, reusable for many row solves.

    Factoring the transpose turns every row solve rows @ (A - gamma*E)^-1
    into a plain (non-transposed) SuperLU solve.  The handle is read-only
    after construction and safe to share across threads for simultaneous
    solves.
    """

    gamma: float
    n: int
    _lu: object = field(repr=False)

    def row_solve(self, rows: np.ndarray) -> np.ndarray:
        """rows @ (A - gamma*E)^-1 as the sparse solve (A - gamma*E)^-T rows^T."""
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if rows.shape[1] != self.n:
            raise ConformabilityError(
                f"rows have {rows.shape[1]} columns, expected {self.n}"
            )
        if rows.shape[0] == 0:
            return rows.copy()
        return self._lu.solve(rows.T).T


def factor_shifted(ops, gamma: float) -> ShiftedFactorization:
    """Factor (A - gamma*E)^T for the operator forms ``ops`` of one solve.

    ``ops`` is a :class:`scare_radi.problems.OperatorForms`; the shifted
    matrix is ``ops.at - gamma*ops.et``, factored by SuperLU with partial
    pivoting and its default fill-reducing ordering.  An exactly singular
    shifted matrix raises :class:`ShiftRejectionError`.
    """
    try:
        lu = splu(ops.at - gamma * ops.et)
    except RuntimeError as exc:  # SuperLU signals exact singularity this way
        raise ShiftRejectionError(
            f"factorization of A - {gamma}*E failed: {exc}"
        ) from exc
    return ShiftedFactorization(gamma=float(gamma), n=ops.a.shape[0], _lu=lu)


def _solve_core(core: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """rows @ core^-1 for the small SMW core, rejecting numerically singular cores."""
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu, piv = sla.lu_factor(core)
    diag = np.abs(np.diag(lu))
    if diag.size and diag.min() <= 1e3 * _MACHEPS * max(diag.max(), 1.0):
        raise ShiftRejectionError("SMW core matrix I + F A_gamma^-1 B is numerically singular")
    return sla.lu_solve((lu, piv), rows.T, trans=1).T


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
    return ra - _solve_core(core, ra @ b) @ fa


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
    """Retained rows of a truncated factor plus the discarded energy.

    ``factor`` is a k x n matrix with the Gram of the rank-k truncated SVD,
    Sigma_k V_k^T up to an orthogonal factor on the left (callers use it only
    through its Gram), and ``sigma`` holds the k retained singular values.
    ``discarded_sq_trace`` is the sum of the squared discarded singular
    values, so the Frobenius energy of the input splits exactly into
    ``|sigma|_2^2 + discarded_sq_trace``.  ``route`` names the Gram that was
    eigendecomposed: ``"gram"`` (C C^T) or ``"tall-gram"`` (C^T C).
    """

    sigma: np.ndarray
    factor: np.ndarray
    discarded_sq_trace: float
    route: str

    @property
    def rank(self) -> int:
        return int(self.sigma.size)


def _select_retained(sq_desc: np.ndarray, tau_abs: float, cap: int) -> int:
    """Smallest leading count whose discarded tail energy is <= tau_abs, capped."""
    tail = np.concatenate([np.cumsum(sq_desc[::-1])[::-1], [0.0]])
    keep = int(np.argmax(tail <= tau_abs))
    keep = min(keep, cap)
    while keep > 0 and sq_desc[keep - 1] == 0.0:
        keep -= 1
    return keep


def trunc_svd(c: np.ndarray, tau_abs: float, cap: int) -> TruncationResult:
    """Truncated SVD of a p x n factor with exact discard accounting.

    Retains the minimal leading singular values such that the discarded Gram
    trace satisfies ``sum sigma_i^2 <= tau_abs``, then enforces the row cap,
    moving any overflow into ``discarded_sq_trace``.

    The singular values come from eigh of the smaller Gram, and the retained
    rows are formed without dividing by sigma: a tall factor (p > n) keeps
    sqrt(Lambda_k) V_k^T from C^T C = V Lambda V^T, a wide one keeps U_k^T C
    (= Sigma_k V_k^T) from C C^T = U Lambda U^T.  Either way the retained
    Gram matches the truncated Gram of C to about eps |C|^2 however graded
    the spectrum, so no full SVD is needed.
    """
    c = np.ascontiguousarray(np.atleast_2d(c), dtype=float)
    if tau_abs < 0:
        raise ValueError("tau_abs must be nonnegative")
    if cap < 1:
        raise ValueError("cap must be positive")
    tall = c.shape[0] > c.shape[1]
    w, v = np.linalg.eigh(c.T @ c if tall else c @ c.T)
    sq, v = np.maximum(w[::-1], 0.0), v[:, ::-1]
    keep = _select_retained(sq, tau_abs, cap)
    sigma, vk = np.sqrt(sq[:keep]), np.ascontiguousarray(v[:, :keep].T)
    factor = sigma[:, None] * vk if tall else vk @ c
    return TruncationResult(
        sigma, factor, float(np.sum(sq[keep:])), "tall-gram" if tall else "gram"
    )
