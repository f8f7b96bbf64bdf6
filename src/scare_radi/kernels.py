"""Block linear-algebra kernels.

The left semi-tensor product with vertically stacked blocks as one product,
the operator forms of one solve (:meth:`OperatorForms.of` chooses the shifted
factorization's route, a LAPACK LDL^T for a symmetric-definite tridiagonal
pencil or SuperLU otherwise, prepares its operands, and builds the mass
matrix's maps: x E, one sparse product on both routes, and E^-1 u, the
route's solve), the shifted factorization and its SMW-corrected row solves,
the package's one triangular solve (:func:`tri_solve`, LAPACK ``dtrtrs``)
and its right-hand form, small SPD Cholesky factorization, the in-place
accumulation c += a @ b of a product into its target, by BLAS ``dgemm``
(:func:`add_product`) or, for a CSR a, by scipy's ``csr_matvecs``
(:func:`add_sparse_product`), the truncation of a wide residual factor
with exact accounting of the discarded energy, by an SVD taken through its
Gram C C^T with no division by the singular values (:func:`trunc_svd`),
and the factor F^T F = G of a positive semidefinite n x n Gram by a
pivoted Cholesky (:func:`gram_factor`), which turns a solve's dense X_tall
into its at most n solution-factor columns.  A residual with more rows
than n is not truncated at all: the solve carries its Gram instead (see
:mod:`scare_radi.engine`).  Each route has one factor-and-solve, ``_ldlt``
or ``_superlu``, and it makes every factorization of a solve: the
definiteness test of -A, E's, and each shifted matrix's.  This module
holds the package's only direct BLAS and LAPACK calls, and its only
triangular solves.  Everything public here is a pure function of its
inputs; operator forms and factorization handles may be shared read-only
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dgetrf, dgetrs, dpotrf, dpstrf, dpttrf, dpttrs, dtrtrs
from scipy.sparse import _sparsetools
from scipy.sparse.linalg import splu

from .errors import (
    AssumptionViolationError,
    ConformabilityError,
    ShiftRejectionError,
    SpdViolationError,
)

__all__ = [
    "StackedMat",
    "ShiftedFactorization",
    "OperatorForms",
    "TruncationResult",
    "ltimes",
    "tri_solve",
    "right_tri_solve",
    "factor_shifted",
    "smw_row_solve",
    "chol_spd",
    "add_product",
    "add_sparse_product",
    "gram_factor",
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

    @cached_property
    def blocks_t(self) -> tuple:
        """The blocks' transposes M_i^T, CSR when sparse, built on first use and kept.

        A Gram step takes products M_i^T x with each of them; a sparse
        block's transpose made on every use would cost a new sparse object.
        """
        return tuple(sp.csr_matrix(blk.T, dtype=float) if sp.issparse(blk) else blk.T
                     for blk in self.blocks)


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


def tri_solve(t: np.ndarray, x: np.ndarray, trans: bool = False) -> np.ndarray:
    """t^-1 x, or t^-T x with ``trans``, for an upper-triangular t, by LAPACK ``dtrtrs``.

    Only the upper triangle of t is read.  A t that is not Fortran-ordered
    is passed as its transpose, the lower triangle of t^T, with the
    transpose flag flipped, so no copy of t is made.  x is not
    overwritten; the result is a new Fortran-ordered array.  An exactly
    zero diagonal entry of t raises :class:`SpdViolationError` naming it:
    the triangular factors solved with are those of SPD matrices.
    """
    if x.size == 0:
        return np.zeros(x.shape)
    if t.flags.f_contiguous:
        sol, info = dtrtrs(t, x, lower=0, trans=int(trans))
    else:
        sol, info = dtrtrs(t.T, x, lower=1, trans=int(not trans))
    if info > 0:
        raise SpdViolationError(info, f"triangular factor is singular: zero diagonal entry {info}")
    return sol


def right_tri_solve(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x @ t^-1 for upper-triangular t."""
    return tri_solve(t, x.T, trans=True).T


@dataclass
class ShiftedFactorization:
    """Factorization of (A - gamma*E)^T, reusable for many row solves.

    Factoring the transpose turns every row solve rows @ (A - gamma*E)^-1
    into a plain (non-transposed) column solve ``_solve(cols, overwrite)``
    of the factors, the route's solve from :func:`factor_shifted`, which on
    the LDL^T route may overwrite ``cols`` when ``overwrite`` is set.  The
    handle is read-only after construction and safe to share across threads
    for simultaneous solves.
    """

    n: int
    _solve: object = field(repr=False)

    def row_solve(self, rows: np.ndarray, *, overwrite_rows: bool = False) -> np.ndarray:
        """rows @ (A - gamma*E)^-1 as the column solve (A - gamma*E)^-T rows^T.

        ``rows`` is left untouched unless ``overwrite_rows`` is set, which
        lets the LDL^T route solve a C-contiguous float64 ``rows`` in place.
        """
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if rows.shape[1] != self.n:
            raise ConformabilityError(
                f"rows have {rows.shape[1]} columns, expected {self.n}"
            )
        if rows.shape[0] == 0:
            return rows.copy()
        return self._solve(rows.T, overwrite_rows).T


def _identity(x):
    return x


def _ldlt(d, o, negate=False):
    """Factor the symmetric tridiagonal M of diagonal d and off-diagonal o by LAPACK ``dpttrf``.

    Returns (solve, 0): solve(cols, overwrite=False) is M^-1 cols by
    ``dpttrs``, or -M^-1 cols with ``negate``, and with ``overwrite`` set a
    Fortran-contiguous ``cols`` holds the result.  When M is not positive
    definite it returns (None, the 1-based index of the first non-positive
    pivot) instead.  ``dpttrf`` overwrites d and o with the factors.
    """
    d, o, info = dpttrf(d, o, overwrite_d=1, overwrite_e=1)
    if info > 0:
        return None, info

    def solve(cols, overwrite=False):
        x = dpttrs(d, o, cols, overwrite_b=overwrite)[0]  # info < 0 cannot occur here
        return np.negative(x, out=x) if negate else x

    return solve, 0


def _superlu(m: sp.csc_matrix):
    """Factor a square CSC ``m`` by SuperLU, with partial pivoting and its default ordering.

    Returns (solve, None): solve(cols, overwrite=False) is M^-1 cols and
    only reads ``cols``.  When M is exactly singular it returns (None,
    SuperLU's error) instead.
    """
    try:
        lu = splu(m)
    except RuntimeError as exc:  # SuperLU signals exact singularity this way
        return None, exc
    return (lambda cols, overwrite=False: lu.solve(cols)), None


def _symmetric_tridiagonals(a: sp.csc_matrix, e: sp.csc_matrix | None):
    """[a_d, a_o, e_d, e_o], the diagonals and off-diagonals of A and E (I for a None E).

    None unless n >= 2, the pattern of |A| + |E| is tridiagonal, and A and
    E are exactly symmetric.
    """
    n = a.shape[0]
    if n < 2:
        return None
    e_or_i = sp.identity(n, format="csc") if e is None else e
    pattern = (abs(a) + abs(e_or_i)).tocoo()
    if np.any(np.abs(pattern.row - pattern.col) > 1):
        return None
    diags = []
    for m in (a, e_or_i):
        off = m.diagonal(-1)
        if not np.array_equal(off, m.diagonal(1)):
            return None
        diags += [m.diagonal(0), off]
    return diags


@dataclass(frozen=True)
class OperatorForms:
    """The fixed operators of one solve, in the forms its iterations use.

    :meth:`of` converts A and E to CSC, takes ||A||_1, chooses the route of
    :func:`factor_shifted`, prepares the route's ``operands`` and factors E
    on the route, once per solve; the instance is immutable after that.
    ``route`` is one of:

    - ``"ldlt"``: the pattern of |A| + |E| is tridiagonal (n >= 2), A and E
      are exactly symmetric, and the LDL^T of -A and of E shows both
      positive definite.  ``operands`` holds their read-only diagonals and
      off-diagonals (a_d, a_o, e_d, e_o), and each step factors the SPD
      tridiagonal gamma*E - A by LDL^T.
    - ``"superlu"``: any other pattern or values (a nonsymmetric or
      indefinite tridiagonal, a wider band, a 2-D stencil, a general sparse
      A).  ``operands`` holds A^T and E^T (I when E is None) in CSC, and
      each step factors (A - gamma*E)^T by SuperLU.

    ``e_times(x)`` is x E for a k x n array x (the step's product), the
    sparse product (E^T x^T)^T of E^T in CSC on both routes.  ``e_solve(u)``
    is E^-1 u for an n x k array u (the shift layer's), the route's solve
    with E's factors.  Both return their argument itself when E is None.  A
    singular E raises :class:`AssumptionViolationError` in :meth:`of`.
    """

    a: sp.csc_matrix
    a_norm1: float
    route: str
    operands: tuple = field(repr=False)
    e_times: object = field(repr=False)
    e_solve: object = field(repr=False)

    @classmethod
    def of(cls, a, e=None) -> "OperatorForms":
        """Operator forms of a sparse or dense A and an optional E (None is I)."""
        a = sp.csc_matrix(a, dtype=float)
        e = None if e is None else sp.csc_matrix(e, dtype=float)
        a_norm1 = float(np.max(np.asarray(abs(a).sum(axis=0)).ravel()))
        # -A and E positive definite make gamma*E - A SPD for every gamma > 0.
        diags = _symmetric_tridiagonals(a, e)
        ldlt = diags is not None and _ldlt(-diags[0], -diags[1])[0] is not None
        e_solve = _identity
        if ldlt and e is not None:  # a copy: the shifts need E's diagonals intact
            e_solve = _ldlt(diags[2].copy(), diags[3].copy())[0]
            ldlt = e_solve is not None
        if ldlt:
            for arr in diags:
                arr.flags.writeable = False
            operands, et = tuple(diags), e  # E is exactly symmetric: its CSC is E^T's
        else:
            et = None if e is None else e.T.tocsc()
            operands = (a.T.tocsc(), sp.identity(a.shape[0], format="csc") if et is None else et)
            if e is not None:
                e_solve, exc = _superlu(e)
                if e_solve is None:
                    raise AssumptionViolationError(f"mass matrix E is singular: {exc}") from exc

        def e_times(x):
            return np.asarray(et @ x.T).T

        return cls(a=a, a_norm1=a_norm1, route="ldlt" if ldlt else "superlu", operands=operands,
                   e_times=_identity if e is None else e_times, e_solve=e_solve)


def factor_shifted(ops: OperatorForms, gamma: float) -> ShiftedFactorization:
    """Factor (A - gamma*E)^T for the operator forms ``ops`` of one solve.

    ``ops.route`` picks the factorization (see :class:`OperatorForms`).  On
    ``"ldlt"`` the SPD tridiagonal gamma*E - A is factored by LAPACK
    ``dpttrf`` (LDL^T, no pivoting needed) and every solve negates its
    ``dpttrs``.  On ``"superlu"`` A^T - gamma*E^T is factored by SuperLU with
    partial pivoting and its default fill-reducing ordering.  A shifted
    matrix that is exactly singular, or on the LDL^T route not numerically
    positive definite (a rounding-level near singularity for gamma > 0),
    raises :class:`ShiftRejectionError` naming the failing pivot or carrying
    SuperLU's reason.
    """
    if ops.route == "ldlt":
        a_d, a_o, e_d, e_o = ops.operands
        solve, pivot = _ldlt(gamma * e_d - a_d, gamma * e_o - a_o, negate=True)
        if solve is None:
            raise ShiftRejectionError(
                f"LDL^T of {gamma}*E - A failed: pivot {pivot} is not positive"
            )
    else:
        at, et = ops.operands
        solve, exc = _superlu(at - gamma * et)
        if solve is None:
            raise ShiftRejectionError(f"factorization of A - {gamma}*E failed: {exc}") from exc
    return ShiftedFactorization(n=ops.a.shape[0], _solve=solve)


def _solve_core(core: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """rows @ core^-1 for the small SMW core, rejecting non-finite or singular cores."""
    if core.shape[0] == 0:
        return rows
    if not np.all(np.isfinite(core)):
        raise ShiftRejectionError("SMW core matrix I + F A_gamma^-1 B is not finite")
    # A zero pivot (info > 0) fails the pivot test; on a finite square core
    # LAPACK reports no other error.
    lu, piv, _ = dgetrf(core)
    diag = np.abs(np.diag(lu))
    if diag.min() <= 1e3 * _MACHEPS * max(diag.max(), 1.0):
        raise ShiftRejectionError("SMW core matrix I + F A_gamma^-1 B is numerically singular")
    return dgetrs(lu, piv, rows.T, trans=1)[0].T


def smw_row_solve(
    fac: ShiftedFactorization, b: np.ndarray, f: np.ndarray, rows: np.ndarray, out=None
) -> tuple[np.ndarray, np.ndarray]:
    """(X, X B) for X = rows @ (A + B F - gamma*E)^-1, from the factorization of A - gamma*E.

    Uses the low-rank correction
    ``X = R - R B (I + F A_g^-1 B)^-1 F A_g^-1`` for R = rows A_g^-1, with
    the rows and F pushed through one stacked sparse solve, [R; F A_g^-1] B
    taken as one product, and the correction subtracted in place; with F = 0
    this is the plain shifted solve.  The sparse solve overwrites the stack,
    which is a new array unless ``out``, a C-contiguous (k + m) x n float64
    array, is given to hold it; on the LDL^T route X is then a view of
    ``out``.  The core's right-hand side comes out
    as X B: R B - R B core^-1 F A_g^-1 B = R B core^-1 (core - F A_g^-1 B)
    = R B core^-1, so X B costs no product of its own.  X is C-contiguous.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    k = rows.shape[0]
    if out is None:
        stack = np.vstack([rows, np.atleast_2d(f)])
    else:
        stack = out
        stack[:k], stack[k:] = rows, f
    both = fac.row_solve(stack, overwrite_rows=True)
    both_b = both @ b
    core = np.eye(b.shape[1]) + both_b[k:]
    xb = _solve_core(core, both_b[:k])
    return add_product(both[:k], -xb, both[k:]), xb


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


def add_product(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """c += a @ b in place, by BLAS ``dgemm`` with beta = 1; returns c.

    No temporary of c's size is made.  A C-contiguous c is updated as the
    Fortran-ordered c^T += b^T a^T, and contiguous a and b reach BLAS without
    a copy.  f2py would copy any other target and leave c unchanged, so a c
    that is not a writeable float64 array, C- or Fortran-contiguous, raises
    ValueError.
    """
    if c.dtype != np.float64 or not c.flags.writeable:
        raise ValueError("add_product needs a writeable float64 target")
    if c.shape != (a.shape[0], b.shape[1]) or a.shape[1] != b.shape[0]:
        raise ConformabilityError(f"cannot add {a.shape} @ {b.shape} to {c.shape}")
    if c.size == 0 or a.shape[1] == 0:
        return c
    target = c
    if not c.flags.f_contiguous:
        if not c.flags.c_contiguous:
            raise ValueError("add_product needs a C- or Fortran-contiguous target")
        target, a, b = c.T, b.T, a.T
    # x^T of a C-contiguous x is Fortran-ordered: pass it with the transpose flag.
    (a, ta), (b, tb) = ((x, 0) if x.flags.f_contiguous else (x.T, 1) for x in (a, b))
    dgemm(1.0, a, b, beta=1.0, c=target, trans_a=ta, trans_b=tb, overwrite_c=1)
    return c


def add_sparse_product(c: np.ndarray, a: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """c += a @ x in place for a CSR a, by scipy's ``csr_matvecs``; returns c.

    The sparse counterpart of :func:`add_product`: no temporary of c's size
    is made.  ``x`` is read as a C-contiguous float64 array (any other is
    copied first).  The kernel writes through c's buffer, so a c that is not
    a writeable, C-contiguous float64 array raises ValueError, as does an a
    that is not CSR with float64 values.  ``csr_matvecs`` is looked up on
    ``scipy.sparse._sparsetools``, a private module, on every call, so a
    scipy without it fails here, by name.
    """
    if c.dtype != np.float64 or not c.flags.writeable or not c.flags.c_contiguous:
        raise ValueError("add_sparse_product needs a writeable, C-contiguous float64 target")
    if not sp.issparse(a) or a.format != "csr" or a.dtype != np.float64:
        raise ValueError("add_sparse_product needs a CSR float64 operand")
    if c.shape != (a.shape[0], x.shape[1]) or a.shape[1] != x.shape[0]:
        raise ConformabilityError(f"cannot add {a.shape} @ {x.shape} to {c.shape}")
    matvecs = _sparsetools.csr_matvecs
    if c.size:
        x = np.ascontiguousarray(x, dtype=np.float64)
        matvecs(a.shape[0], a.shape[1], x.shape[1], a.indptr, a.indices, a.data,
                x.reshape(-1), c.reshape(-1))
    return c


@dataclass
class TruncationResult:
    """Retained rows of a truncated factor plus the discarded energy.

    ``factor`` is a k x n matrix whose Gram is the kept part of C^T C (callers
    use it only through its Gram), and ``rank`` is its row count.
    ``discarded_sq_trace`` is the trace of the discarded part of that Gram, so
    the Frobenius energy of the input splits exactly into
    ``|factor|_F^2 + discarded_sq_trace``; ``cap_discard`` is the share of it
    that the row cap moved there.  ``route`` names the rule, ``"gram"``
    (:func:`trunc_svd`, an eigh of C C^T); the rows are Sigma_k V_k^T, so
    their norms are the k retained singular values.
    """

    factor: np.ndarray
    discarded_sq_trace: float
    route: str
    cap_discard: float = 0.0

    @property
    def rank(self) -> int:
        return int(self.factor.shape[0])


def gram_factor(g: np.ndarray) -> tuple[np.ndarray, float]:
    """Rows F with F^T F = G for a positive semidefinite n x n G, and the trace they leave out.

    Only the upper triangle of ``g`` is read.  LAPACK's pivoted Cholesky
    ``dpstrf``, P^T G P = R^T R, stops at its numerical rank, the first pivot
    at or below its default tolerance n eps max diag(G); only the rows
    before it are finished, so only those are returned, as F = R[:rank] P^T
    in one C-contiguous array: the columns of the upper triangle of R are
    gathered through the inverse pivot permutation, with no zero-filled
    target to scatter them into.  The trace left out is trace G minus the
    rows' squared norms, clamped at 0: the trace of the unfactored Schur
    complement, at most n times the tolerance.
    """
    r, piv, rank, info = dpstrf(g, tol=-1.0)
    if info < 0:
        raise ValueError(f"illegal value in pivoted Cholesky argument {-info}")
    # np.triu returns a C-ordered copy; np.take of its columns keeps C order,
    # where a fancy index would return a Fortran-ordered array.
    rows = np.take(np.triu(r[:rank]), np.argsort(piv), axis=1)
    return rows, max(float(np.trace(g)) - float(np.einsum("ij,ij->", rows, rows)), 0.0)


def trunc_svd(c: np.ndarray, tau_abs: float, cap: int) -> TruncationResult:
    """Truncate a wide p x n factor (p <= n) to few rows with exact discard accounting.

    Retains the fewest leading rows such that the trace of the discarded Gram
    is <= ``tau_abs``, then enforces the row cap, moving any overflow into
    ``discarded_sq_trace``.  The factor is truncated as an SVD: the eigh of
    C C^T = U Lambda U^T orders the directions, and U_k^T C (= Sigma_k V_k^T)
    is kept without dividing by sigma; the kept Gram matches C^T C minus the
    discard to about eps |C|^2 however graded the spectrum.  A factor of
    more rows than n is never truncated: the engine carries its Gram
    instead.  Route ``"gram"``.
    """
    if tau_abs < 0:
        raise ValueError("tau_abs must be nonnegative")
    if cap < 1:
        raise ValueError("cap must be positive")
    c = np.ascontiguousarray(np.atleast_2d(c), dtype=float)
    w, u = np.linalg.eigh(c @ c.T)
    sq, u = np.maximum(w[::-1], 0.0), u[:, ::-1]
    # The tail energies are summed from the back, so small tails do not
    # cancel; trailing zero rows are dropped, and so are directions past the
    # n-th, which C (rank at most n) holds only as rounding, before the cap
    # applies.
    tail = np.concatenate([np.cumsum(sq[::-1])[::-1], [0.0]])
    keep = min(int(np.argmax(tail <= tau_abs)), c.shape[1])
    while keep > 0 and sq[keep - 1] == 0.0:
        keep -= 1
    kept = min(keep, cap)
    return TruncationResult(np.ascontiguousarray(u[:, :kept].T) @ c, float(np.sum(sq[kept:])),
                            "gram", float(np.sum(sq[kept:keep])))
