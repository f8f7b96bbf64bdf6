"""Problem containers and the dense residual.

Holds the original, standard-form, and generalized (mass-matrix) quadratic
matrix equations with sparse coefficients and low-rank factors, and the
in-place adapter that lets the iteration run on unmodified original
coefficients; a solve's operator forms are built from a container by
:class:`scare_radi.kernels.OperatorForms`.  The dense residual and feedback
evaluators (guarded to ``DENSE_GUARD``) stay here because the benchmark's
correctness check uses them; every other dense, verification-only tool
(the explicit standardizing transform, the original-coordinates feedback,
the defect-correction coefficients) lives in :mod:`scare_radi.oracles`.

Problem directory layout consumed by the benchmark loader: Matrix Market
files ``A.mtx``, ``B.mtx``, ``C.mtx``, optional ``E.mtx``, optional
``L.mtx``/``R.mtx``, and ``A1.mtx`` ... ``A{r-1}.mtx``, ``B1.mtx`` ...
``B{r-1}.mtx``.  Absent stochastic files mean r = 1; absent L/R means the
data are already in standard form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import (
    AssumptionViolationError,
    ConformabilityError,
    DefinitenessError,
)
from .kernels import OperatorForms, StackedMat, chol_spd, right_tri_solve

__all__ = [
    "OriginalProblem",
    "StandardProblem",
    "DenseCoefficients",
    "adapt_in_place",
    "residual_dense",
    "feedback_dense",
]

DENSE_GUARD = 2000


def _as_dense(m) -> np.ndarray:
    if sp.issparse(m):
        return np.asarray(m.toarray(), dtype=float)
    return np.atleast_2d(np.asarray(m, dtype=float))


def _check_shape(name, m, shape):
    if m.shape != shape:
        raise ConformabilityError(f"{name} has shape {m.shape}, expected {shape}")


@dataclass
class OriginalProblem:
    """Coefficient bundle of the original equation.

    ``a_list`` holds the r drift/noise matrices (index 0 is the drift),
    ``b_list`` the matching input matrices.  ``c0`` is a low-rank factor of
    the state weight with the cross term removed, i.e. C0^T C0 = Q - L R^-1 L^T.
    ``e`` is the optional mass matrix (identity when None).
    """

    a_list: list
    b_list: list
    c0: np.ndarray
    l: np.ndarray
    r_weight: np.ndarray
    e: object = None

    def __post_init__(self):
        if len(self.a_list) < 1 or len(self.a_list) != len(self.b_list):
            raise ConformabilityError("need r >= 1 drift/input pairs")
        n = self.a_list[0].shape[0]
        m = self.b_list[0].shape[1]
        self.c0 = np.atleast_2d(np.asarray(self.c0, dtype=float))
        self.l = np.atleast_2d(np.asarray(self.l, dtype=float))
        self.r_weight = np.atleast_2d(np.asarray(self.r_weight, dtype=float))
        for i, (a, b) in enumerate(zip(self.a_list, self.b_list)):
            if a.shape != (n, n) or b.shape != (n, m):
                raise ConformabilityError(f"pair {i} has shapes {a.shape}, {b.shape}")
        _check_shape("L", self.l, (n, m))
        _check_shape("R", self.r_weight, (m, m))
        if self.c0.shape[1] != n:
            raise ConformabilityError(f"C0 column count {self.c0.shape[1]} != {n}")
        if self.e is not None and self.e.shape != (n, n):
            raise ConformabilityError(f"E has shape {self.e.shape}, expected ({n}, {n})")

    @property
    def n(self):
        return self.a_list[0].shape[0]

    @property
    def m(self):
        return self.b_list[0].shape[1]

    @property
    def r(self):
        return len(self.a_list)


@dataclass
class StandardProblem:
    """Standard-form problem: identity input weight, stacked stochastic blocks.

    ``f0``/``kpi0`` carry the initialization the in-place adapter needs so
    that the iteration can run on unmodified original coefficients; a
    natively standard problem has f0 = 0 and kpi0 = I.
    """

    a: object
    b: np.ndarray
    c: np.ndarray
    ahat: StackedMat
    bhat: StackedMat
    e: object = None
    f0: np.ndarray = None
    kpi0: np.ndarray = None

    def __post_init__(self):
        n = self.a.shape[0]
        self.b = np.atleast_2d(np.asarray(self.b, dtype=float))
        self.c = np.atleast_2d(np.asarray(self.c, dtype=float))
        m = self.b.shape[1]
        _check_shape("A", self.a, (n, n))
        _check_shape("B", self.b, (n, m))
        if self.c.shape[1] != n:
            raise ConformabilityError(f"C column count {self.c.shape[1]} != {n}")
        if (self.ahat.block_rows, self.ahat.block_cols) != (n, n):
            raise ConformabilityError("Ahat blocks must be n x n")
        if (self.bhat.block_rows, self.bhat.block_cols) != (n, m):
            raise ConformabilityError("Bhat blocks must be n x m")
        if self.ahat.block_count != self.bhat.block_count:
            raise ConformabilityError("Ahat and Bhat must hold the same block count")
        if self.e is not None and self.e.shape != (n, n):
            raise ConformabilityError(f"E has shape {self.e.shape}, expected ({n}, {n})")
        if self.f0 is None:
            self.f0 = np.zeros((m, n))
        self.f0 = np.atleast_2d(np.asarray(self.f0, dtype=float))
        _check_shape("F0", self.f0, (m, n))
        if self.kpi0 is None:
            self.kpi0 = np.eye(m)
        self.kpi0 = np.atleast_2d(np.asarray(self.kpi0, dtype=float))
        _check_shape("Kpi0", self.kpi0, (m, m))

    @property
    def n(self):
        return self.a.shape[0]

    @property
    def m(self):
        return self.b.shape[1]

    @property
    def l(self):
        return self.c.shape[0]

    @property
    def r(self):
        return self.ahat.block_count + 1

    @property
    def is_generalized(self):
        return self.e is not None

    def a_sparse(self):
        return sp.csc_matrix(self.a)

    def e_sparse(self):
        return None if self.e is None else sp.csc_matrix(self.e)

    def operators(self) -> OperatorForms:
        """Fresh operator forms of A and E for one solve (see :class:`OperatorForms`)."""
        return OperatorForms.of(self.a, self.e)

    def dense_coefficients(self) -> "DenseCoefficients":
        """Effective standard-form coefficients, densified for oracle work.

        Folds the initialization into the matrices: A + B F0, B Kpi0^-1 and
        the same on every stochastic block, which is exactly the standard
        form regardless of whether the container was built by the explicit
        transform or the in-place adapter (for F0 = 0, Kpi0 = I the fold is
        exact).
        """
        if self.n > DENSE_GUARD:
            raise ConformabilityError(
                f"dense oracle path is guarded to n <= {DENSE_GUARD}, got n = {self.n}"
            )
        b = _as_dense(self.b)
        return DenseCoefficients(
            a=_as_dense(self.a) + b @ self.f0,
            b=right_tri_solve(self.kpi0, b),
            c=self.c.copy(),
            ahat=[_as_dense(blk) + _as_dense(bb) @ self.f0
                  for blk, bb in zip(self.ahat.blocks, self.bhat.blocks)],
            bhat=[right_tri_solve(self.kpi0, _as_dense(bb)) for bb in self.bhat.blocks],
            e=None if self.e is None else _as_dense(self.e),
        )


@dataclass
class DenseCoefficients:
    """Densified effective standard-form coefficients (oracle scale only)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    ahat: list
    bhat: list
    e: np.ndarray = None

    @property
    def n(self):
        return self.a.shape[0]

    @property
    def m(self):
        return self.b.shape[1]

    def dense_coefficients(self) -> "DenseCoefficients":
        """These coefficients, so either container can be passed to the oracles."""
        return self


def _r_inv_lt(r_weight: np.ndarray, l: np.ndarray) -> np.ndarray:
    """R^-1 L^T through the Cholesky factor, rejecting non-SPD weights.

    The factorization reads only R's upper triangle, so R must be symmetric
    (to 1e-12 relative) as well as positive definite.
    """
    if np.linalg.norm(r_weight - r_weight.T) > 1e-12 * np.linalg.norm(r_weight):
        raise AssumptionViolationError("control weight R is not symmetric")
    try:
        p = chol_spd(r_weight)
    except Exception as exc:
        raise AssumptionViolationError(
            "control weight R must be symmetric positive definite"
        ) from exc
    z = sla.solve_triangular(p, l.T, trans="T", lower=False)
    return sla.solve_triangular(p, z, lower=False), p


def adapt_in_place(orig: OriginalProblem) -> StandardProblem:
    """Adapter that leaves the original coefficients untouched.

    The weights are carried by the initialization instead: F0 = -R^-1 L^T and
    an accumulator seed Kpi0 with Kpi0^T Kpi0 = R; the stochastic blocks are
    the original ones.
    """
    rinv_lt, p = _r_inv_lt(orig.r_weight, orig.l)
    n = orig.n
    ahat = StackedMat.from_blocks(
        [sp.csc_matrix(ai) for ai in orig.a_list[1:]], block_rows=n, block_cols=n
    )
    bhat = StackedMat.from_blocks(
        [_as_dense(bi) for bi in orig.b_list[1:]], block_rows=n, block_cols=orig.m
    )
    return StandardProblem(
        a=sp.csc_matrix(orig.a_list[0]),
        b=_as_dense(orig.b_list[0]),
        c=orig.c0.copy(),
        ahat=ahat,
        bhat=bhat,
        e=orig.e,
        f0=-rinv_lt,
        kpi0=p,
    )


def _middle_and_cross(co: DenseCoefficients, x: np.ndarray):
    """I + Bhat^T ltimes X ltimes Bhat and the cross factor E^T X B + sum Ahat^T X Bhat."""
    mid = np.eye(co.m)
    xe = x if co.e is None else x @ co.e
    cross = (xe.T if co.e is not None else x) @ co.b
    for ah, bh in zip(co.ahat, co.bhat):
        xbh = x @ bh
        mid = mid + bh.T @ xbh
        cross = cross + ah.T @ xbh
    return mid, cross


def residual_dense(p: StandardProblem | DenseCoefficients, x: np.ndarray) -> np.ndarray:
    """Brute-force residual operator evaluation, exact to dense round-off.

    For a mass matrix E the drift terms pair with E (A^T X E + E^T X A and
    E^T X B in the cross factor); with E absent this is the plain standard
    form.  The quadratic correction is -cross Fhat_X with the feedback of
    :func:`feedback_dense`, so a singular middle matrix
    I + Bhat^T lt X lt Bhat (X far outside the solution regime) raises
    :class:`DefinitenessError` there.
    """
    co = p.dense_coefficients()
    x = np.atleast_2d(np.asarray(x, dtype=float))
    _check_shape("X", x, (co.n, co.n))
    if co.e is None:
        lin = co.a.T @ x + x @ co.a
    else:
        axe = co.a.T @ x @ co.e
        lin = axe + axe.T
    quad = sum((ah.T @ x @ ah for ah in co.ahat), start=np.zeros_like(x))
    _, cross = _middle_and_cross(co, x)
    corr = -cross @ feedback_dense(co, x)
    res = co.c.T @ co.c + lin + quad - corr
    return 0.5 * (res + res.T)


def feedback_dense(p: StandardProblem | DenseCoefficients, x: np.ndarray) -> np.ndarray:
    """Standard-form feedback -(I + Bhat' lt X lt Bhat)^-1 (X B + Ahat' lt X lt Bhat)^T."""
    co = p.dense_coefficients()
    x = np.atleast_2d(np.asarray(x, dtype=float))
    mid, cross = _middle_and_cross(co, x)
    try:
        return -sla.solve(mid, cross.T, assume_a="sym")
    except np.linalg.LinAlgError as exc:
        raise DefinitenessError("middle matrix I + Bhat' X Bhat is singular") from exc
