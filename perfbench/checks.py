"""Independent correctness check of a returned solution factor Xi.

The solver reports its residual from the compressed residual factor it
carries.  This check recomputes the trace-norm residual of ``X = Xi Xi^T``
from the problem coefficients alone and compares it with the tolerance plus
the check's own rounding floor:

* r = 1: the factored residual ``U M U^T`` with ``U = [C^T, A^T Xi, E^T Xi]``,
  reduced by a thin QR of U to a small symmetric eigenproblem, so no n x n
  matrix is formed.  On stiff problems it is also far more precise than the
  dense route, whose n x n products and eigenvalue sum round at the scale of
  ``A^T X E`` (7e-12 against 4e-13 on the (n+1)^2 heat problem at n = 1357).
* r > 1 (n <= 2000 only): the dense residual ``problems.residual_dense(p, X)``
  and the sum of the absolute values of its eigenvalues.

Both are normalised by ``|C|_F^2``, the residual at X = 0, as the solver does.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from scare_radi.problems import DENSE_GUARD, residual_dense

EPS = np.finfo(float).eps


def _u(k: int) -> float:
    """Probabilistic rounding bound sqrt(k) * eps for a length-k inner product."""
    return np.sqrt(max(k, 1)) * EPS


def _row_nnz(m) -> int:
    m = sp.csr_matrix(m)
    return int(np.diff(m.indptr).max()) if m.nnz else 0


def rounding_floor(p, xi: np.ndarray, dense: bool) -> float:
    """First-order rounding floor of the check, relative to |C|_F^2.

    The residual is a small difference of large terms: with the (n+1)^2
    stiffness of a fine stencil, ``A^T X E`` exceeds the residual by many
    orders.  Forming ``A^T Xi`` (and ``E^T Xi``) in floating point errs by at
    most ``u_k |A^T| |Xi|`` entrywise for k nonzeros per row, and the pair
    product that enters the residual twice errs by at most
    ``2 (u_kA + u_kE) | |A^T||Xi| |_F | |E^T||Xi| |_F``; the stochastic terms
    ``Ahat_i^T X Ahat_i`` contribute in the same way.  The dense route also
    rounds ``X = Xi Xi^T`` itself, an inner product of length width(Xi).
    """
    absxi = np.abs(xi)
    u_x = _u(xi.shape[1]) if dense else 0.0
    abs_a = np.linalg.norm(abs(sp.csr_matrix(p.a).T) @ absxi)
    if p.e is None:
        abs_e, u_e = np.linalg.norm(absxi), 0.0
    else:
        abs_e, u_e = np.linalg.norm(abs(sp.csr_matrix(p.e).T) @ absxi), _u(_row_nnz(p.e))
    total = 2.0 * (_u(_row_nnz(p.a)) + u_e + u_x) * abs_a * abs_e
    for blk in p.ahat.blocks:
        abs_blk = np.linalg.norm(abs(sp.csr_matrix(blk).T) @ absxi)
        total += (2.0 * _u(_row_nnz(blk)) + u_x) * abs_blk**2
    return float(total / np.linalg.norm(p.c) ** 2)


def dense_nres(p, xi: np.ndarray) -> float:
    res = residual_dense(p, xi @ xi.T)
    return float(np.abs(np.linalg.eigvalsh(res)).sum() / np.linalg.norm(p.c) ** 2)


def factored_nres(p, xi: np.ndarray) -> float:
    """Trace-norm residual of a deterministic problem from ``U M U^T``."""
    if p.r != 1 or np.any(p.f0) or not np.array_equal(p.kpi0, np.eye(p.m)):
        raise ValueError("the factored check covers standard-form problems with r = 1")
    l, w = p.l, xi.shape[1]
    axi = np.asarray(p.a_sparse().T @ xi)
    exi = xi if p.e is None else np.asarray(p.e_sparse().T @ xi)
    xb = xi.T @ p.b
    # R = C^T C + (A^T Xi)(E^T Xi)^T + (E^T Xi)(A^T Xi)^T - (E^T Xi) Xi^T B B^T Xi (E^T Xi)^T
    mid = np.zeros((l + 2 * w, l + 2 * w))
    mid[:l, :l] = np.eye(l)
    mid[l:l + w, l + w:] = np.eye(w)
    mid[l + w:, l:l + w] = np.eye(w)
    mid[l + w:, l + w:] = -xb @ xb.T
    u = np.hstack([p.c.T, axi, exi])
    r = sla.qr(u, mode="r", overwrite_a=True)[0][: min(u.shape)]
    core = r @ mid @ r.T
    return float(np.abs(np.linalg.eigvalsh(0.5 * (core + core.T))).sum()
                 / np.linalg.norm(p.c) ** 2)


def check_solution(p, xi: np.ndarray, tol: float) -> dict:
    """Independent residual of ``Xi`` and whether it meets ``tol`` plus the floor."""
    dense = p.r > 1
    if dense and p.n > DENSE_GUARD:
        raise ValueError(f"no independent check for r > 1 at n = {p.n} > {DENSE_GUARD}")
    nres = dense_nres(p, xi) if dense else factored_nres(p, xi)
    floor = rounding_floor(p, xi, dense)
    return {
        "method": "dense" if dense else "factored",
        "nres": nres,
        "floor": floor,
        "ok": bool(np.isfinite(nres) and nres <= tol + floor),
    }
