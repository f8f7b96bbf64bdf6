"""Seeded generators for verification corpora.

All generators make the drift strictly diagonally dominant with negative
diagonal, so it is stable by Gershgorin and the zero matrix is an admissible
Newton start.  Stochastic blocks are scaled-down random sparse matrices, which
keeps the closed-loop mean-square operator stable for the moderate noise
levels used in tests.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .kernels import StackedMat
from .problems import DenseCoefficients, OriginalProblem, StandardProblem

__all__ = [
    "random_stable_sparse",
    "random_standard_problem",
    "random_dense_coefficients",
    "random_original_problem",
]


def random_stable_sparse(n: int, seed: int, density: float | None = None) -> sp.csc_matrix:
    """Sparse drift with eigenvalues in the open left half-plane."""
    rng = np.random.default_rng(seed)
    density = density if density is not None else min(1.0, 4.0 / max(n, 1))
    a = sp.random(n, n, density=density, random_state=rng, data_rvs=lambda k: rng.uniform(-1, 1, k))
    rowsum = np.asarray(abs(a).sum(axis=1)).ravel()
    return sp.csc_matrix(a - sp.diags(rowsum + 0.5 + rng.uniform(0.0, 1.0, n)))


def _noise_blocks(a, b, r, noise, rng):
    n, m = b.shape
    ahat, bhat = [], []
    for _ in range(r - 1):
        mask = sp.random(n, n, density=min(1.0, 2.0 / max(n, 1)), random_state=rng)
        ahat.append(sp.csc_matrix(noise * mask))
        bhat.append(noise * rng.standard_normal((n, m)))
    return ahat, bhat


def random_standard_problem(
    n: int,
    m: int,
    l: int,
    r: int,
    seed: int,
    noise: float = 5e-2,
    with_e: bool = False,
) -> StandardProblem:
    rng = np.random.default_rng(seed)
    a = random_stable_sparse(n, seed)
    b = rng.standard_normal((n, m)) / np.sqrt(n)
    c = rng.standard_normal((l, n)) / np.sqrt(n)
    ahat, bhat = _noise_blocks(a, b, r, noise, rng)
    e = None
    if with_e:
        d = 1.0 + rng.uniform(0.0, 1.0, n)
        off = 0.1 * rng.uniform(0.0, 1.0, n - 1)
        e = sp.csc_matrix(sp.diags([off, d, off], [-1, 0, 1]))
    return StandardProblem(
        a=a,
        b=b,
        c=c,
        ahat=StackedMat.from_blocks(ahat, block_rows=n, block_cols=n),
        bhat=StackedMat.from_blocks(bhat, block_rows=n, block_cols=m),
        e=e,
    )


def random_dense_coefficients(
    n: int, m: int, l: int, r: int, seed: int, noise: float = 5e-2
) -> DenseCoefficients:
    p = random_standard_problem(n, m, l, r, seed, noise=noise)
    return p.dense_coefficients()


def random_original_problem(
    n: int,
    m: int,
    l: int,
    r: int,
    seed: int,
    noise: float = 5e-2,
    with_l: bool = True,
    with_e: bool = False,
) -> OriginalProblem:
    rng = np.random.default_rng(seed + 77)
    a = random_stable_sparse(n, seed)
    b = rng.standard_normal((n, m)) / np.sqrt(n)
    c0 = rng.standard_normal((l, n)) / np.sqrt(n)
    ahat, bhat = _noise_blocks(a, b, r, noise, rng)
    lmat = 0.1 * rng.standard_normal((n, m)) / np.sqrt(n) if with_l else np.zeros((n, m))
    w = rng.standard_normal((m, m))
    r_weight = np.eye(m) + 0.5 * (w @ w.T) / m
    e = None
    if with_e:
        d = 1.0 + rng.uniform(0.0, 1.0, n)
        e = sp.csc_matrix(sp.diags(d))
    return OriginalProblem(
        a_list=[a, *ahat],
        b_list=[b, *bhat],
        c0=c0,
        l=lmat,
        r_weight=r_weight,
        e=e,
    )
