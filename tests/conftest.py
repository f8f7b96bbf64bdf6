from contextlib import contextmanager

import numpy as np
import pytest
import scipy.sparse as sp

from scare_radi import engine, kernels
from scare_radi.kernels import StackedMat
from scare_radi.problems import StandardProblem


@pytest.fixture
def scalar_problem():
    """The hand-checkable scalar instance a=-1, b=1, c=1 (solution sqrt(2)-1)."""

    def make(a=-1.0, b=1.0, c=1.0):
        return StandardProblem(
            a=sp.csc_matrix([[a]]),
            b=np.array([[b]]),
            c=np.array([[c]]),
            ahat=StackedMat.from_blocks([], block_rows=1, block_cols=1),
            bhat=StackedMat.from_blocks([], block_rows=1, block_cols=1),
        )

    return make


@contextmanager
def _recording_omega():
    omegas = []

    def recording_svd(stacked, *args, **kwargs):
        # Omega is a square root of the exact discarded Gram C^T C - F^T F;
        # only its Gram is used.  Its rounding-level negative eigenvalues are
        # clamped to 0.
        trunc = kernels.trunc_svd(stacked, *args, **kwargs)
        gap = stacked.T @ stacked - trunc.factor.T @ trunc.factor
        w, v = np.linalg.eigh(0.5 * (gap + gap.T))
        omegas.append(np.sqrt(np.maximum(w, 0.0))[:, None] * v.T)
        return trunc

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "trunc_svd", recording_svd)
        yield omegas


@pytest.fixture(scope="session")
def omega_recorder():
    """``with omega_recorder() as omegas:`` collects the factor each truncation discards.

    Session-scoped and stateless, so hypothesis tests may use it too; each
    ``with`` block patches ``engine.trunc_svd``, the step's one truncation
    (a Gram step truncates nothing), only while it is open.
    """
    return _recording_omega


def symmetric(rng, n, scale=1.0):
    w = rng.standard_normal((n, n))
    return scale * 0.5 * (w + w.T)


def spd(rng, n, scale=1.0):
    w = rng.standard_normal((n, n))
    return scale * (np.eye(n) + w @ w.T / n)
