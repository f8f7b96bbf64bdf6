import numpy as np
import pytest

from scare_radi.errors import OracleFailureError
from scare_radi.oracles import (
    care_schur_solve,
    newton_ref_solve,
    one_step_approximant,
    residual_formula_check,
    validation_corpus,
)
from scare_radi.problems import DenseCoefficients, residual_dense
from scare_radi.testing import random_dense_coefficients, random_standard_problem

SQRT2 = np.sqrt(2.0)


def scalar_coefficients(a=-1.0, b=1.0, c=1.0):
    return DenseCoefficients(
        a=np.array([[a]]), b=np.array([[b]]), c=np.array([[c]]), ahat=[], bhat=[]
    )


# ---------------------------------------------------------------------------
# Newton reference


def test_newton_zero_output_is_zero_solution():
    co = DenseCoefficients(
        a=np.array([[-1.0]]), b=np.array([[1.0]]), c=np.zeros((0, 1)), ahat=[], bhat=[]
    )
    sol = newton_ref_solve(co)
    np.testing.assert_array_equal(sol.x, np.zeros((1, 1)))
    assert sol.iterations <= 1


def test_newton_scalar_root():
    sol = newton_ref_solve(scalar_coefficients())
    np.testing.assert_allclose(sol.x, [[SQRT2 - 1.0]], atol=1e-13)


def test_newton_random_r3_residual_and_psd():
    p = random_standard_problem(n=20, m=2, l=2, r=3, seed=0)
    sol = newton_ref_solve(p)
    assert sol.residual <= 1e-12
    x = sol.x
    np.testing.assert_allclose(x, x.T, atol=1e-12 * np.linalg.norm(x))
    eigs = np.linalg.eigvalsh(x)
    assert eigs.min() >= -1e-10 * np.linalg.norm(x)


def test_newton_residual_decreases_after_first_step():
    p = random_standard_problem(n=15, m=2, l=2, r=2, seed=3)
    co = p.dense_coefficients()
    # re-run while recording residuals
    import scipy.linalg as sla

    x = np.zeros((15, 15))
    hist = []
    for _ in range(8):
        res = residual_dense(co, x)
        hist.append(np.linalg.norm(res))
        if hist[-1] <= 1e-13 * np.linalg.norm(co.c.T @ co.c):
            break
        from scare_radi.oracles import _frechet_matrix

        delta = sla.solve(_frechet_matrix(co, x), -res.flatten(order="F"))
        dx = delta.reshape((15, 15), order="F")
        x = x + 0.5 * (dx + dx.T)
    assert all(b < a * (1 + 1e-12) for a, b in zip(hist[1:], hist[2:]))


def test_newton_guard():
    p = random_standard_problem(n=8, m=1, l=1, r=1, seed=0)
    co = p.dense_coefficients()
    import dataclasses

    big = dataclasses.replace(
        co,
        a=-np.eye(100),
        b=np.ones((100, 1)),
        c=np.ones((1, 100)),
        ahat=[],
        bhat=[],
    )
    with pytest.raises(Exception, match="guard"):
        newton_ref_solve(big)


# ---------------------------------------------------------------------------
# Schur reference


def test_schur_scalar():
    sol = care_schur_solve([[-1.0]], [[1.0]], [[1.0]])
    np.testing.assert_allclose(sol.x, [[SQRT2 - 1.0]], atol=1e-13)


def test_schur_decoupled_identity():
    sol = care_schur_solve(-np.eye(2), np.eye(2), np.eye(2))
    np.testing.assert_allclose(sol.x, (SQRT2 - 1.0) * np.eye(2), atol=1e-13)


def test_schur_agrees_with_newton_n50():
    p = random_standard_problem(n=50, m=2, l=2, r=1, seed=1)
    co = p.dense_coefficients()
    xn = newton_ref_solve(co).x
    xs = care_schur_solve(co.a, co.b, co.c).x
    assert np.linalg.norm(xn - xs) <= 1e-10 * np.linalg.norm(xs)


def test_schur_imaginary_axis_fails():
    # Hamiltonian of (A, B=0, C=0) with A = [[0, 1], [-1, 0]] has all
    # eigenvalues on the imaginary axis.
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(OracleFailureError):
        care_schur_solve(a, np.zeros((2, 1)), np.zeros((1, 2)))


# ---------------------------------------------------------------------------
# residual formula validation


def test_formula_zero_output_deviation_zero():
    co = DenseCoefficients(
        a=np.array([[-1.0]]), b=np.array([[1.0]]), c=np.zeros((1, 1)), ahat=[], bhat=[]
    )
    assert residual_formula_check(co, 1.0) == 0.0


def test_formula_scalar_hand_evaluation():
    # a=-1, b=c=1, gamma=1: X = 2/5, residual(2/5) = 1/25, factor = 1/5.
    co = scalar_coefficients()
    x, c_g, y = one_step_approximant(co, 1.0)
    np.testing.assert_allclose(x, [[0.4]], atol=1e-15)
    np.testing.assert_allclose(y, [[-0.5]], atol=1e-15)
    np.testing.assert_allclose(residual_dense(co, x), [[0.04]], atol=1e-15)
    top = co.c + np.sqrt(2.0) * (c_g / (1 + y[0, 0] ** 2))
    np.testing.assert_allclose(top, [[0.2]], atol=1e-14)
    assert residual_formula_check(co, 1.0) <= 1e-13


def test_formula_random_instance():
    co = random_dense_coefficients(n=40, m=2, l=2, r=3, seed=11)
    assert residual_formula_check(co, 0.7) <= 1e-11


@pytest.mark.parametrize("gamma", [0.1, 1.0, 10.0])
def test_formula_small_corpus(gamma):
    worst = 0.0
    for seed in range(6):
        co = random_dense_coefficients(n=20, m=2, l=2, r=1 + seed % 4, seed=seed)
        worst = max(worst, residual_formula_check(co, gamma))
    assert worst <= 1e-10


def test_validation_corpus_shape():
    items = list(validation_corpus())
    assert len(items) == 100
    assert max(n for _, n, _, _ in items) == 200
    assert max(r for _, _, r, _ in items) == 5
