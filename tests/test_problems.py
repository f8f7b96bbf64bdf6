import numpy as np
import pytest
import scipy.sparse as sp

from scare_radi.errors import AssumptionViolationError, ConformabilityError
from scare_radi.kernels import StackedMat
from scare_radi.oracles import (
    feedback_original,
    incorporation_residual_dense,
    newton_ref_solve,
    standardize,
)
from scare_radi.problems import (
    OriginalProblem,
    StandardProblem,
    adapt_in_place,
    feedback_dense,
    residual_dense,
)
from scare_radi.testing import random_original_problem, random_standard_problem

from conftest import spd, symmetric


def scalar_original(a0=-1.0, b0=1.0, c0=1.0, l=0.0, r=4.0):
    return OriginalProblem(
        a_list=[sp.csc_matrix([[a0]])],
        b_list=[np.array([[b0]])],
        c0=np.array([[c0]]),
        l=np.array([[l]]),
        r_weight=np.array([[r]]),
    )


# ---------------------------------------------------------------------------
# standardize / adapt_in_place


def test_standardize_trivial_weights_keeps_coefficients():
    orig = random_original_problem(n=10, m=2, l=2, r=3, seed=0, with_l=False)
    orig.r_weight = np.eye(2)
    std = standardize(orig)
    np.testing.assert_allclose(std.a.toarray(), orig.a_list[0].toarray())
    np.testing.assert_allclose(std.b, orig.b_list[0])
    for blk, ai in zip(std.ahat.blocks, orig.a_list[1:]):
        np.testing.assert_allclose(blk.toarray(), ai.toarray())
    assert not np.any(std.f0)
    np.testing.assert_allclose(std.kpi0, np.eye(2))


def test_standardize_scalar_input_scaling():
    std = standardize(scalar_original())
    # P = 2 from R = 4, so B = B0 / 2.
    np.testing.assert_allclose(std.b, [[0.5]])


def test_standardize_rejects_indefinite_weight():
    orig = scalar_original(r=-1.0)
    with pytest.raises(AssumptionViolationError, match="positive definite"):
        standardize(orig)


@pytest.mark.parametrize("setup", [adapt_in_place, standardize])
def test_weight_setups_reject_nonsymmetric_weight(setup):
    # Cholesky reads only R's upper triangle, so a nonsymmetric R would
    # silently stand for the weight of that triangle.
    orig = random_original_problem(20, 2, 2, 1, seed=0)
    orig.r_weight[0, 1] += 0.5
    with pytest.raises(AssumptionViolationError, match="not symmetric"):
        setup(orig)


def test_adapter_trivial_weights_is_identity_setup():
    orig = random_original_problem(n=10, m=2, l=2, r=3, seed=1, with_l=False)
    orig.r_weight = np.eye(2)
    adapted = adapt_in_place(orig)
    assert not np.any(adapted.f0)
    np.testing.assert_allclose(adapted.kpi0, np.eye(2))
    for blk, ai in zip(adapted.ahat.blocks, orig.a_list[1:]):
        np.testing.assert_allclose(blk.toarray(), ai.toarray())


def test_adapter_scalar_cholesky_seed():
    adapted = adapt_in_place(scalar_original())
    np.testing.assert_allclose(adapted.kpi0, [[2.0]])


def test_routes_share_residual_operator():
    orig = random_original_problem(n=15, m=2, l=2, r=3, seed=3)
    std, adapted = standardize(orig), adapt_in_place(orig)
    rng = np.random.default_rng(0)
    x = spd(rng, 15, scale=0.1)
    np.testing.assert_allclose(
        residual_dense(std, x), residual_dense(adapted, x), atol=1e-12
    )


def test_route_equivalence_of_solutions():
    orig = random_original_problem(n=15, m=2, l=2, r=2, seed=5)
    x_std = newton_ref_solve(standardize(orig)).x
    x_adp = newton_ref_solve(adapt_in_place(orig)).x
    assert np.linalg.norm(x_std - x_adp) <= 1e-9 * np.linalg.norm(x_std)


def test_oracle_solution_zeroes_both_formulations():
    orig = random_original_problem(n=20, m=2, l=2, r=3, seed=7)
    std = standardize(orig)
    x = newton_ref_solve(std).x
    scale = np.linalg.norm(std.c.T @ std.c)
    assert np.linalg.norm(residual_dense(std, x)) <= 1e-10 * scale
    assert np.linalg.norm(residual_dense(adapt_in_place(orig), x)) <= 1e-10 * scale


@pytest.mark.parametrize("eps", [1e-10, 1e-6])
def test_routes_agree_for_near_identity_weight(eps):
    # R = (1+eps)^2 I gives the adapter Kpi0 = (1+eps) I, which the dense
    # evaluator must fold in even though it is within allclose of I.
    orig = random_original_problem(n=12, m=2, l=2, r=2, seed=1, with_l=False)
    orig.r_weight = (1.0 + eps) ** 2 * np.eye(2)
    std = standardize(orig)
    x = newton_ref_solve(std).x
    scale = np.linalg.norm(std.c.T @ std.c)
    dev = residual_dense(adapt_in_place(orig), x) - residual_dense(std, x)
    assert np.linalg.norm(dev) <= 1e-14 * scale


# ---------------------------------------------------------------------------
# residual_dense


def test_residual_at_zero_is_output_gram():
    p = random_standard_problem(n=12, m=2, l=3, r=2, seed=0)
    np.testing.assert_array_equal(residual_dense(p, np.zeros((12, 12))), p.c.T @ p.c)


def test_residual_scalar_root(scalar_problem):
    p = scalar_problem()
    x = np.array([[np.sqrt(2.0) - 1.0]])
    assert abs(residual_dense(p, x)[0, 0]) <= 1e-14


def test_residual_generalized_matches_reduced_form():
    # With nonsingular E, the residual is the E-congruence of the reduced
    # standard problem's residual at the same X.
    p = random_standard_problem(n=10, m=2, l=2, r=3, seed=2, with_e=True)
    co = p.dense_coefficients()
    e = co.e
    einv = np.linalg.inv(e)
    from scare_radi.problems import DenseCoefficients

    reduced = DenseCoefficients(
        a=co.a @ einv,
        b=co.b,
        c=co.c @ einv,
        ahat=[ah @ einv for ah in co.ahat],
        bhat=co.bhat,
    )
    rng = np.random.default_rng(3)
    x = spd(rng, 10, scale=0.2)
    lhs = residual_dense(p, x)
    rhs = e.T @ residual_dense(reduced, x) @ e
    assert np.linalg.norm(lhs - rhs) <= 1e-11 * np.linalg.norm(lhs)


# ---------------------------------------------------------------------------
# feedback


def test_feedback_zero_state(scalar_problem):
    p = random_standard_problem(n=9, m=3, l=2, r=2, seed=4)
    np.testing.assert_array_equal(feedback_dense(p, np.zeros((9, 9))), np.zeros((3, 9)))


def test_feedback_scalar_value(scalar_problem):
    p = scalar_problem()
    x = np.array([[np.sqrt(2.0) - 1.0]])
    np.testing.assert_allclose(feedback_dense(p, x), [[1.0 - np.sqrt(2.0)]])


def test_feedback_original_composes_initialization():
    orig = random_original_problem(n=10, m=2, l=2, r=2, seed=6)
    adapted = adapt_in_place(orig)
    rng = np.random.default_rng(1)
    x = spd(rng, 10, scale=0.1)
    fhat = feedback_dense(adapted, x)
    expected = adapted.f0 + np.linalg.solve(adapted.kpi0, fhat)
    np.testing.assert_allclose(feedback_original(adapted, x), expected, atol=1e-13)


# ---------------------------------------------------------------------------
# incorporation


def test_incorporation_zero_increment():
    p = random_standard_problem(n=10, m=2, l=2, r=3, seed=0)
    rng = np.random.default_rng(0)
    x = spd(rng, 10, scale=0.1)
    np.testing.assert_allclose(
        incorporation_residual_dense(p, x, np.zeros((10, 10))),
        residual_dense(p, x),
        atol=1e-12,
    )


def test_incorporation_at_zero_base():
    p = random_standard_problem(n=10, m=2, l=2, r=2, seed=1)
    rng = np.random.default_rng(1)
    d = symmetric(rng, 10, scale=0.3)
    np.testing.assert_allclose(
        incorporation_residual_dense(p, np.zeros((10, 10)), d),
        residual_dense(p, d),
        atol=1e-12,
    )


def test_incorporation_identity_random():
    p = random_standard_problem(n=25, m=2, l=2, r=2, seed=2)
    rng = np.random.default_rng(2)
    x = spd(rng, 25, scale=0.2)
    d = symmetric(rng, 25, scale=0.2)
    lhs = incorporation_residual_dense(p, x, d)
    rhs = residual_dense(p, x + d)
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_incorporation_identity_property_sweep():
    worst = 0.0
    for seed in range(20):
        n = 10 + (seed % 4) * 10
        r = 1 + seed % 4
        p = random_standard_problem(n=n, m=2, l=2, r=r, seed=seed)
        rng = np.random.default_rng(1000 + seed)
        x = spd(rng, n, scale=0.3)
        d = symmetric(rng, n, scale=0.3)
        lhs = incorporation_residual_dense(p, x, d)
        rhs = residual_dense(p, x + d)
        worst = max(worst, np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))
    assert worst <= 1e-9


# ---------------------------------------------------------------------------
# container validation


def test_standard_problem_shape_validation():
    with pytest.raises(ConformabilityError):
        StandardProblem(
            a=sp.identity(4, format="csc"),
            b=np.zeros((3, 2)),  # wrong row count
            c=np.zeros((1, 4)),
            ahat=StackedMat.from_blocks([], block_rows=4, block_cols=4),
            bhat=StackedMat.from_blocks([], block_rows=4, block_cols=2),
        )


def test_original_problem_requires_matching_lists():
    with pytest.raises(ConformabilityError):
        OriginalProblem(
            a_list=[sp.identity(3, format="csc")],
            b_list=[],
            c0=np.zeros((1, 3)),
            l=np.zeros((3, 1)),
            r_weight=np.eye(1),
        )


def test_dense_guard():
    p = random_standard_problem(n=8, m=1, l=1, r=1, seed=0)
    big = sp.identity(4000, format="csc")
    q = StandardProblem(
        a=-big,
        b=np.ones((4000, 1)),
        c=np.ones((1, 4000)),
        ahat=StackedMat.from_blocks([], block_rows=4000, block_cols=4000),
        bhat=StackedMat.from_blocks([], block_rows=4000, block_cols=1),
    )
    with pytest.raises(ConformabilityError, match="guarded"):
        residual_dense(q, np.zeros((4000, 4000)))
    del p
