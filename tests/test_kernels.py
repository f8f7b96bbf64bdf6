import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.linalg.lapack import dpstrf
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from scare_radi import kernels
from scare_radi.errors import (
    AssumptionViolationError,
    ConformabilityError,
    ShiftRejectionError,
    SpdViolationError,
)
from scare_radi.kernels import (
    OperatorForms,
    StackedMat,
    add_product,
    chol_spd,
    factor_shifted,
    gram_upper,
    ltimes,
    smw_row_solve,
    trunc_gram,
    trunc_svd,
)
from scare_radi.oracles import ltimes_dense, ltimes_identities_check


def random_conformable_pair(rng):
    """U of shape p x q and V of shape kq x kp, so both products are square."""
    p = int(rng.integers(1, 5))
    q = int(rng.integers(1, 5))
    k = int(rng.integers(1, 4))
    u = rng.standard_normal((p, q))
    v = rng.standard_normal((k * q, k * p))
    return u, v


# ---------------------------------------------------------------------------
# ltimes


def test_ltimes_identity_left_factor():
    m = StackedMat.from_blocks([np.array([[1.0, 2.0], [3.0, 4.0]])])
    out = ltimes(np.eye(2), m)
    np.testing.assert_allclose(out[0], [[1.0, 2.0], [3.0, 4.0]])


def test_ltimes_single_block_is_matrix_product():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2))
    out = ltimes(a, StackedMat.from_blocks([b]))
    assert out.shape == (1, 2, 2)
    np.testing.assert_allclose(out[0], a @ b)


def test_ltimes_dense_kron_expansion():
    # [1 2] applied to a 4x1 operand: 2 divides 4, so (A (x) I_2) B.
    out = ltimes_dense(np.array([[1.0, 2.0]]), np.array([[1.0], [2.0], [3.0], [4.0]]))
    np.testing.assert_allclose(out, [[7.0], [10.0]])


def test_ltimes_matches_dense_oracle_on_stacks():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 5))
    blocks = [rng.standard_normal((5, 4)) for _ in range(3)]
    out = ltimes(x, StackedMat.from_blocks(blocks))
    # The dense definition with interleaved stacking gives the same blocks.
    stacked = np.stack(blocks, axis=1).reshape(15, 4)
    dense = ltimes_dense(x, stacked)
    np.testing.assert_allclose(out.transpose(1, 0, 2).reshape(9, 4), dense, atol=1e-13)


@pytest.mark.parametrize("k", [0, 1, 4])
def test_ltimes_stacked_product_matches_blockwise(k):
    # Nonsymmetric sparse Ahat_i (n x n) and dense Bhat_i (n x m) with
    # ell != n != m, so a transposed block or a reshape in the wrong order
    # shows up as a wrong entry or shape.
    rng = np.random.default_rng(11 + k)
    ell, n, m = 3, 7, 2
    x = rng.standard_normal((ell, n))
    ahat = [sp.random(n, n, density=0.4, format="csc", random_state=rng) + sp.eye(n, k=1)
            for _ in range(k)]
    bhat = [rng.standard_normal((n, m)) for _ in range(k)]
    for blocks, cols in ((ahat, n), (bhat, m)):
        stack = StackedMat.from_blocks(blocks, block_rows=n, block_cols=cols)
        out = ltimes(x, stack)
        assert out.shape == (k, ell, cols)
        dense = [blk.toarray() if sp.issparse(blk) else blk for blk in blocks]
        for i, blk in enumerate(dense):
            np.testing.assert_allclose(out[i], x @ blk, rtol=1e-14, atol=1e-14)
        if k:
            # interleaved row stacking is the dense semi-tensor product's order
            interleaved = np.stack(dense, axis=1).reshape(k * n, cols)
            np.testing.assert_allclose(
                out.transpose(1, 0, 2).reshape(k * ell, cols),
                ltimes_dense(x, interleaved),
                rtol=1e-13, atol=1e-13,
            )


def test_stacked_mat_holds_transposed_blocks():
    rng = np.random.default_rng(5)
    a1 = sp.random(4, 4, density=0.5, format="csc", random_state=rng)
    b1 = rng.standard_normal((4, 2))
    sparse = StackedMat.from_blocks([a1, 2 * a1])
    assert sp.issparse(sparse.stacked) and sparse.stacked.format == "csr"
    expected = np.vstack([a1.T.toarray(), 2 * a1.T.toarray()])
    np.testing.assert_array_equal(sparse.stacked.toarray(), expected)
    dense = StackedMat.from_blocks([b1])
    np.testing.assert_array_equal(dense.stacked, b1.T)
    assert StackedMat.from_blocks([], block_rows=4, block_cols=2).stacked.shape == (0, 4)


def test_stacked_mat_and_operator_forms_are_immutable():
    stack = StackedMat.from_blocks([np.eye(2)])
    ops = OperatorForms.of(sp.identity(3, format="csc"), sp.identity(3, format="csc"))
    for obj, name in ((stack, "blocks"), (stack, "stacked"), (ops, "mass"), (ops, "a")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)


def test_ltimes_dimension_mismatch_names_shapes():
    m = StackedMat.from_blocks([np.zeros((3, 2))])
    with pytest.raises(ConformabilityError, match=r"\(2, 2\).*3 x 2"):
        ltimes(np.zeros((2, 2)), m)


def test_ltimes_empty_stack_passthrough():
    m = StackedMat.from_blocks([], block_rows=4, block_cols=2)
    out = ltimes(np.zeros((3, 4)), m)
    assert out.shape == (0, 3, 2)


def test_stackedmat_rejects_ragged_blocks():
    with pytest.raises(ConformabilityError):
        StackedMat.from_blocks([np.zeros((2, 2)), np.zeros((3, 2))])


# ---------------------------------------------------------------------------
# semi-tensor identities


def test_identities_zero_scalar():
    assert ltimes_identities_check(np.zeros((1, 1)), np.zeros((1, 1))) == 0.0


def test_identities_rank_one():
    rng = np.random.default_rng(42)
    u = rng.standard_normal((2, 1))
    v = rng.standard_normal((1, 2))
    assert ltimes_identities_check(u, v, seed=42) <= 1e-13


def test_identities_smw_explicit_small():
    rng = np.random.default_rng(3)
    u = rng.standard_normal((3, 1))
    v = rng.standard_normal((1, 3))
    dev = ltimes_identities_check(u, v, seed=3, m=np.eye(3), d=np.eye(1))
    assert dev <= 1e-13


def test_identities_200_seeded_instances():
    worst = 0.0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        u, v = random_conformable_pair(rng)
        worst = max(worst, ltimes_identities_check(u, v, seed=seed))
    assert worst <= 1e-11


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_identities_property(seed):
    rng = np.random.default_rng(seed)
    u, v = random_conformable_pair(rng)
    assert ltimes_identities_check(u, v, seed=seed) <= 1e-11


# ---------------------------------------------------------------------------
# shifted solves


def random_stable(n, seed, density=0.05):
    """A random sparse A, made diagonally dominant with a negative diagonal."""
    a = sp.random(n, n, density=density, random_state=seed)
    return sp.csc_matrix(a - sp.diags(np.abs(a).sum(axis=1).A1 + 1.0))


def random_band(n, offsets, seed):
    """A nonsymmetric band matrix with random diagonals at ``offsets`` (0 among them)."""
    rng = np.random.default_rng(seed)
    return sp.diags([rng.uniform(0.5, 1.5, n - abs(k)) for k in offsets], offsets,
                    shape=(n, n), format="csc")


def tridiagonal(n):
    return sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n), format="csc")


def convection_diffusion(n):
    """The 1-D stencil of u'' - 40 u' (unit spacing): a nonsymmetric tridiagonal."""
    return sp.diags([21.0, -2.0, -19.0], [-1, 0, 1], shape=(n, n), format="csc")


def mass(n):
    """The tridiagonal SPD mass matrix of linear elements."""
    return sp.diags([1.0, 4.0, 1.0], [-1, 0, 1], shape=(n, n), format="csc") / 6.0


def stencil_2d(side):
    """The 5-point Laplacian on a side x side grid, built with sp.kron."""
    t, eye = tridiagonal(side), sp.identity(side)
    return sp.csc_matrix(sp.kron(t, eye) + sp.kron(eye, t))


@pytest.mark.parametrize(
    "a, e",
    [
        # Nonsymmetric: a symmetric-definite tridiagonal pencil takes "ldlt".
        (convection_diffusion(50), None),
        (convection_diffusion(50), sp.diags([1.0, 4.0, 1.0], [-1, 0, 1], shape=(50, 50))),
        (sp.diags([1.0, -4.0, 6.0, -4.0, 1.0], [-2, -1, 0, 1, 2], shape=(50, 50)), None),
        (random_band(50, [-3, -1, 0, 1], 1), random_band(50, [0, 2], 2)),
        (stencil_2d(10), None),
        (random_stable(80, 3), None),
    ],
    ids=["tridiagonal", "tridiagonal-mass", "pentadiagonal", "nonsymmetric-band",
         "stencil-2d", "random-sparse"],
)
def test_operator_forms_take_superlu_for_every_other_pattern(a, e):
    # Outside the LDL^T route every pattern, narrow band or not, is factored
    # by SuperLU, from A^T and E^T (I when E is None) in CSC.
    ops = OperatorForms.of(a, e)
    assert ops.route == "superlu"
    e_d = np.eye(a.shape[0]) if e is None else e.toarray()
    for got, want in zip(ops.operands, (a.toarray().T, e_d.T), strict=True):
        assert got.format == "csc"
        np.testing.assert_array_equal(got.toarray(), want)


@pytest.mark.parametrize(
    "a, e, route",
    [
        (tridiagonal(50), None, "ldlt"),
        (tridiagonal(50), mass(50), "ldlt"),
        (sp.diags(-np.arange(1.0, 51.0), format="csc"), None, "ldlt"),
        (tridiagonal(50) + 3.0 * sp.identity(50), None, "superlu"),
        (convection_diffusion(50), None, "superlu"),
        (tridiagonal(50), sp.diags([1.0, 1.5, 1.0], [-1, 0, 1], shape=(50, 50)), "superlu"),
        (tridiagonal(50), convection_diffusion(50) + 60.0 * sp.identity(50), "superlu"),
        (tridiagonal(1), None, "superlu"),
    ],
    ids=["negative-definite", "negative-definite-mass", "diagonal", "indefinite",
         "nonsymmetric", "indefinite-mass", "nonsymmetric-mass", "n1"],
)
def test_operator_forms_take_ldlt_route_for_symmetric_definite_tridiagonals(a, e, route):
    ops = OperatorForms.of(a, e)
    assert ops.route == route
    if route != "ldlt":
        return
    a_d = a.toarray()
    e_d = np.eye(a.shape[0]) if e is None else e.toarray()
    expected = (np.diag(a_d), np.diag(a_d, 1), np.diag(e_d), np.diag(e_d, 1))
    for got, want in zip(ops.operands, expected, strict=True):
        np.testing.assert_array_equal(got, want)
        assert not got.flags.writeable


def test_ldlt_row_solves_match_dense():
    # Nonconstant diagonals, so a slip between A's and E's diagonals or in
    # the sign of the solve cannot cancel out.
    rng = np.random.default_rng(31)
    n, m, gamma = 80, 3, 1.7
    off = rng.uniform(0.5, 1.5, n - 1)
    diag = np.r_[off, 0.0] + np.r_[0.0, off] + rng.uniform(0.1, 1.0, n)  # dominant
    a = sp.diags([off, -diag, off], [-1, 0, 1])
    e = sp.diags([0.2 * off, rng.uniform(1.0, 2.0, n), 0.2 * off], [-1, 0, 1])
    a_d, e_d = a.toarray(), e.toarray()
    b = rng.standard_normal((n, m))
    f = rng.standard_normal((m, n)) / n
    rows = rng.standard_normal((5, n))
    ops = OperatorForms.of(a, e)
    assert ops.route == "ldlt"
    fac = factor_shifted(ops, gamma)
    x, xb = smw_row_solve(fac, b, f, rows)
    assert np.linalg.norm(xb - x @ b) <= 1e-12 * np.linalg.norm(x @ b)
    checks = (
        (fac.row_solve(rows), a_d - gamma * e_d),
        (x, a_d + b @ f - gamma * e_d),
    )
    for out, shifted in checks:
        oracle = sla.solve(shifted.T, rows.T).T
        assert np.linalg.norm(out - oracle) <= 1e-12 * np.linalg.norm(oracle)


@pytest.mark.parametrize("case", ["ldlt", "superlu", "identity"])
def test_mass_matrix_times_and_solve_follow_the_route(case):
    # Nonconstant diagonals on the LDL^T route; a nonsymmetric tridiagonal E
    # on SuperLU; E = None is I.
    rng = np.random.default_rng(17)
    n = 90
    off = rng.uniform(0.1, 0.4, n - 1)
    e = {
        "ldlt": sp.diags([off, rng.uniform(1.0, 2.0, n), off], [-1, 0, 1], format="csc"),
        "superlu": convection_diffusion(n) + 60.0 * sp.identity(n),
        "identity": None,
    }[case]
    ops = OperatorForms.of(tridiagonal(n), e)
    assert ops.route == ("superlu" if case == "superlu" else "ldlt")
    x = rng.standard_normal((6, n))
    u = np.asfortranarray(rng.standard_normal((n, 4)))  # a basis is Fortran-ordered
    got = ops.e_times(x)
    if case == "identity":
        want, e_dense = x, np.eye(n)
    else:
        want, e_dense = np.asarray((e.T @ x.T).T), e.toarray()
    np.testing.assert_array_equal(got, want)
    w = ops.e_solve(u)
    assert np.linalg.norm(e_dense @ w - u) <= 1e-13 * np.linalg.norm(u)


def test_ldlt_route_factors_the_mass_matrix_once(monkeypatch):
    # The LDL^T of E that shows E positive definite is the one E^-1 u uses.
    n = 40
    e = mass(n)
    factored = []
    real_dpttrf = kernels.dpttrf

    def recording_dpttrf(d, o, *args, **kwargs):
        factored.append(np.array(d))
        return real_dpttrf(d, o, *args, **kwargs)

    monkeypatch.setattr(kernels, "dpttrf", recording_dpttrf)
    ops = OperatorForms.of(tridiagonal(n), e)
    assert ops.route == "ldlt"
    assert sum(np.array_equal(d, e.diagonal()) for d in factored) == 1


@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "nonsymmetric"])
def test_singular_mass_matrix_is_rejected_when_operators_are_built(symmetric):
    # A symmetric tridiagonal E with a zero row and column would be on the
    # LDL^T route if it were definite; neither E can be factored.
    n = 30
    e = (mass(n) if symmetric else convection_diffusion(n) + 60.0 * sp.identity(n)).tolil()
    e[7, :] = 0.0
    e[:, 7] = 0.0
    with pytest.raises(AssumptionViolationError, match="singular"):
        OperatorForms.of(tridiagonal(n), sp.csc_matrix(e))


def test_ldlt_route_rejects_a_numerically_singular_shift():
    # -A is the Laplacian of a weighted path, so A is singular; dpttrf still
    # meets a rounding-level positive last pivot, and the pencil takes the
    # LDL^T route.  At gamma = 1e-14 the shifted matrix is singular to
    # rounding too, and there that pivot comes out negative.
    w = np.array([30.0, 0.003, 3.0])
    lap = sp.diags([-w, np.r_[w, 0.0] + np.r_[0.0, w], -w], [-1, 0, 1], format="csc")
    e = 0.01 * sp.diags([-0.4, 1.0, -0.4], [-1, 0, 1], shape=(4, 4), format="csc")
    ops = OperatorForms.of(-lap, e)
    assert ops.route == "ldlt"
    with pytest.raises(ShiftRejectionError, match="not positive"):
        factor_shifted(ops, 1e-14)
    factor_shifted(ops, 1e-3)


def test_smw_zero_feedback_is_plain_solve():
    n = 6
    rng = np.random.default_rng(0)
    a = sp.csc_matrix(np.diag(-np.arange(1.0, n + 1)) + 0.1 * rng.standard_normal((n, n)))
    gamma = 0.7
    fac = factor_shifted(OperatorForms.of(a), gamma)
    shifted = a.toarray() - gamma * np.eye(n)
    rows = np.eye(n)[2:3] @ shifted
    out = smw_row_solve(fac, np.zeros((n, 2)), np.zeros((2, n)), rows)[0]
    np.testing.assert_allclose(out, np.eye(n)[2:3], atol=1e-12)


def test_smw_rank_one_against_dense_inverse():
    a = sp.csc_matrix(np.diag([-1.0, -2.0, -3.0]))
    gamma = 1.0
    b = np.array([[1.0], [0.0], [0.0]])
    f = np.array([[0.0, 1.0, 0.0]])
    fac = factor_shifted(OperatorForms.of(a, sp.identity(3, format="csc")), gamma)
    out = smw_row_solve(fac, b, f, np.eye(3))[0]
    dense = np.linalg.inv(a.toarray() + b @ f - np.eye(3))
    np.testing.assert_allclose(out, dense, atol=1e-13)


def test_smw_matches_dense_lu_n200():
    rng = np.random.default_rng(11)
    n, m = 200, 4
    a = sp.random(n, n, density=0.03, random_state=5)
    a = sp.csc_matrix(a - sp.diags(np.abs(a).sum(axis=1).A1 + 1.0))
    b = rng.standard_normal((n, m))
    f = rng.standard_normal((m, n)) / n
    rows = rng.standard_normal((5, n))
    gamma = 2.3
    fac = factor_shifted(OperatorForms.of(a), gamma)
    out = smw_row_solve(fac, b, f, rows)[0]
    oracle = sla.solve((a.toarray() + b @ f - gamma * np.eye(n)).T, rows.T).T
    assert np.linalg.norm(out - oracle) <= 1e-11 * np.linalg.norm(oracle)


def test_smw_property_random_stable_instances():
    worst = 0.0
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n, m = 150, 3
        a = sp.random(n, n, density=0.05, random_state=seed)
        a = sp.csc_matrix(a - sp.diags(np.abs(a).sum(axis=1).A1 + 0.5))
        b = rng.standard_normal((n, m))
        f = rng.standard_normal((m, n)) / n
        rows = rng.standard_normal((4, n))
        gamma = float(rng.uniform(0.1, 5.0))
        fac = factor_shifted(OperatorForms.of(a), gamma)
        out = smw_row_solve(fac, b, f, rows)[0]
        oracle = sla.solve((a.toarray() + b @ f - gamma * np.eye(n)).T, rows.T).T
        worst = max(worst, np.linalg.norm(out - oracle) / np.linalg.norm(oracle))
    assert worst <= 1e-10


def test_smw_singular_core_rejected():
    # B F chosen so that I + F A_g^-1 B is exactly singular (b0 = 1), or
    # infinite (b0 = inf).
    a = sp.csc_matrix(np.eye(2))
    gamma = 2.0  # A - 2I = -I
    f = np.array([[1.0, 0.0]])  # I + F(-I)B = 1 - b0
    fac = factor_shifted(OperatorForms.of(a), gamma)
    for b0 in (1.0, np.inf):
        with pytest.raises(ShiftRejectionError), np.errstate(invalid="ignore"):
            smw_row_solve(fac, np.array([[b0], [0.0]]), f, np.eye(2))


def test_factor_shifted_singular_matrix_rejected():
    # A - I is zero (A = I, positive definite, so off the LDL^T route) or
    # has a zero row (a random sparse I + S whose row 0 is e_0); both take
    # SuperLU.
    s = random_stable(60, 4, density=0.1).tolil()
    s[0, :] = 0.0
    for a in (sp.identity(3), sp.identity(60) + s):
        ops = OperatorForms.of(a)
        assert ops.route == "superlu"
        with pytest.raises(ShiftRejectionError):
            factor_shifted(ops, 1.0)


@pytest.mark.parametrize(
    "a, route",
    [(random_stable(120, 3), "superlu"), (convection_diffusion(120), "superlu"),
     (tridiagonal(120), "ldlt")],
    ids=["superlu", "superlu-tridiagonal", "ldlt"],
)
def test_factorization_shared_across_threads(a, route):
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(3)
    n = a.shape[0]
    ops = OperatorForms.of(a)
    assert ops.route == route
    fac = factor_shifted(ops, 0.8)
    rows = [rng.standard_normal((3, n)) for _ in range(16)]
    serial = [fac.row_solve(r) for r in rows]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(fac.row_solve, rows))
    for s, t in zip(serial, threaded):
        np.testing.assert_array_equal(s, t)


@pytest.mark.parametrize("a", [tridiagonal(60), convection_diffusion(60)], ids=["ldlt", "superlu"])
@pytest.mark.parametrize("order", ["C", "F"])
def test_row_solves_leave_the_callers_rows_untouched(a, order):
    # On LDL^T a C-ordered rows array is the Fortran-ordered column block
    # that dpttrs could overwrite; only smw_row_solve's own stack may be.
    rng = np.random.default_rng(5)
    n = a.shape[0]
    fac = factor_shifted(OperatorForms.of(a), 0.8)
    rows = np.asarray(rng.standard_normal((4, n)), order=order)
    b, f = rng.standard_normal((n, 2)), rng.standard_normal((2, n)) / n
    inputs = (rows, b, f)
    before = [x.copy() for x in inputs]
    x = fac.row_solve(rows)
    smw_row_solve(fac, b, f, rows)
    for now, then in zip(inputs, before, strict=True):
        np.testing.assert_array_equal(now, then)
    np.testing.assert_array_equal(x, fac.row_solve(rows.copy(), overwrite_rows=True))


def test_row_solves_on_nonsymmetric_a_and_e():
    # A and E nonsymmetric, and E has entries outside A's pattern, so a slip
    # in transposing A or E, or in the solve, cannot cancel out.  The first
    # pair is general sparse; the second is a band with unequal lower and
    # upper bandwidths whose E has bandwidths other than A's.  Both take
    # SuperLU.
    rng = np.random.default_rng(21)
    n, m, gamma = 80, 3, 1.3
    cases = (
        (random_stable(n, 21),
         sp.identity(n) + 0.2 * sp.random(n, n, density=0.04, random_state=22)),
        (random_band(n, [-2, -1, 0, 1], 23) - 5.0 * sp.identity(n),
         random_band(n, [0, 1, 3], 24) + sp.identity(n)),
    )
    for a, e in cases:
        a_d, e_d = a.toarray(), e.toarray()
        assert np.count_nonzero((e_d != 0) & (a_d == 0)) >= n // 2
        assert not np.allclose(a_d, a_d.T) and not np.allclose(e_d, e_d.T)
        b = rng.standard_normal((n, m))
        f = rng.standard_normal((m, n)) / n
        rows = rng.standard_normal((5, n))
        ops = OperatorForms.of(a, e)
        assert ops.route == "superlu"
        fac = factor_shifted(ops, gamma)
        x, xb = smw_row_solve(fac, b, f, rows)
        assert np.linalg.norm(xb - x @ b) <= 1e-12 * np.linalg.norm(x @ b)
        checks = (
            (fac.row_solve(rows), a_d - gamma * e_d),
            (x, a_d + b @ f - gamma * e_d),
        )
        for out, shifted in checks:
            oracle = sla.solve(shifted.T, rows.T).T
            assert np.linalg.norm(out - oracle) <= 1e-12 * np.linalg.norm(oracle)


# ---------------------------------------------------------------------------
# Cholesky


def test_chol_identity():
    np.testing.assert_allclose(chol_spd(np.eye(3)), np.eye(3))


def test_chol_hand_checked_2x2():
    p = chol_spd(np.array([[4.0, 2.0], [2.0, 5.0]]))
    np.testing.assert_allclose(p, [[2.0, 1.0], [0.0, 2.0]])
    np.testing.assert_allclose(p.T @ p, [[4.0, 2.0], [2.0, 5.0]])


def test_chol_gram_reconstruction():
    rng = np.random.default_rng(2)
    y = rng.standard_normal((6, 4))
    m = np.eye(6) + y @ y.T
    p = chol_spd(m)
    assert np.allclose(p, np.triu(p))
    assert np.all(np.diag(p) > 0)
    assert np.linalg.norm(p.T @ p - m) <= 1e-13 * np.linalg.norm(m)


def test_chol_indefinite_reports_pivot():
    m = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(SpdViolationError) as err:
        chol_spd(m)
    assert err.value.pivot_index == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 50))
def test_chol_property_reconstruction(seed, k):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((k, max(1, k // 2)))
    m = np.eye(k) + y @ y.T
    p = chol_spd(m)
    assert np.linalg.norm(p.T @ p - m) <= 1e-13 * np.linalg.norm(m)


# ---------------------------------------------------------------------------
# truncation: SVD through C C^T (wide), pivoted Cholesky of C^T C (tall)

EPS = np.finfo(float).eps


def energy_gap(c, res):
    """| |C|_F^2 - (|factor|_F^2 + discard) |: zero when the energy splits exactly."""
    kept = np.linalg.norm(res.factor) ** 2
    return abs(np.linalg.norm(c) ** 2 - (kept + res.discarded_sq_trace))


def gram_gap_trace(c, res):
    """trace(C^T C - F^T F), the energy the factor leaves out."""
    return np.trace(c.T @ c - res.factor.T @ res.factor)


def pchol_gap_bound(g, factor):
    """Error bound, in the 2-norm, on G - F^T F for the tall route at tau_abs = 0.

    That route stops the pivoted Cholesky P^T G P = R^T R at its first
    nonpositive pivot, rank r, and keeps F = R[:r] P^T.  The computed
    partial factor satisfies |G - F^T F|_2 <= 2 r gamma_{r+1}
    (|W|_2 + 1)^2 |G|_2 + O(u^2) with W = R11^-1 R12 (Higham, "Analysis of
    the Cholesky decomposition of a semi-definite matrix", 1990), so the gap
    grows with the rank and with W, not as a fixed multiple of eps.  Forming
    F^T F here adds at most gamma_r |F|_F^2.
    """
    def gamma(j):  # j u / (1 - j u) for the unit roundoff u = eps / 2
        return j * EPS / (2 - j * EPS)

    _, piv, rank, _ = dpstrf(g, tol=0.0)  # the route's own call at tau_abs = 0
    assert rank == factor.shape[0]
    w = sla.solve_triangular(factor[:, piv[:rank] - 1], factor[:, piv[rank:] - 1])
    w_norm = np.linalg.norm(w, 2) if w.size else 0.0
    return (2 * rank * gamma(rank + 1) * (w_norm + 1) ** 2 * np.linalg.norm(g, 2)
            + gamma(rank) * np.linalg.norm(factor) ** 2)


def test_trunc_svd_zero_input():
    # Wide, empty and tall zero factors keep nothing on either route.
    for p in (3, 0, 7):
        res = trunc_svd(np.zeros((p, 5)), 1.0, cap=3)
        assert res.route == ("tall-pchol" if p > 5 else "gram")
        assert res.rank == 0 and res.factor.shape == (0, 5)
        assert res.discarded_sq_trace == 0.0 and res.cap_discard == 0.0


def test_trunc_svd_diagonal_example():
    c = np.zeros((2, 4))
    c[0, 0] = 3.0
    c[1, 1] = 1.0
    res = trunc_svd(c, tau_abs=1.5, cap=2)
    np.testing.assert_allclose(np.linalg.norm(res.factor, axis=1), [3.0])
    np.testing.assert_allclose(res.discarded_sq_trace, 1.0)


def test_trunc_svd_full_energy_conservation():
    rng = np.random.default_rng(9)
    c = rng.standard_normal((40, 1000))
    res = trunc_svd(c, tau_abs=0.0, cap=40)
    total = np.linalg.norm(c) ** 2
    assert energy_gap(c, res) <= 1e-12 * total
    assert res.discarded_sq_trace <= 1e-12 * total
    # The retained factor reproduces the Gram: C^T C = V Sigma^2 V^T.
    recon = res.factor.T @ res.factor
    assert np.linalg.norm(c.T @ c - recon) <= 1e-10 * total


def test_trunc_svd_cap_moves_overflow_to_discard():
    rng = np.random.default_rng(4)
    c = rng.standard_normal((6, 30))
    res = trunc_svd(c, tau_abs=0.0, cap=2)
    assert res.rank == 2
    assert energy_gap(c, res) <= 1e-12 * np.linalg.norm(c) ** 2
    assert 0.0 < res.cap_discard <= res.discarded_sq_trace


def test_trunc_svd_gram_residual_matches_discard():
    rng = np.random.default_rng(12)
    c = rng.standard_normal((10, 60))
    res = trunc_svd(c, tau_abs=0.5, cap=10)
    assert (
        abs(gram_gap_trace(c, res) - res.discarded_sq_trace)
        <= 1e-12 * np.linalg.norm(c) ** 2
    )


def test_trunc_svd_tall_input_conserves_energy():
    rng = np.random.default_rng(5)
    c = rng.standard_normal((50, 8))
    res = trunc_svd(c, tau_abs=0.0, cap=50)
    assert res.route == "tall-pchol" and res.rank == 8
    assert energy_gap(c, res) <= 1e-12 * np.linalg.norm(c) ** 2


def test_gram_upper_accumulates_signed_grams_of_either_layout():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((9, 6))
    b = np.asfortranarray(rng.standard_normal((4, 6)))
    x = rng.standard_normal((3, 6, 5)).transpose(0, 2, 1)  # Fortran-ordered slices
    g = gram_upper(6, [a, *x, np.zeros((0, 6))], [0.5 * b])
    want = a.T @ a + sum(x_i.T @ x_i for x_i in x) - 0.25 * b.T @ b
    np.testing.assert_allclose(np.triu(g), np.triu(want), rtol=0, atol=1e-13)
    assert not np.tril(g, -1).any() and g.flags.f_contiguous
    with pytest.raises(ConformabilityError):
        gram_upper(6, [a.T])


@pytest.mark.parametrize("order", ["C", "F"])
def test_add_product_accumulates_in_place(order):
    # The shapes of a step's coupling update X_i^T += F_mid^T Shat_i^T: an
    # n x ell target, a transposed view and a C-ordered factor.
    rng = np.random.default_rng(13)
    c0 = rng.standard_normal((30, 11))
    f_mid, sh_i = rng.standard_normal((7, 30)), rng.standard_normal((7, 11))
    c = np.array(c0, order=order)
    assert add_product(c, f_mid.T, sh_i) is c
    np.testing.assert_allclose(c, c0 + f_mid.T @ sh_i, rtol=0, atol=1e-13)
    window = np.s_[2:5] if order == "C" else np.s_[:, 2:5]  # a contiguous view of c
    want = c.copy()
    want[window] += 1.0
    view = c[window]
    out = add_product(view, np.ones((view.shape[0], 1)), np.ones((1, view.shape[1])))
    assert np.shares_memory(out, c)  # no copy: the sum lands in c
    np.testing.assert_array_equal(c, want)


def test_add_product_rejects_a_target_blas_would_copy():
    rng = np.random.default_rng(14)
    a, b = rng.standard_normal((6, 2)), rng.standard_normal((2, 4))
    strided = np.zeros((6, 8))[:, ::2]
    frozen = np.zeros((6, 4))
    frozen.flags.writeable = False
    for c in (strided, np.zeros((6, 4), dtype=np.float32), frozen):
        with pytest.raises(ValueError):
            add_product(c, a, b)
    assert not strided.any()
    with pytest.raises(ConformabilityError):
        add_product(np.zeros((6, 5)), a, b)


def scattered_cholesky_rows(g, tau_abs):
    """The rows R P^T as scattered into a zero matrix, and their energies (the reference)."""
    n = g.shape[0]
    tol = min(n * np.finfo(float).eps * float(np.max(np.diag(g), initial=0.0)), tau_abs / n)
    r, piv, rank, _ = dpstrf(g, tol=tol)
    rows = np.zeros((rank, n))
    rows[:, piv - 1] = np.triu(r[:rank])
    sq = np.einsum("ij,ij->i", rows, rows)
    return rows, np.append(sq, max(float(np.trace(g)) - float(np.sum(sq)), 0.0))


@pytest.mark.parametrize("rank", [40, 13], ids=["full", "deficient"])
def test_pivoted_cholesky_rows_are_the_scatter_in_c_order(rank):
    rng = np.random.default_rng(15)
    c = rng.standard_normal((rank, 40)) * 10.0 ** -np.linspace(0.0, 6.0, 40)
    g = gram_upper(40, [c])
    rows, sq = kernels._pivoted_cholesky_rows(g, 1e-20)
    want_rows, want_sq = scattered_cholesky_rows(g, 1e-20)
    assert (rows.shape[0] < 40) == (rank < 40)  # dpstrf stopped early on the deficient Gram
    assert rows.flags.c_contiguous
    assert rows.tobytes() == want_rows.tobytes() and sq.tobytes() == want_sq.tobytes()


def test_trunc_gram_reads_the_upper_triangle_only():
    # The tall route of trunc_svd is trunc_gram of C^T C, whose lower
    # triangle may hold anything.
    c = np.random.default_rng(12).standard_normal((40, 7)) * 10.0 ** -np.arange(7)
    g = c.T @ c
    g[np.tril_indices(7, -1)] = np.nan
    got, ref = trunc_gram(g, 1e-9, cap=40), trunc_svd(c, 1e-9, cap=40)
    np.testing.assert_array_equal(got.factor, ref.factor)
    assert (got.discarded_sq_trace, got.route) == (ref.discarded_sq_trace, "tall-pchol")


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(2, 40),
    st.sampled_from([2, 5]),
    st.floats(12.0, 16.0),
    st.booleans(),
)
def test_trunc_svd_gram_routes_on_graded_factors(seed, k, ratio, decades, tall):
    # Neither route divides by a singular value, so the kept Gram is accurate
    # to rounding even where the spectrum spans 12-16 decades (a
    # Sigma^-1 U^T C recovery would lose the small directions): to eps |C|^2
    # on the SVD route, within the pivoted Cholesky's error bound on the
    # tall one.
    rng = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(rng.standard_normal((ratio * k, k)))
    q2, _ = np.linalg.qr(rng.standard_normal((k, k)))
    c = (q1 * 10.0 ** -np.linspace(0.0, decades, k)) @ q2.T
    if not tall:
        c = np.ascontiguousarray(c.T)
    p = c.shape[0]
    total = np.linalg.norm(c) ** 2

    res = trunc_svd(c, tau_abs=0.0, cap=p)
    assert res.route == ("tall-pchol" if tall else "gram")
    assert res.factor.shape == (res.rank, c.shape[1])
    assert energy_gap(c, res) <= 1e-12 * total
    g = c.T @ c
    if tall:
        assert np.linalg.norm(g - res.factor.T @ res.factor, 2) <= pchol_gap_bound(g, res.factor)
        return
    assert np.linalg.norm(g - res.factor.T @ res.factor) <= 50 * EPS * total

    # The wide route is an SVD truncation: with a threshold between two of
    # the SVD's tail sums, both drop the same directions.
    sq = np.linalg.svd(c, compute_uv=False) ** 2
    tails = np.append(np.cumsum(sq[::-1])[::-1], 0.0)
    cut = int(rng.integers(1, k))
    tau = np.sqrt(tails[cut] * tails[cut - 1])
    svd_tail = tails[tails <= tau].max()
    cut_res = trunc_svd(c, tau_abs=tau, cap=p)
    assert abs(cut_res.discarded_sq_trace - svd_tail) <= 10 * EPS * total


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(1, 12),
    st.integers(1, 40),
    st.floats(0.0, 10.0),
)
def test_trunc_svd_energy_property(seed, p, n, tau):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((p, n))
    res = trunc_svd(c, tau_abs=tau, cap=p)
    total = np.linalg.norm(c) ** 2
    if res.route == "gram":  # rows are singular directions on the SVD route only
        sigma = np.linalg.norm(res.factor, axis=1)
        assert np.all(np.diff(sigma) <= 1e-10 * np.sqrt(max(total, 1.0)))
        assert np.all(sigma > 0)
    assert energy_gap(c, res) <= 1e-12 * max(total, 1.0)
    assert res.discarded_sq_trace <= tau + 1e-12 * max(total, 1.0) or res.rank == p


def tall_stack(seed, p, n):
    """A p x n Gaussian stack with columns graded over 6 decades."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((p, n)) * 10.0 ** -np.linspace(0.0, 6.0, n)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(2, 40),
    st.integers(1, 4),
    st.floats(-16.0, 0.0),
    st.integers(1, 40),
)
def test_trunc_svd_tall_discard_is_the_gram_gap(seed, n, extra, log_frac, cap):
    # The kept rows R[:k] P^T leave the Schur complement of C^T C, so the
    # discard is the trace of C^T C - F^T F, and it stays within tau unless
    # the row cap binds.
    c = tall_stack(seed, n + extra * n, n)
    total = np.linalg.norm(c) ** 2
    tau = 10.0**log_frac * total
    res = trunc_svd(c, tau_abs=tau, cap=cap)
    assert res.route == "tall-pchol" and res.rank <= cap
    assert abs(gram_gap_trace(c, res) - res.discarded_sq_trace) <= 1e-12 * total
    assert energy_gap(c, res) <= 1e-12 * total
    assert res.discarded_sq_trace <= tau + 1e-12 * total or res.rank == cap
    assert res.cap_discard <= res.discarded_sq_trace + 1e-12 * total
    assert res.cap_discard == 0.0 or res.rank == cap


def test_trunc_svd_tall_cap_overflow_is_counted():
    c = tall_stack(3, 200, 40)
    free = trunc_svd(c, tau_abs=0.0, cap=200)
    capped = trunc_svd(c, tau_abs=0.0, cap=10)
    assert free.cap_discard == 0.0 and capped.rank == 10 < free.rank
    # The capped factor is the free one's leading rows; the rest is counted.
    np.testing.assert_array_equal(capped.factor, free.factor[:10])
    assert capped.cap_discard > 0.0
    total = np.linalg.norm(c) ** 2
    overflow = capped.discarded_sq_trace - free.discarded_sq_trace
    assert abs(overflow - capped.cap_discard) <= 1e-12 * total
    assert abs(gram_gap_trace(c, capped) - capped.discarded_sq_trace) <= 1e-12 * total


def test_trunc_svd_tall_rank_deficient_stack():
    # A 1500 x 300 stack of rank 100 keeps about 100 rows, and they carry
    # its whole Gram.
    rng = np.random.default_rng(7)
    c = rng.standard_normal((1500, 100)) @ rng.standard_normal((100, 300))
    total = np.linalg.norm(c) ** 2
    res = trunc_svd(c, tau_abs=3.33e-15 * total, cap=1500)
    assert res.route == "tall-pchol" and abs(res.rank - 100) <= 2
    assert np.linalg.norm(c.T @ c - res.factor.T @ res.factor) <= 50 * EPS * total
    assert energy_gap(c, res) <= 1e-12 * total


def test_trunc_svd_tall_discard_within_tau_on_steep_grading():
    # Column scales spanning 12 decades leave pivots below LAPACK's default
    # tolerance whose trace alone is several times tau; they must be factored
    # and counted, not discarded whole.
    c = np.random.default_rng(0).standard_normal((1500, 300)) * np.logspace(0, -12, 300)
    total = np.linalg.norm(c) ** 2
    tau = 3.33e-15 * total
    res = trunc_svd(c, tau_abs=tau, cap=1500)
    assert res.route == "tall-pchol" and res.cap_discard == 0.0
    assert res.discarded_sq_trace <= tau
    assert abs(gram_gap_trace(c, res) - res.discarded_sq_trace) <= 1e-12 * total
