import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st_h

from scare_radi import engine, shifts
from scare_radi.bench import gen_heat_problem, with_noise_blocks
from scare_radi.engine import (
    SolveOptions,
    init_state,
    nres_trace,
    radi_solve,
    step_once,
)
from scare_radi.errors import (
    DegenerateProblemError,
    NoProgressError,
    NumericalBreakdownError,
    ShiftRejectionError,
)
from scare_radi.kernels import StackedMat
from scare_radi.oracles import (
    alg1_init,
    alg1_step,
    care_schur_solve,
    newton_ref_solve,
    one_step_approximant,
)
from scare_radi.problems import StandardProblem, adapt_in_place, residual_dense
from scare_radi.shifts import ShiftConfig
from scare_radi.testing import random_original_problem, random_standard_problem

SQRT2 = np.sqrt(2.0)
NO_TRUNC = dict(trunc_rel=1e-300, cap_cols=10**6)
SHIFTS = [2.0, 0.9, 3.5, 1.2, 0.6, 2.7, 1.8, 1.1, 0.8, 2.2]


def x_of(state):
    return state.xi @ state.xi.T


# ---------------------------------------------------------------------------
# step mechanics


def test_scalar_one_step_at_optimal_shift(scalar_problem):
    p = scalar_problem()
    st = init_state(p)
    st, scratch = step_once(p, st, SQRT2)
    np.testing.assert_allclose(x_of(st), [[SQRT2 - 1.0]], atol=1e-14)
    assert nres_trace(st) <= 1e-25
    assert scratch.gamma == SQRT2


def test_zero_feedback_step_reduces_to_plain_shifted_solve():
    p = random_standard_problem(n=20, m=2, l=2, r=2, seed=0)
    st = init_state(p)
    gamma = 1.7
    _, scratch = step_once(p, st, gamma, SolveOptions(**NO_TRUNC))
    a = p.a_sparse().toarray()
    expected = np.sqrt(2 * gamma) * np.linalg.solve(
        (a - gamma * np.eye(20)).T, p.c.T
    ).T
    np.testing.assert_allclose(scratch.c_gamma, expected, atol=1e-12)


def test_first_step_gram_is_one_step_approximant():
    p = random_standard_problem(n=25, m=2, l=3, r=2, seed=1)
    st = init_state(p)
    gamma = 1.3
    st, _ = step_once(p, st, gamma, SolveOptions(**NO_TRUNC))
    x_ref, _, _, _ = one_step_approximant(p.dense_coefficients(), gamma)
    assert np.linalg.norm(x_of(st) - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


def test_singular_smw_core_rejects_shift(scalar_problem):
    # a=-1, b=c=1, f0=2 at gamma=1: I + F (A - I)^-1 B = 1 + 2 * (-1/2) = 0.
    p = scalar_problem()
    p.f0 = np.array([[2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", sla.LinAlgWarning)
        with pytest.raises(ShiftRejectionError):
            step_once(p, init_state(p), 1.0)
    with pytest.raises(NoProgressError):
        radi_solve(p, SolveOptions(shift_sequence=[1.0]))


@pytest.mark.parametrize("sequence", [[1.0, 0.5], [0.5, 1.0]])
def test_replay_retries_next_shift_after_rejection(sequence):
    # A - 1.0*I is exactly singular, so every attempt at 1.0 is rejected.
    p = StandardProblem(
        a=sp.csc_matrix(np.diag([1.0, -2.0, -3.0, -4.0])),
        b=np.ones((4, 1)),
        c=np.ones((1, 4)),
        ahat=StackedMat.from_blocks([], block_rows=4, block_cols=4),
        bhat=StackedMat.from_blocks([], block_rows=4, block_cols=1),
    )
    _, report = radi_solve(p, SolveOptions(shift_sequence=sequence))
    assert report.converged
    assert {row.gamma for row in report.rows[1:]} == {0.5}


def test_per_iteration_retry_takes_next_candidate(monkeypatch):
    p = random_standard_problem(n=30, m=2, l=2, r=2, seed=20)
    attempts = {}

    def rejecting_step(p, st, gamma, opts=None):
        attempts.setdefault(st.k, []).append(gamma)
        if st.k == 1 and len(attempts[1]) == 1:
            raise ShiftRejectionError("rejected once for the test")
        return step_once(p, st, gamma, opts)

    monkeypatch.setattr(engine, "step_once", rejecting_step)
    _, report = radi_solve(
        p, SolveOptions(shift=ShiftConfig("hamiltonian", 2, "per_iteration"))
    )
    assert report.converged
    rejected, retried = attempts[1]
    assert retried != rejected
    assert report.rows[2].gamma == retried


def test_cached_solve_factors_e_once(monkeypatch):
    p = random_standard_problem(n=40, m=2, l=2, r=2, seed=13, with_e=True)
    factored, projections = [], []
    real_splu, real_hami = shifts.splu, shifts.hamiltonian_shifts

    def counting_splu(m, *args, **kwargs):
        factored.append(m.shape)
        return real_splu(m, *args, **kwargs)

    def counting_hami(*args, **kwargs):
        projections.append(1)
        return real_hami(*args, **kwargs)

    monkeypatch.setattr(shifts, "splu", counting_splu)
    monkeypatch.setattr(shifts, "hamiltonian_shifts", counting_hami)
    _, report = radi_solve(p, SolveOptions(shift=ShiftConfig("hamiltonian", 1, "cached")))
    assert report.converged
    assert len(projections) >= 2
    assert len(factored) == 1


def test_overflowing_solve_raises_breakdown():
    # The noise at 1e-1 on the undamped stencil admits no stabilizing
    # solution: the iterates grow until their residual overflows.
    base = gen_heat_problem(200, 7, 6, seed=0)
    p = with_noise_blocks(base, [1e-1], seed=100)
    with pytest.raises(NumericalBreakdownError):
        radi_solve(p, SolveOptions(shift=ShiftConfig("hamiltonian", 1, "cached")))


def test_r1_step_leaves_kpi_bit_identical():
    p = adapt_in_place(random_original_problem(n=20, m=2, l=2, r=1, seed=3))
    st = init_state(p)
    kpi0 = st.kpi.copy()
    assert not np.array_equal(kpi0, np.eye(2))  # a nontrivial accumulator seed
    for g in SHIFTS[:3]:
        st, _ = step_once(p, st, g)
    assert st.kpi.tobytes() == kpi0.tobytes()


def test_xi_buffer_grows_and_matches_hstack(monkeypatch):
    p = random_standard_problem(n=30, m=2, l=2, r=1, seed=19)
    blocks, capacities = [], set()

    def recording_step(*args, **kwargs):
        st, scratch = step_once(*args, **kwargs)
        blocks.append(st.s_history[-1].copy())
        capacities.add(st.xi_buf.shape[0])
        return st, scratch

    monkeypatch.setattr(engine, "step_once", recording_step)
    st, report = radi_solve(p, SolveOptions(**NO_TRUNC, shift_sequence=SHIFTS, max_iter=12))
    assert len(capacities) >= 4  # the buffer grew at least three times
    assert st.xi.flags["C_CONTIGUOUS"]
    assert st.xi.shape == (p.n, st.xi_width) == (p.n, report.xi_width)
    assert st.xi.tobytes() == np.hstack([s.T for s in blocks]).tobytes()


def test_step_counter_and_width_growth():
    p = random_standard_problem(n=15, m=2, l=2, r=3, seed=2)
    st = init_state(p)
    opts = SolveOptions(**NO_TRUNC)
    widths = []
    for g in SHIFTS[:4]:
        st, _ = step_once(p, st, g, opts)
        widths.append(st.xi_width)
    assert st.k == 4
    assert all(b > a for a, b in zip(widths, widths[1:]))


def test_step_rejects_nonpositive_shift():
    p = random_standard_problem(n=8, m=1, l=1, r=1, seed=0)
    with pytest.raises(ValueError):
        step_once(p, init_state(p), -1.0)


# ---------------------------------------------------------------------------
# exact bookkeeping


@pytest.mark.parametrize("r,with_e", [(1, False), (2, False), (4, False), (2, True)])
def test_exact_residual_bookkeeping_without_truncation(r, with_e):
    p = random_standard_problem(n=30, m=2, l=2, r=r, seed=3, with_e=with_e)
    st = init_state(p)
    opts = SolveOptions(**NO_TRUNC)
    for g in SHIFTS[:6]:
        st, _ = step_once(p, st, g, opts)
        lhs = residual_dense(p, x_of(st))
        rhs = st.ccur.T @ st.ccur
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * st.nu0


@settings(max_examples=25, deadline=None)
@given(
    st_h.integers(0, 10_000),
    st_h.integers(1, 4),
    st_h.floats(0.1, 20.0),
    st_h.booleans(),
)
def test_bookkeeping_property_single_steps(omega_recorder, seed, r, gamma, with_e):
    p = random_standard_problem(n=14, m=2, l=2, r=r, seed=seed, with_e=with_e)
    st = init_state(p)
    opts = SolveOptions(trunc_rel=1e-9)
    with omega_recorder() as omegas:
        for g in (gamma, 0.5 * gamma + 0.3):
            st, _ = step_once(p, st, g, opts)
    lhs = residual_dense(p, x_of(st))
    rhs = st.ccur.T @ st.ccur
    for om in omegas:
        rhs = rhs + om.T @ om
    assert np.linalg.norm(lhs - rhs) <= 1e-9 * st.nu0


def test_residual_bookkeeping_with_truncation_debt(omega_recorder):
    p = random_standard_problem(n=40, m=2, l=3, r=3, seed=4)
    opts = SolveOptions(trunc_rel=1e-6)
    st = init_state(p)
    with omega_recorder() as omegas:
        for g in SHIFTS[:6]:
            st, _ = step_once(p, st, g, opts)
            lhs = residual_dense(p, x_of(st))
            rhs = st.ccur.T @ st.ccur
            for om in omegas:
                rhs = rhs + om.T @ om
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * st.nu0
    assert st.nu_omega > 0  # truncation actually fired at this tolerance
    recorded = sum(np.linalg.norm(om) ** 2 for om in omegas)
    assert abs(recorded - st.nu_omega) <= 1e-9 * st.nu0


def test_nu_omega_monotone_and_width_bounded():
    p = random_standard_problem(n=30, m=2, l=2, r=3, seed=5)
    cap = 12
    opts = SolveOptions(trunc_rel=1e-8, cap_cols=cap)
    st = init_state(p)
    debt = [0.0]
    for g in SHIFTS[:6]:
        st, _ = step_once(p, st, g, opts)
        debt.append(st.nu_omega)
        assert st.ccur.shape[0] <= cap
    assert all(b >= a for a, b in zip(debt, debt[1:]))
    assert st.xi_width <= 6 * cap


# ---------------------------------------------------------------------------
# prototype equivalence


@pytest.mark.parametrize("r,steps", [(1, 10), (2, 8), (3, 5)])
def test_prototype_matches_engine(r, steps):
    p = random_standard_problem(n=30, m=2, l=2, r=r, seed=6)
    st = init_state(p)
    proto = alg1_init(p)
    opts = SolveOptions(**NO_TRUNC)
    for g in SHIFTS[:steps]:
        st, _ = step_once(p, st, g, opts)
        proto = alg1_step(proto, g)
        x1, x2 = proto.x, x_of(st)
        assert np.linalg.norm(x1 - x2) <= 1e-10 * np.linalg.norm(x1)


@pytest.mark.parametrize("ell", [1, 3])
def test_prototype_matches_engine_r5(ell):
    # m = 7: with ell = 1 the first step has (r-1) ell = 4 < m stacked coupling
    # rows (square Q in the thin QR), later steps and ell = 3 have more than m.
    p = random_standard_problem(n=40, m=7, l=ell, r=5, seed=8)
    st = init_state(p)
    proto = alg1_init(p)
    opts = SolveOptions(**NO_TRUNC)
    for g in SHIFTS[:3]:
        st, _ = step_once(p, st, g, opts)
        proto = alg1_step(proto, g)
        x1, x2 = proto.x, x_of(st)
        assert np.linalg.norm(x1 - x2) <= 1e-10 * np.linalg.norm(x1)
        lhs = residual_dense(p, x2)
        assert np.linalg.norm(lhs - st.ccur.T @ st.ccur) <= 1e-10 * st.nu0


def test_prototype_scalar_first_step(scalar_problem):
    proto = alg1_init(scalar_problem())
    proto = alg1_step(proto, SQRT2)
    np.testing.assert_allclose(proto.x, [[SQRT2 - 1.0]], atol=1e-14)


def test_prototype_first_step_is_one_step_approximant():
    p = random_standard_problem(n=20, m=2, l=2, r=2, seed=7)
    proto = alg1_init(p)
    gamma = 0.9
    proto = alg1_step(proto, gamma)
    x_ref, _, _, _ = one_step_approximant(p.dense_coefficients(), gamma)
    assert np.linalg.norm(proto.x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


def test_prototype_rejects_generalized_problems():
    p = random_standard_problem(n=10, m=1, l=1, r=1, seed=0, with_e=True)
    with pytest.raises(ValueError):
        alg1_init(p)


# ---------------------------------------------------------------------------
# nres_trace


def test_engine_feedback_tracks_original_coordinates():
    # The accumulated feedback equals the original-coordinates feedback at
    # the accumulated iterate: F = F0 + Kpi0^-1 Fhat(X).
    from scare_radi.problems import adapt_in_place, feedback_original
    from scare_radi.testing import random_original_problem

    orig = random_original_problem(n=25, m=2, l=2, r=3, seed=42)
    p = adapt_in_place(orig)
    st = init_state(p)
    opts = SolveOptions(**NO_TRUNC)
    for g in SHIFTS[:6]:
        st, _ = step_once(p, st, g, opts)
    fb = feedback_original(p, x_of(st))
    assert np.linalg.norm(fb - st.f) <= 1e-10 * max(np.linalg.norm(fb), 1.0)


def test_nres_is_one_at_start():
    p = random_standard_problem(n=12, m=2, l=2, r=2, seed=8)
    assert nres_trace(init_state(p)) == 1.0


def test_nres_degenerate_signal():
    p = random_standard_problem(n=12, m=2, l=2, r=2, seed=8)
    p.c[:] = 0.0
    st = init_state(p)
    with pytest.raises(DegenerateProblemError):
        nres_trace(st)


def test_nres_upper_bounds_dense_trace_norm():
    p = random_standard_problem(n=30, m=2, l=2, r=2, seed=9)
    opts = SolveOptions(trunc_rel=1e-7)
    st = init_state(p)
    for g in SHIFTS[:5]:
        st, _ = step_once(p, st, g, opts)
    dense_trace = float(np.trace(residual_dense(p, x_of(st))))
    assert nres_trace(st) * st.nu0 >= dense_trace - 1e-9 * st.nu0


# ---------------------------------------------------------------------------
# full solve


def test_degenerate_tolerance_converges_in_zero_iterations():
    p = random_standard_problem(n=10, m=2, l=2, r=2, seed=10)
    _, report = radi_solve(p, SolveOptions(tol_nres=1.0))
    assert report.converged
    assert report.iterations == 0


def test_zero_output_returns_immediately():
    p = random_standard_problem(n=10, m=2, l=2, r=2, seed=10)
    p.c[:] = 0.0
    st, report = radi_solve(p, SolveOptions())
    assert report.converged
    assert report.iterations == 0
    assert st.xi_width == 0


def test_solve_converges_and_matches_newton():
    p = random_standard_problem(n=40, m=2, l=2, r=3, seed=11)
    st, report = radi_solve(
        p, SolveOptions(shift=ShiftConfig("hamiltonian", 1, "cached"))
    )
    assert report.converged
    x_ref = newton_ref_solve(p).x
    assert np.linalg.norm(x_of(st) - x_ref) <= 1e-8 * np.linalg.norm(x_ref)


def test_solve_r1_matches_schur_reference():
    p = random_standard_problem(n=60, m=2, l=2, r=1, seed=12)
    st, report = radi_solve(
        p, SolveOptions(shift=ShiftConfig("hamiltonian", 1, "cached"))
    )
    assert report.converged
    co = p.dense_coefficients()
    x_ref = care_schur_solve(co.a, co.b, co.c).x
    assert np.linalg.norm(x_of(st) - x_ref) <= 1e-8 * np.linalg.norm(x_ref)


def test_solve_generalized_converges():
    p = random_standard_problem(n=40, m=2, l=2, r=2, seed=13, with_e=True)
    st, report = radi_solve(
        p, SolveOptions(shift=ShiftConfig("projection", 2, "per_iteration"))
    )
    assert report.converged
    res = residual_dense(p, x_of(st))
    assert np.trace(res) <= 1.1e-12 * st.nu0


def test_solve_report_consistency():
    p = random_standard_problem(n=30, m=2, l=2, r=2, seed=14)
    st, report = radi_solve(p, SolveOptions())
    assert report.rows[0].nres == 1.0
    assert report.final_nres == report.rows[-1].nres
    assert report.iterations == len(report.rows) - 1
    assert report.xi_width == st.xi_width
    # per-iteration nres equals the recomputed engine history on replay
    gammas = [row.gamma for row in report.rows[1:]]
    st2 = init_state(p)
    opts = SolveOptions()
    for g, row in zip(gammas, report.rows[1:]):
        st2, _ = step_once(p, st2, g, opts)
        assert nres_trace(st2) == row.nres


def test_solve_replay_shift_sequence_deterministic():
    p = random_standard_problem(n=25, m=2, l=2, r=2, seed=15)
    opts = SolveOptions(shift_sequence=SHIFTS, max_iter=12)
    _, rep1 = radi_solve(p, opts)
    _, rep2 = radi_solve(p, opts)
    assert rep1.numeric_content() == rep2.numeric_content()


def test_solve_width_cap_sets_flag():
    p = random_standard_problem(n=30, m=2, l=3, r=3, seed=16)
    _, report = radi_solve(p, SolveOptions(max_cols_xi=20, max_iter=50))
    assert report.flags == "m"
    assert report.xi_width >= 20


def test_solve_stall_rule_sets_flag():
    # Loose truncation accumulates debt that the stall rule must detect:
    # the kept factor shrinks below tolerance while the total residual
    # (including debt) stays above it.
    p = random_standard_problem(n=40, m=2, l=2, r=2, seed=17)
    _, report = radi_solve(
        p,
        SolveOptions(
            tol_nres=1e-10,
            trunc_rel=3e-8,
            stop_on_stall=True,
            shift=ShiftConfig("hamiltonian", 1, "cached"),
        ),
    )
    assert report.flags == "t"
    assert not report.converged
    assert report.final_nres > 1e-10


def test_solve_timing_rows_sum_to_iteration_totals():
    p = random_standard_problem(n=25, m=2, l=2, r=2, seed=18)
    _, report = radi_solve(p, SolveOptions(max_iter=8))
    for row in report.rows[1:]:
        assert row.t_other >= 0.0
        assert row.t_solve >= 0.0 and row.t_svd >= 0.0
