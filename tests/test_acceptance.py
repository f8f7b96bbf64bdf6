"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single PASS line with its headline numbers (visible with
``pytest -v -s`` or in failure output).  Runtime budgets are asserted with
the criterion.
"""

import os
import time
from pathlib import Path

import numpy as np

from scare_radi.bench import (
    ExperimentConfig,
    gen_heat_problem,
    load_problem,
    run_grid,
    with_noise_blocks,
)
from scare_radi.engine import (
    SolveOptions,
    init_state,
    radi_solve,
    step_once,
)
from scare_radi.kernels import OperatorForms, factor_shifted, smw_row_solve
from scare_radi.oracles import (
    alg1_init,
    alg1_step,
    care_schur_solve,
    incorporation_residual_dense,
    ltimes_identities_check,
    newton_ref_solve,
    residual_formula_check,
    validation_corpus,
)
from scare_radi.problems import (
    DenseCoefficients,
    OriginalProblem,
    adapt_in_place,
    residual_dense,
)
from scare_radi.shifts import ShiftConfig
from scare_radi.testing import random_dense_coefficients, random_standard_problem

import scipy.linalg as sla
import scipy.sparse as sp


def _report(num, detail):
    print(f"\nACCEPTANCE {num} PASS: {detail}")


def _conformable_pair(rng):
    p = int(rng.integers(1, 5))
    q = int(rng.integers(1, 5))
    k = int(rng.integers(1, 4))
    return rng.standard_normal((p, q)), rng.standard_normal((k * q, k * p))


def test_criterion_01_semi_tensor_identities():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        u, v = _conformable_pair(rng)
        worst = max(worst, ltimes_identities_check(u, v, seed=seed))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-11
    assert elapsed < 5.0
    _report(1, f"200 instances, max deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_residual_formula_corpus():
    t0 = time.perf_counter()
    # exact hand-checked scalar case: residual(2/5) = 1/25 = (1/5)^2
    co = DenseCoefficients(
        a=np.array([[-1.0]]), b=np.array([[1.0]]), c=np.array([[1.0]]), ahat=[], bhat=[]
    )
    from scare_radi.oracles import one_step_approximant

    x, _, _ = one_step_approximant(co, 1.0)
    np.testing.assert_allclose(x, [[0.4]], atol=1e-15)
    np.testing.assert_allclose(residual_dense(co, x), [[1.0 / 25.0]], atol=1e-15)
    assert residual_formula_check(co, 1.0) <= 1e-13

    worst = 0.0
    for idx, n, r, gamma in validation_corpus():
        inst = random_dense_coefficients(n=n, m=2, l=2, r=r, seed=idx)
        worst = max(worst, residual_formula_check(inst, gamma))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 60.0
    _report(2, f"100 instances (n<=200, r<=5), max deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_incorporation_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        n = (10, 20, 30, 40)[seed % 4]
        r = 1 + seed % 4
        p = random_standard_problem(n=n, m=2, l=2, r=r, seed=seed)
        rng = np.random.default_rng(10_000 + seed)
        w = rng.standard_normal((n, n))
        x = 0.3 * (np.eye(n) + w @ w.T / n)
        d = rng.standard_normal((n, n))
        d = 0.3 * (d + d.T)
        lhs = incorporation_residual_dense(p, x, d)
        rhs = residual_dense(p, x + d)
        worst = max(worst, np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 30.0
    _report(3, f"50 pairs (n<=40, r<=4), max deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_prototype_equivalence_ten_steps():
    t0 = time.perf_counter()
    shifts = [2.0, 0.9, 3.5, 1.2, 0.6, 2.7, 1.8, 1.1, 0.8, 2.2]
    worst = 0.0
    # 20 seeded instances; the dense prototype's residual factor grows by a
    # factor r each step, so the 10-step corpus stays at r <= 2 (see ledger).
    for seed in range(20):
        r = 1 + seed % 2
        n = (20, 40, 60)[seed % 3]
        ell = 2 if r == 1 else 1
        p = random_standard_problem(n=n, m=2, l=ell, r=r, seed=seed)
        st = init_state(p)
        proto = alg1_init(p)
        opts = SolveOptions(trunc_rel=1e-300, cap_cols=10**6)
        for g in shifts:
            st, _ = step_once(p, st, g, opts)
            proto = alg1_step(proto, g)
            x1 = proto.x
            x2 = st.xi @ st.xi.T
            worst = max(worst, np.linalg.norm(x1 - x2) / np.linalg.norm(x1))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 60.0
    _report(4, f"20 instances x 10 steps, max X deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_05_truncated_bookkeeping(omega_recorder):
    t0 = time.perf_counter()
    shifts = [2.0, 0.9, 3.5, 1.2, 0.6, 2.7, 1.8]
    worst = 0.0
    fired = 0
    for seed in range(6):
        n = (40, 50, 60)[seed % 3]
        r = (2, 3)[seed % 2]
        p = random_standard_problem(n=n, m=2, l=3, r=r, seed=seed)
        opts = SolveOptions(trunc_rel=1e-6)
        st = init_state(p)
        with omega_recorder() as omegas:
            for g in shifts:
                st, _ = step_once(p, st, g, opts)
                lhs = residual_dense(p, st.xi @ st.xi.T)
                rhs = st.ccur.T @ st.ccur
                for om in omegas:
                    rhs = rhs + om.T @ om
                worst = max(worst, np.linalg.norm(lhs - rhs) / st.nu0)
        fired += st.nu_omega > 0
    elapsed = time.perf_counter() - t0
    assert fired == 6  # the tolerance actually forced truncation everywhere
    assert worst <= 1e-9
    assert elapsed < 60.0
    _report(5, f"6 runs, truncation active, max identity deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_06_oracle_agreement():
    t0 = time.perf_counter()
    worst_newton = 0.0
    for seed in range(10):
        n = (30, 40, 50)[seed % 3]
        r = 2 + seed % 2
        p = random_standard_problem(n=n, m=2, l=2, r=r, seed=100 + seed)
        st, rep = radi_solve(p, SolveOptions(shift=ShiftConfig("hamiltonian", 1, "cached")))
        assert rep.converged
        x_ref = newton_ref_solve(p).x
        dev = np.linalg.norm(st.xi @ st.xi.T - x_ref) / np.linalg.norm(x_ref)
        worst_newton = max(worst_newton, dev)
    worst_schur = 0.0
    for seed in range(5):
        p = random_standard_problem(n=100, m=2, l=2, r=1, seed=200 + seed)
        st, rep = radi_solve(p, SolveOptions(shift=ShiftConfig("hamiltonian", 1, "cached")))
        assert rep.converged
        co = p.dense_coefficients()
        x_ref = care_schur_solve(co.a, co.b, co.c).x
        dev = np.linalg.norm(st.xi @ st.xi.T - x_ref) / np.linalg.norm(x_ref)
        worst_schur = max(worst_schur, dev)
    elapsed = time.perf_counter() - t0
    assert worst_newton <= 1e-8
    assert worst_schur <= 1e-8
    assert elapsed < 120.0
    _report(
        6,
        f"vs Newton (10 runs) {worst_newton:.2e}, vs Schur (5 runs) {worst_schur:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_07_smw_vs_dense():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = (100, 200, 300)[seed % 3]
        m = 1 + seed % 4
        a = sp.random(n, n, density=0.03, random_state=seed)
        a = sp.csc_matrix(a - sp.diags(np.abs(a).sum(axis=1).A1 + 0.5))
        b = rng.standard_normal((n, m))
        f = rng.standard_normal((m, n)) / n
        rows = rng.standard_normal((4, n))
        gamma = float(rng.uniform(0.1, 5.0))
        out, _ = smw_row_solve(factor_shifted(OperatorForms.of(a), gamma), b, f, rows)
        oracle = sla.solve((a.toarray() + b @ f - gamma * np.eye(n)).T, rows.T).T
        worst = max(worst, np.linalg.norm(out - oracle) / np.linalg.norm(oracle))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 30.0
    _report(7, f"50 instances (n<=300), max deviation {worst:.2e}, {elapsed:.1f}s")


def _rail_dir():
    cand = os.environ.get("SCARE_RADI_RAIL_DIR")
    if cand and Path(cand).is_dir():
        return Path(cand)
    local = Path(__file__).resolve().parent.parent / "data" / "rail_1357"
    return local if local.is_dir() else None


def test_criterion_08_desk_scale_convergence():
    t0 = time.perf_counter()
    rail = _rail_dir()
    opts = SolveOptions(shift=ShiftConfig("hamiltonian", 1, "cached"))
    if rail is not None:
        p = load_problem(rail)
        if isinstance(p, OriginalProblem):
            p = adapt_in_place(p)
        label = f"rail {rail}"
    else:
        p = gen_heat_problem(1357, 7, 6, seed=0)
        label = "synthetic diffusion n=1357"
    st, rep = radi_solve(p, opts)
    elapsed = time.perf_counter() - t0
    assert rep.converged and rep.final_nres < 1e-12
    assert rep.iterations <= 300
    if rail is not None:
        # reference bands only apply on the real benchmark data
        assert rep.iterations <= 120
        assert rep.xi_width <= 4 * 228
    assert elapsed < 60.0
    _report(
        8,
        f"{label}: {rep.iterations} iterations, width {rep.xi_width}, "
        f"nres {rep.final_nres:.2e}, {elapsed:.1f}s",
    )


def test_criterion_09_stochastic_desk_scale():
    t0 = time.perf_counter()
    # Damped spectrum keeps the synthetic instance mean-square stabilizable
    # under the 1e-2 multiplicative noise (see ledger); the row cap is lifted
    # so compression is governed by the energy criterion alone.
    base = gen_heat_problem(1357, 7, 6, seed=0, scale=100.0, damping=100.0)
    p5 = with_noise_blocks(base, [1e-5, 1e-4, 1e-3, 1e-2], seed=100)
    assert p5.r == 5
    st, rep = radi_solve(
        p5,
        SolveOptions(shift=ShiftConfig("hamiltonian", 1, "cached"), cap_cols=1500),
    )
    elapsed = time.perf_counter() - t0
    assert rep.converged and rep.final_nres < 1e-12
    assert rep.iterations <= 300
    assert elapsed < 600.0
    _report(
        9,
        f"n=1357 r=5: {rep.iterations} iterations, width {rep.xi_width}, "
        f"nres {rep.final_nres:.2e}, truncation debt {st.nu_omega / st.nu0:.1e}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_10_grid_determinism(monkeypatch):
    cfg = ExperimentConfig(
        generate={"kind": "heat", "n": 80, "m": 2, "l": 2, "scale": 60.0, "damping": 30.0},
        r_cases=[1, 2],
        noise_scales=[1e-4, 1e-3],
        variants=[("hamiltonian", 1, "cached"), ("projection", 2, "per_iteration")],
        seed=7,
    )
    first = [r.numeric_content() for r in run_grid(cfg)]
    second = [r.numeric_content() for r in run_grid(cfg)]
    monkeypatch.setenv("SCARE_RADI_THREADS", "3")
    third = [r.numeric_content() for r in run_grid(cfg)]
    assert first == second == third
    _report(10, f"{len(first)} grid cells identical across repeated and threaded runs")
