import json
from pathlib import Path

import numpy as np
import pytest
import scipy.io as sio
import scipy.sparse as sp

from scare_radi.bench import (
    ALL_SHIFT_VARIANTS,
    ExperimentConfig,
    gen_heat_problem,
    gen_noise_blocks,
    load_problem,
    run_grid,
    run_single,
    solve_options_for,
    variant_label,
    with_noise_blocks,
)
from scare_radi.cli import main
from scare_radi.errors import ProblemLoadError
from scare_radi.problems import OriginalProblem, StandardProblem
from scare_radi.report import CSV_COLUMNS
from scare_radi.testing import random_original_problem, random_standard_problem


def write_problem_dir(path, p: StandardProblem, with_e=False):
    sio.mmwrite(path / "A.mtx", sp.coo_matrix(p.a))
    sio.mmwrite(path / "B.mtx", p.b)
    sio.mmwrite(path / "C.mtx", p.c)
    if with_e and p.e is not None:
        sio.mmwrite(path / "E.mtx", sp.coo_matrix(p.e))
    for i, (ai, bi) in enumerate(zip(p.ahat.blocks, p.bhat.blocks), start=1):
        sio.mmwrite(path / f"A{i}.mtx", sp.coo_matrix(ai))
        sio.mmwrite(path / f"B{i}.mtx", bi)


# ---------------------------------------------------------------------------
# loading


def test_load_standard_r1(tmp_path):
    p = random_standard_problem(n=12, m=2, l=3, r=1, seed=0)
    write_problem_dir(tmp_path, p)
    loaded = load_problem(tmp_path)
    assert isinstance(loaded, StandardProblem)
    assert loaded.r == 1 and loaded.e is None
    np.testing.assert_allclose(loaded.b, p.b)


def test_load_generalized(tmp_path):
    p = random_standard_problem(n=10, m=2, l=2, r=1, seed=1, with_e=True)
    write_problem_dir(tmp_path, p, with_e=True)
    loaded = load_problem(tmp_path)
    assert loaded.is_generalized
    np.testing.assert_allclose(loaded.e.toarray(), p.e.toarray())


def test_load_stochastic_blocks_infer_r(tmp_path):
    p = random_standard_problem(n=10, m=2, l=2, r=3, seed=2)
    write_problem_dir(tmp_path, p)
    loaded = load_problem(tmp_path)
    assert loaded.r == 3


def test_load_original_with_weights(tmp_path):
    orig = random_original_problem(n=10, m=2, l=2, r=2, seed=3)
    std = StandardProblem(
        a=orig.a_list[0], b=orig.b_list[0], c=orig.c0,
        ahat=__import__("scare_radi.kernels", fromlist=["StackedMat"]).StackedMat.from_blocks(
            orig.a_list[1:], block_rows=10, block_cols=10),
        bhat=__import__("scare_radi.kernels", fromlist=["StackedMat"]).StackedMat.from_blocks(
            orig.b_list[1:], block_rows=10, block_cols=2),
    )
    write_problem_dir(tmp_path, std)
    sio.mmwrite(tmp_path / "L.mtx", orig.l)
    sio.mmwrite(tmp_path / "R.mtx", orig.r_weight)
    loaded = load_problem(tmp_path)
    assert isinstance(loaded, OriginalProblem)
    np.testing.assert_allclose(loaded.r_weight, orig.r_weight)


def test_load_missing_mandatory_file_names_it(tmp_path):
    p = random_standard_problem(n=8, m=1, l=1, r=1, seed=4)
    write_problem_dir(tmp_path, p)
    (tmp_path / "B.mtx").unlink()
    with pytest.raises(ProblemLoadError, match="B.mtx"):
        load_problem(tmp_path)


def test_load_dimension_mismatch(tmp_path):
    p = random_standard_problem(n=8, m=1, l=1, r=1, seed=5)
    write_problem_dir(tmp_path, p)
    sio.mmwrite(tmp_path / "B.mtx", np.ones((5, 1)))
    with pytest.raises(ProblemLoadError, match="dimension"):
        load_problem(tmp_path)


def test_load_non_spd_weight(tmp_path):
    p = random_standard_problem(n=8, m=2, l=1, r=1, seed=6)
    write_problem_dir(tmp_path, p)
    sio.mmwrite(tmp_path / "L.mtx", np.zeros((8, 2)))
    sio.mmwrite(tmp_path / "R.mtx", np.diag([1.0, -1.0]))
    with pytest.raises(ProblemLoadError, match="positive definite"):
        load_problem(tmp_path)


# ---------------------------------------------------------------------------
# generators


def test_noise_blocks_zero_scale():
    p = gen_heat_problem(20, 2, 2, seed=0)
    a1, b1 = gen_noise_blocks(p.a, p.b, 0.0, seed=1)
    assert a1.nnz == 0 or not np.any(a1.toarray())
    assert not np.any(b1)


def test_noise_blocks_norm_bound_and_pattern():
    p = gen_heat_problem(50, 3, 2, seed=0)
    ns = 1e-5
    a1, b1 = gen_noise_blocks(p.a, p.b, ns, seed=2)
    assert sp.linalg.norm(a1) <= ns * sp.linalg.norm(sp.csc_matrix(p.a)) * (1 + 1e-12)
    assert np.linalg.norm(b1) <= ns * np.linalg.norm(p.b) * (1 + 1e-12)
    base_pat = set(zip(*sp.coo_matrix(p.a).coords))
    noise_pat = set(zip(*sp.coo_matrix(a1).coords))
    assert noise_pat <= base_pat


def test_noise_blocks_deterministic():
    p = gen_heat_problem(30, 2, 2, seed=0)
    a1, b1 = gen_noise_blocks(p.a, p.b, 1e-3, seed=7)
    a2, b2 = gen_noise_blocks(p.a, p.b, 1e-3, seed=7)
    assert (a1 != a2).nnz == 0
    np.testing.assert_array_equal(b1, b2)


def test_noise_blocks_density_subsampling():
    p = gen_heat_problem(200, 2, 2, seed=0)
    full, _ = gen_noise_blocks(p.a, p.b, 1.0, density=1.0, seed=8)
    thin, _ = gen_noise_blocks(p.a, p.b, 1.0, density=0.2, seed=8)
    assert thin.nnz < full.nnz


def test_heat_problem_spectrum_and_dims():
    p = gen_heat_problem(3, 1, 1, seed=0)
    eigs = np.linalg.eigvalsh(p.a.toarray())
    assert np.all(eigs < 0)
    p = gen_heat_problem(50, 7, 6, seed=0)
    assert (p.n, p.m, p.l, p.r) == (50, 7, 6, 1)
    np.testing.assert_allclose(np.linalg.norm(p.b, axis=0), 1.0)
    np.testing.assert_allclose(np.linalg.norm(p.c, axis=1), 1.0)


def test_heat_problem_deterministic():
    p1 = gen_heat_problem(30, 2, 2, seed=9)
    p2 = gen_heat_problem(30, 2, 2, seed=9)
    np.testing.assert_array_equal(p1.b, p2.b)
    np.testing.assert_array_equal(p1.c, p2.c)


def test_heat_problem_damping_shifts_spectrum():
    p = gen_heat_problem(20, 1, 1, seed=0, scale=10.0, damping=5.0)
    eigs = np.linalg.eigvalsh(p.a.toarray())
    assert eigs.max() <= -5.0 + 1e-12


def test_with_noise_blocks_builds_r5():
    base = gen_heat_problem(40, 2, 2, seed=0)
    p5 = with_noise_blocks(base, [1e-5, 1e-4, 1e-3, 1e-2], seed=0)
    assert p5.r == 5


# ---------------------------------------------------------------------------
# grid and reports


def small_grid_config(tmp_path=None):
    return ExperimentConfig(
        generate={"kind": "heat", "n": 60, "m": 2, "l": 2, "scale": 50.0, "damping": 20.0},
        r_cases=[1, 2],
        noise_scales=[1e-4, 1e-3],
        variants=[("hamiltonian", 1, "cached"), ("projection", 1, "per_iteration")],
        seed=3,
        output_dir=None if tmp_path is None else str(tmp_path),
    )


def test_variant_labels():
    assert variant_label("hamiltonian", 1, "cached") == "hami 1"
    assert variant_label("hamiltonian", 2, "per_iteration") == "hami c 2"
    assert variant_label("projection", 5, "cached") == "proj 5"
    assert len(ALL_SHIFT_VARIANTS) == 12


def test_grid_runs_all_cells_and_is_deterministic(tmp_path):
    cfg = small_grid_config()
    reports1 = run_grid(cfg)
    reports2 = run_grid(cfg)
    assert len(reports1) == 3 * 2  # (r1, r2 x 2 scales) x 2 variants
    for r1, r2 in zip(reports1, reports2):
        assert r1.numeric_content() == r2.numeric_content()
    assert all(r.converged for r in reports1)


def test_grid_parallel_matches_serial(tmp_path, monkeypatch):
    cfg = small_grid_config()
    serial = run_grid(cfg)
    monkeypatch.setenv("SCARE_RADI_THREADS", "4")
    parallel = run_grid(cfg)
    for r1, r2 in zip(serial, parallel):
        assert r1.numeric_content() == r2.numeric_content()


def test_grid_writes_outputs(tmp_path):
    cfg = small_grid_config(tmp_path)
    reports = run_grid(cfg)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert len(summary) == len(reports)
    csvs = sorted(tmp_path.glob("*.csv"))
    assert len(csvs) == len(reports)
    header = csvs[0].read_text().splitlines()[0].split(",")
    assert header == CSV_COLUMNS


def test_report_nres_history_matches_rows(tmp_path):
    p = random_standard_problem(n=25, m=2, l=2, r=2, seed=20)
    cfg = ExperimentConfig()
    opts = solve_options_for(cfg, "hamiltonian", 1, "cached")
    report = run_single(p, opts, "unit", tmp_path)
    data = json.loads((tmp_path / "unit.json").read_text())
    assert data["converged"] is True
    assert [row["nres"] for row in data["rows"]] == report.nres_history
    assert data["rows"][0]["nres"] == 1.0


# ---------------------------------------------------------------------------
# CLI


def test_cli_solve_generate(tmp_path, capsys):
    rc = main([
        "solve", "--generate", "heat:n=80,m=2,l=2", "--shift", "hami",
        "--window", "1", "--mode", "cached", "--out", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "converged" in out
    assert list(tmp_path.glob("*.csv"))
    # The five trace categories follow the status line, each with its share.
    lines = out.splitlines()
    status = next(i for i, line in enumerate(lines) if "converged" in line)
    cats = [line.split() for line in lines[status + 1:status + 6]]
    assert [c[0] for c in cats] == ["t_shift", "t_solve", "t_ltimes", "t_svd", "t_other"]
    assert abs(sum(float(c[2].rstrip("%")) for c in cats) - 100.0) <= 0.5


def test_cli_solve_problem_dir_with_noise(tmp_path, capsys):
    pdir = tmp_path / "prob"
    pdir.mkdir()
    write_problem_dir(pdir, gen_heat_problem(50, 2, 2, seed=0, scale=40.0, damping=20.0))
    rc = main([
        "solve", "--problem", str(pdir), "--noise", "1e-4,1e-3", "--r", "3",
        "--shift", "proj", "--mode", "per-iter",
    ])
    assert rc == 0
    assert "converged" in capsys.readouterr().out


def test_cli_grid(tmp_path, capsys):
    cfg = {
        "generate": {"kind": "heat", "n": 50, "m": 2, "l": 2, "scale": 40.0, "damping": 20.0},
        "r_cases": [1],
        "variants": [["hamiltonian", 1, "cached"]],
        "seed": 1,
    }
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["grid", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert "0 without convergence" in capsys.readouterr().out


def test_cli_rejects_conflicting_sources():
    with pytest.raises(SystemExit):
        main(["solve", "--problem", "x", "--generate", "heat:n=10,m=1,l=1"])


def test_cli_generate_accepts_float_fields(capsys):
    rc = main([
        "solve", "--generate", "heat:n=60,m=2,l=2,scale=40.0,damping=20",
        "--noise", "1e-4", "--cap-cols", "200",
    ])
    assert rc == 0
    assert "converged" in capsys.readouterr().out


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"tol": 1e-10, "truncation": 1.0}))
    with pytest.raises(ValueError, match="truncation"):
        ExperimentConfig.from_json(path)


def test_heat200_grid_config_file():
    # The checked-in n=200 grid: the synthetic heat problem on a damped
    # spectrum, all twelve shift variants, a residual row cap and a width guard.
    path = Path(__file__).resolve().parents[1] / "scripts" / "grid_heat200.json"
    assert ExperimentConfig.from_json(path) == ExperimentConfig(
        generate={"kind": "heat", "n": 200, "m": 7, "l": 6, "scale": 100.0, "damping": 100.0},
        variants=list(ALL_SHIFT_VARIANTS),
        tol=1e-12,
        max_iter=300,
        cap_cols=1500,
        max_cols_xi=50_000,
        seed=0,
    )


def test_grid_r3_uses_first_two_scales():
    cfg = small_grid_config()
    cfg.r_cases = [3]
    cfg.variants = [("hamiltonian", 1, "cached")]
    reports = run_grid(cfg)
    assert len(reports) == 1
    assert reports[0].label.startswith("r3__")
    assert reports[0].converged


def test_generalized_desk_scale_converges():
    # mass-matrix variant of the desk problem, small enough for CI
    p = gen_heat_problem(400, 4, 3, seed=0, mass_matrix=True)
    from scare_radi.engine import SolveOptions, radi_solve
    from scare_radi.shifts import ShiftConfig

    _, rep = radi_solve(p, SolveOptions(shift=ShiftConfig("hamiltonian", 1, "cached")))
    assert rep.converged and rep.final_nres < 1e-12
