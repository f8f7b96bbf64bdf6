import argparse
import csv
import json
import os
import platform
import re
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.io as sio
import scipy.sparse as sp

from scare_radi import bench, cli
from scare_radi.bench import (
    ALL_SHIFT_VARIANTS,
    ExperimentConfig,
    gen_heat_problem,
    gen_noise_blocks,
    grid_cells,
    load_problem,
    run_grid,
    run_single,
    variant_label,
    with_noise_blocks,
)
from scare_radi.cli import main
from scare_radi.engine import SolveOptions
from scare_radi.errors import (
    AssumptionViolationError,
    NoProgressError,
    NumericalBreakdownError,
    ProblemLoadError,
)
from scare_radi.problems import OriginalProblem, StandardProblem, adapt_in_place
from scare_radi.report import CSV_COLUMNS, TIMING_FIELDS, IterationRecord
from scare_radi.shifts import ShiftConfig
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


def write_weighted_dir(path, r_weight):
    write_problem_dir(path, random_standard_problem(n=8, m=2, l=1, r=1, seed=6))
    sio.mmwrite(path / "L.mtx", np.zeros((8, 2)))
    sio.mmwrite(path / "R.mtx", r_weight)


def test_load_non_spd_weight(tmp_path):
    # The loader leaves R to the adapter, which factors it.
    write_weighted_dir(tmp_path, np.diag([1.0, -1.0]))
    with pytest.raises(AssumptionViolationError, match="positive definite"):
        adapt_in_place(load_problem(tmp_path))
    with pytest.raises(SystemExit, match="invalid solve input: .*positive definite") as info:
        main(["solve", "--problem", str(tmp_path)])
    assert "\n" not in str(info.value)


def test_load_rejects_nonsymmetric_weight(tmp_path):
    # Its symmetric part is positive definite, but the adapter factors R itself.
    write_weighted_dir(tmp_path, np.array([[2.0, 1.5], [-1.5, 2.0]]))
    with pytest.raises(AssumptionViolationError, match="symmetric"):
        adapt_in_place(load_problem(tmp_path))
    with pytest.raises(SystemExit, match="invalid solve input: .*not symmetric") as info:
        main(["solve", "--problem", str(tmp_path)])
    assert "\n" not in str(info.value)


@pytest.mark.parametrize(
    "removed, stray",
    [
        (["A2", "B2", "A4", "B4", "A5"], "A3.mtx"),  # A1/B1, A3/B3 and B5: a gap
        (["A2"], "B2.mtx"),  # B2 without A2
        (["A5"], "B5.mtx"),  # B5 past the last pair
    ],
)
def test_load_rejects_stray_stochastic_files(tmp_path, removed, stray):
    write_problem_dir(tmp_path, random_standard_problem(n=8, m=1, l=1, r=6, seed=7))
    for name in removed:
        (tmp_path / f"{name}.mtx").unlink()
    with pytest.raises(ProblemLoadError, match=f"^{stray} is stray"):
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


@pytest.mark.parametrize("form", ["mass", "damped-noise"])
def test_heat_problems_take_the_ldlt_route(form):
    # The benchmark's det-mass and c9 workloads and the heat grid solve these
    # forms at larger n; a generator change that moved them off the LDL^T
    # route would silently change what the benchmark measures.
    if form == "mass":
        p = gen_heat_problem(40, 7, 6, seed=0, mass_matrix=True)
    else:
        base = gen_heat_problem(40, 7, 6, seed=0, scale=100.0, damping=100.0)
        p = with_noise_blocks(base, [1e-5, 1e-4, 1e-3, 1e-2], seed=100)
    assert p.operators().route == "ldlt"


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


@pytest.mark.parametrize("threads", [None, "2"])
def test_an_empty_grid_runs_no_cell(monkeypatch, threads):
    # The pool needs at least one worker even when there is no cell.
    if threads:
        monkeypatch.setenv("SCARE_RADI_THREADS", threads)
    cfg = small_grid_config()
    cfg.variants = []
    assert run_grid(cfg) == []


@pytest.mark.parametrize("value", ["abc", "0", "-2"])
def test_grid_rejects_a_malformed_thread_count(tmp_path, monkeypatch, value):
    # A bad SCARE_RADI_THREADS stops the grid instead of running it serially.
    monkeypatch.setenv("SCARE_RADI_THREADS", value)
    with pytest.raises(ValueError, match="SCARE_RADI_THREADS"):
        run_grid(small_grid_config())
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"generate": {"kind": "heat", "n": 10, "m": 1, "l": 1}}))
    with pytest.raises(SystemExit, match="SCARE_RADI_THREADS") as info:
        main(["grid", "--config", str(path)])
    assert "\n" not in str(info.value)


def test_grid_writes_outputs(tmp_path):
    cfg = small_grid_config(tmp_path)
    reports = run_grid(cfg)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert len(summary) == len(reports)
    assert {cell["remark"] for cell in summary.values()} == {"ok"}
    csvs = sorted(tmp_path.glob("*.csv"))
    assert len(csvs) == len(reports)
    header = csvs[0].read_text().splitlines()[0].split(",")
    assert header == CSV_COLUMNS


@pytest.mark.parametrize("r", [1, 5])
def test_csv_last_column_names_truncation_route(tmp_path, r):
    # The stochastic stack has 5x the rows of the residual factor and turns
    # tall once the factor passes n/5 rows: that step stores its Gram
    # ("switch") and the later ones are Gram steps.  The r=1 factor never
    # outgrows l.
    base = gen_heat_problem(40, 7, 6, seed=0, scale=100.0, damping=100.0)
    p = base if r == 1 else with_noise_blocks(base, [1e-5, 1e-4, 1e-3, 1e-2], seed=100)
    run_single(p, SolveOptions(cap_cols=1500), "unit", tmp_path)
    lines = (tmp_path / "unit.csv").read_text().splitlines()
    route = CSV_COLUMNS.index("svd_route")
    assert lines[0].split(",") == CSV_COLUMNS and route == 11  # earlier columns stay put
    column = [line.split(",")[route] for line in lines[1:]]
    assert column[0] == ""  # the initial row precedes any truncation
    routes = set(column[1:])
    if r == 1:
        assert routes == {"gram"}
    else:
        assert column[1:].count("switch") == 1 and routes == {"gram", "switch", "gram-step"}


def test_csv_header_is_the_documented_column_list():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    [documented] = re.findall(r"CSV trace with columns\s+`([^`]+)`", readme)
    assert CSV_COLUMNS == documented.split(",")


def test_csv_row_formats_each_field_by_its_type():
    row = IterationRecord(k=2, gamma=0.1, nres=1 / 3, cols_c=4, cols_xi=5, nu_omega=0.0,
                          t_solve=1 / 7, svd_route="gram", shift_src="cache",
                          basis_dim=3, rejections=1, cap_discard=2e-20)
    assert row.csv_row() == [
        2, "0.1", "0.3333333333333333", 4, 5, "0.0", "0.000000", "0.142857",
        "0.000000", "0.000000", "0.000000", "gram", "cache", 3, 1, "2e-20",
    ]


def test_csv_numeric_cells_parse_as_floats(tmp_path):
    run_single(gen_heat_problem(60, 3, 2, seed=3), SolveOptions(), "unit", tmp_path)
    with open(tmp_path / "unit.csv", newline="") as fh:
        _, *rows = list(csv.reader(fh))
    text = {CSV_COLUMNS.index("svd_route"), CSV_COLUMNS.index("shift_src")}
    assert len(rows) > 1
    for row in rows:
        for j, cell in enumerate(row):
            if j not in text:
                float(cell)


def test_report_nres_history_matches_rows(tmp_path):
    p = random_standard_problem(n=25, m=2, l=2, r=2, seed=20)
    report = run_single(p, SolveOptions(), "unit", tmp_path)
    data = json.loads((tmp_path / "unit.json").read_text())
    assert data["converged"] is True
    assert [row["nres"] for row in data["rows"]] == report.nres_history
    assert data["rows"][0]["nres"] == 1.0


def test_run_single_records_its_environment_and_peak_rss(tmp_path, monkeypatch):
    # The environment is read once per process, so every summary of a
    # process carries the same one and numeric_content stays comparable.
    p = random_standard_problem(n=25, m=2, l=2, r=2, seed=20)
    report = run_single(p, SolveOptions(), "unit", tmp_path)
    env = report.config["environment"]
    assert env == {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        **{var: os.environ.get(var) for var in bench.BLAS_THREAD_VARS},
    }
    assert report.peak_rss_mb > 0.0
    data = json.loads((tmp_path / "unit.json").read_text())
    assert data["config"]["environment"] == env and data["peak_rss_mb"] == report.peak_rss_mb
    assert "peak_rss_mb" not in report.summary_dict(include_timings=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "7")
    again = run_single(p, SolveOptions(), "unit")
    assert again.config["environment"] == env
    assert again.numeric_content() == report.numeric_content()


def test_report_files_hold_every_field_of_every_row(tmp_path):
    # The JSON rows are the records' full asdict, and each CSV cell is its
    # field formatted by type, in field order: no field is dropped or moved.
    p = random_standard_problem(n=25, m=2, l=2, r=2, seed=20)
    report = run_single(p, SolveOptions(), "unit", tmp_path)
    text = (tmp_path / "unit.json").read_text()

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    data = json.loads(text, parse_constant=reject)  # strict RFC 8259: no NaN or Infinity
    want = [asdict(r) for r in report.rows]
    assert np.isnan(want[0]["gamma"])
    want[0]["gamma"] = None  # the initial row's NaN shift is written as null
    assert data["rows"] == want
    with open(tmp_path / "unit.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == CSV_COLUMNS and len(rows) == len(report.rows) > 1
    for cells, record in zip(rows, report.rows):
        for cell, (name, value) in zip(cells, asdict(record).items(), strict=True):
            if name in TIMING_FIELDS:
                assert cell == f"{value:.6f}"
            else:
                assert cell == (repr(value) if isinstance(value, float) else str(value))


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
    # The five trace categories and the time outside them follow the status
    # line, each with its share of the wall time.
    cats = category_rows(out)
    assert [c[0] for c in cats] == [
        "t_shift", "t_solve", "t_ltimes", "t_svd", "t_other", "outside"]
    assert abs(sum(float(c[2].rstrip("%")) for c in cats) - 100.0) <= 0.5


def category_rows(out):
    """The split rows ``scare-radi solve`` prints after its status line."""
    lines = out.splitlines()
    status = next(i for i, line in enumerate(lines) if "converged" in line)
    return [line.split() for line in lines[status + 1:status + 7]]


def test_cli_solve_rows_sum_to_the_wall_time(monkeypatch, capsys):
    report, _ = cli_solve(monkeypatch, ["--generate", "heat:n=80,m=2,l=2"])
    cats = category_rows(capsys.readouterr().out)
    assert cats[-1][0] == "outside"
    seconds = [float(c[1].rstrip("s")) for c in cats]
    assert seconds[-1] >= 0.0  # the five categories are timed inside the run
    # Each row is rounded to the millisecond.
    assert abs(sum(seconds) - report.wall_time) <= len(seconds) * 5e-4 + 1e-12


def test_cli_solve_problem_dir_with_noise(tmp_path, capsys):
    pdir = tmp_path / "prob"
    pdir.mkdir()
    write_problem_dir(pdir, gen_heat_problem(50, 2, 2, seed=0, scale=40.0, damping=20.0))
    rc = main([
        "solve", "--problem", str(pdir), "--noise", "1e-4,1e-3",
        "--shift", "proj", "--mode", "per-iter",
    ])
    assert rc == 0
    assert "converged" in capsys.readouterr().out


ONE_CELL_GRID = {
    "generate": {"kind": "heat", "n": 50, "m": 2, "l": 2, "scale": 40.0, "damping": 20.0},
    "r_cases": [1],
    "variants": [["hamiltonian", 1, "cached"]],
    "seed": 1,
}


def test_cli_grid(tmp_path, capsys):
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text(json.dumps(ONE_CELL_GRID))
    rc = main(["grid", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert "0 without convergence" in capsys.readouterr().out


def test_cli_grid_fails_when_a_cell_does_not_converge(tmp_path, capsys):
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text(json.dumps({**ONE_CELL_GRID, "max_iter": 1}))
    assert main(["grid", "--config", str(cfg_path)]) == 1
    assert "1 cells, 1 without convergence" in capsys.readouterr().out


# A truncation tolerance far above tol_nres: the debt alone stops the run (flag t).
DEBT_STOP_GRID = {
    "generate": {"kind": "heat", "n": 60, "m": 2, "l": 2},
    "r_cases": [1],
    "variants": [["hamiltonian", 1, "cached"]],
    "trunc_rel": 1e-9,
}


def test_cli_grid_fails_when_a_cell_stops_on_its_debt(tmp_path, capsys):
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text(json.dumps(DEBT_STOP_GRID))
    assert main(["grid", "--config", str(cfg_path)]) == 1
    out = capsys.readouterr().out
    assert "1 cells, 1 without convergence\nby flag: t 1" in out


def test_cli_solve_fails_when_the_run_stops_on_its_debt(capsys):
    assert main(["solve", "--generate", "heat:n=60,m=2,l=2", "--trunc-rel", "1e-9"]) == 1
    assert "stopped [t]" in capsys.readouterr().out


def test_cli_grid_prints_a_failed_cells_error(tmp_path, monkeypatch, capsys):
    def failing(p, opts, label, out_dir=None):
        raise NumericalBreakdownError(3, "residual or feedback not finite at iteration 3")

    monkeypatch.setattr(bench, "run_single", failing)
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text(json.dumps(ONE_CELL_GRID))
    assert main(["grid", "--config", str(cfg_path)]) == 1
    out = capsys.readouterr().out
    assert " x NumericalBreakdownError: residual or feedback not finite at iteration 3" in out


def test_cli_solve_prints_a_solver_error_in_one_line(monkeypatch, capsys):
    def failing(p, opts, label, out_dir=None):
        raise NoProgressError("every candidate shift at iteration 4 was rejected: [0.5]")

    monkeypatch.setattr(cli, "run_single", failing)
    assert main(["solve", "--generate", "heat:n=30,m=2,l=2"]) == 1
    out = capsys.readouterr().out
    assert out == ("r1__hami 1 (n=30, r=1): stopped [x] NoProgressError: "
                   "every candidate shift at iteration 4 was rejected: [0.5]\n")
    # Other exceptions are no solver outcome: they propagate.
    monkeypatch.setattr(cli, "run_single", lambda *a: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        main(["solve", "--generate", "heat:n=30,m=2,l=2"])


def cli_solve(monkeypatch, argv):
    """Run ``scare-radi solve`` on argv; returns its report and problem."""
    seen = []

    def recording(p, opts, label, out_dir=None):
        seen.append((bench.run_single(p, opts, label, out_dir), p))
        return seen[-1][0]

    monkeypatch.setattr(cli, "run_single", recording)
    assert main(["solve", *argv]) == 0
    [(report, p)] = seen
    return report, p


@pytest.mark.parametrize(
    "noise, case",
    [(None, "r1"), ("1e-4", "r2_ns0.0001"), ("1e-3", "r2_ns0.001"), ("1e-4,1e-3", "r3")],
)
def test_cli_solve_is_its_grid_cell(monkeypatch, noise, case):
    cfg = small_grid_config()
    cfg.r_cases = [1, 2, 3]
    [cell] = [rep for rep in run_grid(cfg) if rep.label == f"{case}__proj c 1"]
    argv = ["--generate", "heat:n=60,m=2,l=2,scale=50.0,damping=20.0",
            "--shift", "proj", "--mode", "per-iter", "--seed", "3"]
    report, _ = cli_solve(monkeypatch, argv + (["--noise", noise] if noise else []))
    assert report.label == cell.label
    assert report.numeric_content() == cell.numeric_content()


def test_cli_noise_builds_criterion_9_blocks(monkeypatch):
    # The README's criterion-9 command at n = 40: noise blocks drawn from seed + 100.
    scales = [1e-5, 1e-4, 1e-3, 1e-2]
    report, p = cli_solve(monkeypatch, [
        "--generate", "heat:n=40,m=7,l=6,scale=100,damping=100",
        "--noise", "1e-5,1e-4,1e-3,1e-2", "--cap-cols", "1500",
    ])
    base = gen_heat_problem(40, 7, 6, seed=0, scale=100.0, damping=100.0)
    want = with_noise_blocks(base, scales, seed=100)
    assert report.label == "r5__hami 1" and p.r == 5
    for got_a, want_a, got_b, want_b in zip(
        p.ahat.blocks, want.ahat.blocks, p.bhat.blocks, want.bhat.blocks
    ):
        assert (got_a != want_a).nnz == 0
        np.testing.assert_array_equal(got_b, want_b)


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"tol": 1e-10}, "unknown config keys"),
        ({"max_iter": -1}, "max_iter"),
        ({"r_cases": [7]}, "case r = 7"),
        ({"variants": [["hamiltonian", 0, "cached"]]}, "window_s"),
        ({"generate": {"kind": "heat", "n": 10, "m": 1, "l": 1, "width": 2}}, "width"),
        ({"stop_on_stall": True}, "unknown config keys"),
        ({"cap_cols": 2.5}, "invalid grid config .*cap_cols must be an integer"),
        ({"r_cases": [1.5]}, "invalid grid config .*r_cases entry must be an integer"),
        ({"seed": 2.5}, "invalid grid config .*seed must be an integer"),
        ({"generate": {"kind": "heat", "n": 10, "m": 2.5, "l": 1}},
         "invalid grid config .*generate.m must be an integer"),
        ({"tol_nres": "1e-12"}, "invalid grid config .*tol_nres must be a positive finite real"),
        ({"noise_scales": ["x"]}, "invalid grid config .*noise_scales entry must be a nonnegative"),
        ({"r_cases": 2}, "invalid grid config .*r_cases must be a list"),
        ({"variants": [["hamiltonian", 1]]}, "invalid grid config .*variants entry must be"),
        ({"output_dir": 5}, "invalid grid config .*output_dir must be a path"),
        ({"generate": {"kind": "heat", "n": 10, "m": 1, "l": 1, "scale": "big"}},
         "invalid grid config .*generate.scale must be a positive finite real"),
        ({"generate": {"kind": "heat", "n": 10, "m": 1, "l": 1, "mass_matrix": "no"}},
         "invalid grid config .*generate.mass_matrix must be true or false, not 'no'"),
        ({"r_cases": [2], "noise_scales": [1e-5, 1e-5]},
         r"invalid grid config .*share the labels \['r2_ns1e-05__"),
    ],
)
def test_cli_grid_rejects_bad_configs_in_one_line(tmp_path, bad, message):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"generate": {"kind": "heat", "n": 10, "m": 1, "l": 1}, **bad}))
    with pytest.raises(SystemExit, match=message) as info:
        main(["grid", "--config", str(path)])
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("flag, generalized", [("true", True), ("false", False)])
def test_cli_generate_reads_a_boolean_mass_matrix(monkeypatch, flag, generalized):
    _, p = cli_solve(monkeypatch, ["--generate", f"heat:n=10,m=1,l=1,mass_matrix={flag}"])
    assert p.is_generalized == generalized


@pytest.mark.parametrize(
    "spec, key, value",
    [("heat:n=10,m=1,l=1,mass_matrix=yes", "mass_matrix", "'yes'"), ("heat:n", "n", "''")],
    ids=["word", "empty"],
)
def test_cli_generate_names_the_key_of_an_unreadable_value(spec, key, value):
    message = f"invalid solve input: generate.{key} must be true, false or a number, not {value}"
    with pytest.raises(SystemExit, match=re.escape(message)):
        main(["solve", "--generate", spec])


@pytest.mark.parametrize("value", ["no", 1, None])
def test_config_takes_mass_matrix_as_a_boolean_only(value):
    with pytest.raises(ValueError, match="generate.mass_matrix must be true or false"):
        ExperimentConfig(generate={"kind": "heat", "n": 10, "m": 1, "l": 1, "mass_matrix": value})


def test_grid_labels_tell_close_noise_scales_apart():
    # Scales equal to six digits used to share one label, and one cell's
    # files overwrote the other's.
    cfg = small_grid_config()
    cfg.r_cases, cfg.noise_scales = [1, 2], [1e-5, 1.000001e-5]
    labels = [label for label, _, _ in grid_cells(cfg)]
    assert labels == [
        "r1__hami 1", "r1__proj c 1",
        "r2_ns1e-05__hami 1", "r2_ns1e-05__proj c 1",
        "r2_ns1.000001e-05__hami 1", "r2_ns1.000001e-05__proj c 1",
    ]


@pytest.mark.parametrize(
    "change, shared",
    [
        ({"noise_scales": [1e-4, 1e-4]}, ["r2_ns0.0001__hami 1", "r2_ns0.0001__proj c 1"]),
        ({"noise_scales": [1e-4, 1e-3], "variants": [("hamiltonian", 1, "cached")] * 2},
         ["r1__hami 1", "r2_ns0.0001__hami 1", "r2_ns0.001__hami 1"]),
    ],
    ids=["scale", "variant"],
)
def test_grid_cells_reject_a_shared_label(change, shared):
    cfg = small_grid_config()
    for key, value in change.items():
        setattr(cfg, key, value)
    with pytest.raises(ValueError, match=re.escape(f"share the labels {shared}")):
        grid_cells(cfg)


def test_cli_rejects_conflicting_sources():
    with pytest.raises(SystemExit):
        main(["solve", "--problem", "x", "--generate", "heat:n=10,m=1,l=1"])


@pytest.mark.parametrize("flag", ["--cap-cols", "--max-cols-xi"])
def test_cli_rejects_out_of_range_options(flag):
    with pytest.raises(SystemExit, match=flag[2:].replace("-", "_")):
        main(["solve", "--generate", "heat:n=10,m=1,l=1", flag, "0"])


# Flags of ``scare-radi solve`` that pick the problem, the shift variant or
# the output rather than a SolveOptions field.
NON_OPTION_FLAGS = {"help", "problem", "generate", "noise", "shift", "window", "mode",
                    "seed", "out"}


def test_every_solver_option_has_one_flag_and_one_config_key(tmp_path):
    parser = argparse.ArgumentParser()
    cli._add_solve_args(parser)
    default = SolveOptions()
    set_by = {}
    for action in parser._actions:
        if action.dest in NON_OPTION_FLAGS:
            continue
        value = [] if action.nargs == 0 else [str((action.default or 1) * 3)]
        args = parser.parse_args(["--generate", "heat:n=10,m=1,l=1",
                                  action.option_strings[0], *value])
        opts = cli._solve_config(args).options
        changed = [f.name for f in fields(SolveOptions)
                   if getattr(opts, f.name) != getattr(default, f.name)]
        assert len(changed) == 1, (action.option_strings, changed)  # a flag without a field
        [name] = changed
        assert name not in set_by, (name, set_by[name], action.option_strings)
        set_by[name] = getattr(opts, name)
    assert set(set_by) == {f.name for f in fields(SolveOptions)} - {"shift"}
    for name, value in set_by.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({name: value}))
        assert getattr(ExperimentConfig.from_json(path).options, name) == value


def test_cli_generate_accepts_float_fields(capsys):
    rc = main([
        "solve", "--generate", "heat:n=60,m=2,l=2,scale=40.0,damping=20",
        "--noise", "1e-4", "--cap-cols", "200",
    ])
    assert rc == 0
    assert "converged" in capsys.readouterr().out


def test_config_rejects_unknown_keys(tmp_path):
    # Solver knobs take their SolveOptions names (tol_nres, not tol), and the
    # shift comes from the variants.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"tol": 1e-10, "truncation": 1.0, "shift": "hami"}))
    with pytest.raises(ValueError, match=r"\['shift', 'tol', 'truncation'\]"):
        ExperimentConfig.from_json(path)


def test_config_validates_options_when_loaded(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"tol_nres": 1e-10, "cap_cols": 0}))
    with pytest.raises(ValueError, match="cap_cols"):
        ExperimentConfig.from_json(path)
    path.write_text(json.dumps({"tol_nres": 1e-10, "max_cols_xi": 40}))
    cfg = ExperimentConfig.from_json(path)
    assert cfg.options == SolveOptions(tol_nres=1e-10, max_cols_xi=40)


def test_heat200_grid_config_file():
    # The checked-in n=200 grid: the synthetic heat problem on a damped
    # spectrum, all twelve shift variants, a residual row cap and a width guard.
    path = Path(__file__).resolve().parents[1] / "scripts" / "grid_heat200.json"
    cfg = ExperimentConfig.from_json(path)
    assert cfg == ExperimentConfig(
        generate={"kind": "heat", "n": 200, "m": 7, "l": 6, "scale": 100.0, "damping": 100.0},
        options=SolveOptions(cap_cols=1500, max_cols_xi=50_000),
    )
    # Every cell's effective options, spelled out so that a changed
    # SolveOptions default shows here.
    cells = grid_cells(cfg)
    assert len(cells) == 6 * 12
    for (label, _, opts), variant in zip(cells, ALL_SHIFT_VARIANTS * 6):
        assert label.endswith("__" + variant_label(*variant))
        assert opts == SolveOptions(
            tol_nres=1e-12, max_iter=300, trunc_rel=3.33e-15, cap_cols=1500,
            max_cols_xi=50_000, shift=ShiftConfig(*variant),
        )


def test_grid_r3_uses_first_two_scales():
    cfg = small_grid_config()
    cfg.r_cases = [3]
    cfg.variants = [("hamiltonian", 1, "cached")]
    reports = run_grid(cfg)
    assert len(reports) == 1
    assert reports[0].label.startswith("r3__")
    assert reports[0].converged


def test_grid_on_loaded_stochastic_problem(tmp_path, monkeypatch):
    # A loaded r > 1 problem is solved as given and labelled by its own r.
    write_problem_dir(tmp_path, random_standard_problem(n=25, m=2, l=2, r=3, seed=20))
    cfg = ExperimentConfig(problem=str(tmp_path), r_cases=[1],
                           variants=[("hamiltonian", 1, "cached")])
    [rep] = run_grid(cfg)
    assert rep.label == "r3__hami 1" and rep.config["problem"]["r"] == 3
    assert rep.converged
    # Noise cases need an r = 1 problem: the default cases fail before any cell runs.
    calls = []
    monkeypatch.setattr(bench, "radi_solve", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="has r = 3"):
        run_grid(ExperimentConfig(problem=str(tmp_path)))
    assert calls == []


@pytest.mark.parametrize(
    "form, route",
    [("tridiagonal", "ldlt"), ("stencil-2d", "superlu")],
)
def test_report_backend_is_the_factorization_route(tmp_path, form, route):
    p = gen_heat_problem(64, 2, 2, seed=0)
    if form == "stencil-2d":  # the 5-point stencil on an 8 x 8 grid
        lap = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(8, 8))
        p.a = sp.csc_matrix(81.0 * (sp.kron(lap, sp.identity(8)) + sp.kron(sp.identity(8), lap)))
    report = run_single(p, SolveOptions(), "unit", tmp_path)
    assert report.converged and report.backend == route
    assert json.loads((tmp_path / "unit.json").read_text())["backend"] == route


def test_generalized_desk_scale_converges():
    # mass-matrix variant of the desk problem, small enough for CI
    p = gen_heat_problem(400, 4, 3, seed=0, mass_matrix=True)
    from scare_radi.engine import SolveOptions, radi_solve
    from scare_radi.shifts import ShiftConfig

    _, rep = radi_solve(p, SolveOptions(shift=ShiftConfig("hamiltonian", 1, "cached")))
    assert rep.converged and rep.final_nres < 1e-12
