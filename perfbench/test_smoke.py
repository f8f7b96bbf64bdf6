"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench

Each workload is swapped for a tiny one of the same kind under the same name,
so the full run path (set-up, passes, checks, metrics) is exercised in
seconds.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from scare_radi import bench  # noqa: E402
from scare_radi.engine import radi_solve  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {
    "c9-stoch-n300": workloads.c9_stoch(40, "c9-stoch-n300"),
    "det-mass-n5k": workloads.det_mass(300, 2, "det-mass-n5k"),
}


@pytest.fixture
def tiny_workloads(monkeypatch):
    for name, wl in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, wl)


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)
    assert sorted(TINY) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_emitted_with_unit(tiny_workloads, name, seed, trace):
    args = run.parse_args(["--workload", name, "--seed", str(seed), "--seconds", "0.01",
                           "--trace", str(trace)])
    result, record = run.run(args, time.perf_counter())
    assert result["correct"], [s["failure"] for s in record["solves"] if s["failure"]]
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert np.isfinite(got["value"])
    assert record["environment"]["seed"] == seed
    if trace:
        assert "tracing_overhead_s" in record["cross_check"]
    else:
        assert len(record["setup_s_samples"]) == run.SETUP_ROUNDS


def _solved(p):
    state, report = radi_solve(p, workloads.SolveOptions(shift=workloads.HAMI_CACHED))
    assert report.converged
    return state.xi


@pytest.mark.parametrize("stochastic", [False, True])
def test_check_flags_perturbed_solution(stochastic):
    p = bench.gen_heat_problem(60, 3, 2, seed=3, mass_matrix=not stochastic,
                               scale=100.0, damping=100.0)
    if stochastic:
        p = bench.with_noise_blocks(p, [1e-3, 1e-2], seed=4)
    xi = _solved(p)
    assert checks.check_solution(p, xi, 1e-12)["ok"]
    bad = checks.check_solution(p, xi * (1.0 + 1e-6), 1e-12)
    assert not bad["ok"] and bad["nres"] > 1e3 * (1e-12 + bad["floor"])


def test_factored_check_agrees_with_dense():
    p = bench.gen_heat_problem(300, 7, 6, seed=1, mass_matrix=True)
    xi = _solved(p)
    floor = checks.rounding_floor(p, xi, dense=False)
    assert abs(checks.factored_nres(p, xi) - checks.dense_nres(p, xi)) <= (
        checks.rounding_floor(p, xi, dense=True))
    assert checks.factored_nres(p, xi) <= 1e-12 + floor
    assert checks.factored_nres(p, xi * (1.0 + 1e-6)) > 1e3 * (1e-12 + floor)
