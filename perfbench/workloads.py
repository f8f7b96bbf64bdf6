"""The benchmark's workloads: the solves each one makes from a seed, and one pass.

A pass is the unit a run repeats until its measuring time is used: the
workload's fixed list of solves, each made and written out (CSV trace and
JSON summary) by ``bench.run_single`` as the grid runner does.  Every solve
goes through ``solve(fn, problem, options)``, which the caller supplies to
time and record it; ``fn`` is the solver as ``bench`` binds it at that
moment, so installed tracing wrappers are used when present.
"""

from __future__ import annotations

import dataclasses

from scare_radi import bench, engine
from scare_radi.engine import SolveOptions
from scare_radi.shifts import ShiftConfig

HAMI_CACHED = ShiftConfig("hamiltonian", 1, "cached")
NOISE_SCALES = [1e-5, 1e-4, 1e-3, 1e-2]


@dataclasses.dataclass(frozen=True)
class Solves:
    """Independent solves made one after another."""

    name: str
    make: object  # seed -> list of (problem, options)

    def build(self, seed: int):
        return self.make(seed)

    def run_pass(self, built, solve, out_dir):
        inner = bench.radi_solve
        bench.radi_solve = lambda p, opts=None: solve(inner, p, opts)
        try:
            for j, (problem, opts) in enumerate(built):
                try:
                    bench.run_single(problem, opts, f"{self.name}-{j}", out_dir)
                except Exception:  # recorded as a failed solve by ``solve``
                    pass
        finally:
            bench.radi_solve = inner


def c9_stoch(n: int, name: str) -> Solves:
    """The criterion-9 stochastic solve (r = 5, damped heat) at size n."""

    def make(seed):
        base = bench.gen_heat_problem(n, 7, 6, seed=seed, scale=100.0, damping=100.0)
        p = bench.with_noise_blocks(base, NOISE_SCALES, seed=seed + 100)
        return [(p, SolveOptions(shift=HAMI_CACHED, cap_cols=1500))]

    return Solves(name, make)


def det_mass(n: int, count: int, name: str) -> Solves:
    """``count`` deterministic heat solves with a mass matrix at size n."""

    def make(seed):
        return [
            (bench.gen_heat_problem(n, 7, 6, seed=count * seed + j, mass_matrix=True),
             SolveOptions(shift=HAMI_CACHED))
            for j in range(count)
        ]

    return Solves(name, make)


WORKLOADS = {
    w.name: w
    for w in (
        c9_stoch(300, "c9-stoch-n300"),
        det_mass(5_000, 6, "det-mass-n5k"),
    )
}


def warm_up():
    """Tiny solves touching both shift strategies, the E path and r > 1."""
    base = bench.gen_heat_problem(24, 2, 2, seed=0, mass_matrix=True,
                                  scale=100.0, damping=100.0)
    p = bench.with_noise_blocks(base, [1e-3], seed=1)
    for strategy in ("hamiltonian", "projection"):
        opts = SolveOptions(shift=ShiftConfig(strategy, 1, "per_iteration"))
        _, report = engine.radi_solve(p, opts)
        if not report.converged:
            raise RuntimeError(f"warm-up solve with {strategy} shifts did not converge")
