#!/usr/bin/env python3
"""Print a fingerprint of every solve of the benchmark's workloads, or of a grid.

    python3 scripts/fingerprint.py [--seeds 0 1 2]
    python3 scripts/fingerprint.py --grid scripts/grid_heat200.json

For each seed and each workload of ``perfbench/workloads.py`` (imported, not
changed) every solve is run once with BLAS on one thread.  One line per solve
gives the iterations, the final ``xi_width``, the repr of the final nres, and
the SHA-256 of the shift column (``gamma`` of every iteration row, as float64
bytes) and of the solution factor Xi in C order.  With ``--grid`` the solves
are instead the cells of that grid config, built by ``bench.grid_cells`` and
run one after another; one line per cell gives its label, iterations,
``xi_width`` and shift-column SHA-256, and after the cells one line per shift
variant (the label after ``__``) gives its iterations summed over the cases,
then one line the grid's total.  Two checkouts whose outputs are equal made
bit-identical solves (on the grid: the same shift sequences); no time is
printed.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _sha(a) -> str:
    return hashlib.sha256(a.tobytes(order="C")).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    ap.add_argument("--grid", metavar="CONFIG", help="fingerprint this grid config's cells instead")
    args = ap.parse_args(argv)

    import numpy as np

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from scare_radi import bench, engine

    def gamma_sha(report) -> str:
        return _sha(np.array([row.gamma for row in report.rows], dtype=float))

    if args.grid:
        per_variant = {}
        cells = bench.grid_cells(bench.ExperimentConfig.from_json(args.grid))
        for label, problem, opts in cells:
            _, report = engine.radi_solve(problem, opts)
            print(f"{label} iterations={report.iterations} xi_width={report.xi_width} "
                  f"gamma={gamma_sha(report)}", flush=True)
            variant = label.split("__", 1)[1]
            per_variant[variant] = per_variant.get(variant, 0) + report.iterations
        for variant, iterations in per_variant.items():
            print(f"variant {variant} iterations={iterations}")
        print(f"total cells={len(cells)} iterations={sum(per_variant.values())}")
        return 0

    from workloads import WORKLOADS

    for seed in args.seeds:
        for name, workload in WORKLOADS.items():
            for j, (problem, opts) in enumerate(workload.build(seed)):
                state, report = engine.radi_solve(problem, opts)
                print(f"{name} seed={seed} solve={j} iterations={report.iterations} "
                      f"xi_width={report.xi_width} nres={report.final_nres!r} "
                      f"gamma={gamma_sha(report)} xi={_sha(np.ascontiguousarray(state.xi))}",
                      flush=True)
    return 0


if __name__ == "__main__":
    # Set before numpy loads its BLAS.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
