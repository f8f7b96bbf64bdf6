"""Command-line driver: single solves, experiment grids, oracle validation.

``scare-radi solve`` builds a one-cell :class:`~scare_radi.bench.ExperimentConfig`
(one variant, case r = 1 + the number of ``--noise`` scales) and solves it on
the grid's path, so its problem, noise blocks and label are those of the
matching grid cell.  The solver flags take their defaults from
:class:`~scare_radi.engine.SolveOptions`.  ``solve`` and ``grid`` exit 1
unless every run converged: a run stopped by flag ``t`` or ``m``, out of
iterations, or by an error (``x``) has not.  ``grid`` prints any error on
its cell's row; ``solve`` prints a solver error (:class:`ScareError`) on its
one line and lets any other exception propagate.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from .bench import ExperimentConfig, grid_cells, run_grid, run_single
from .engine import SolveOptions
from .errors import ScareError
from .oracles import run_validation
from .report import TIMING_FIELDS

SHIFT_NAMES = {"hami": "hamiltonian", "proj": "projection"}
MODE_NAMES = {"cached": "cached", "per-iter": "per_iteration"}


def _parse_generate(text: str) -> dict:
    """'heat:n=1357,m=7,l=6,scale=100,mass_matrix=true' -> {'kind': 'heat', 'n': 1357, ...}.

    A value reads as true or false, else as an integer, else as a real.
    """
    kind, _, rest = text.partition(":")
    out = {"kind": kind}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if val in ("true", "false"):
                out[key.strip()] = val == "true"
                continue
            try:
                out[key.strip()] = int(val)
            except ValueError:
                out[key.strip()] = float(val)
    return out


def _add_solve_args(sub):
    d = SolveOptions()
    shift_name = {v: k for k, v in SHIFT_NAMES.items()}[d.shift.strategy]
    mode_name = {v: k for k, v in MODE_NAMES.items()}[d.shift.mode]
    sub.add_argument("--problem", help="problem directory of Matrix Market files")
    sub.add_argument("--generate", help="synthetic instance, e.g. heat:n=1357,m=7,l=6")
    sub.add_argument("--noise", default=None,
                     help="comma-separated noise scales, one generated block each "
                     "(r = 1 + their number)")
    sub.add_argument("--shift", choices=sorted(SHIFT_NAMES), default=shift_name)
    sub.add_argument("--window", type=int, default=d.shift.window_s, help="shift window s")
    sub.add_argument("--mode", choices=sorted(MODE_NAMES), default=mode_name)
    sub.add_argument("--tol", type=float, default=d.tol_nres)
    sub.add_argument("--max-iter", type=int, default=d.max_iter)
    sub.add_argument("--trunc-rel", type=float, default=d.trunc_rel)
    sub.add_argument("--cap-cols", type=int, default=d.cap_cols)
    sub.add_argument("--max-cols-xi", type=int, default=d.max_cols_xi)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", default=None, help="output directory for trace/summary")


@contextmanager
def _exit_on_bad_input(what: str):
    """Turn a bad input's error into a one-line exit message."""
    try:
        yield
    except (ValueError, TypeError, ScareError) as exc:
        raise SystemExit(f"invalid {what}: {exc}") from exc


def _solve_config(args) -> ExperimentConfig:
    """The one-cell grid that ``scare-radi solve`` runs."""
    if bool(args.problem) == bool(args.generate):
        raise SystemExit("exactly one of --problem / --generate is required")
    scales = [float(x) for x in args.noise.split(",")] if args.noise else []
    return ExperimentConfig(
        problem=args.problem,
        generate=_parse_generate(args.generate) if args.generate else None,
        r_cases=[1 + len(scales)],
        noise_scales=scales,
        variants=[(SHIFT_NAMES[args.shift], args.window, MODE_NAMES[args.mode])],
        options=SolveOptions(
            tol_nres=args.tol,
            max_iter=args.max_iter,
            trunc_rel=args.trunc_rel,
            cap_cols=args.cap_cols,
            max_cols_xi=args.max_cols_xi,
        ),
        seed=args.seed,
    )


def cmd_solve(args) -> int:
    with _exit_on_bad_input("solve input"):
        [(label, p, opts)] = grid_cells(_solve_config(args))
    try:
        report = run_single(p, opts, label, args.out)
    except ScareError as exc:
        print(f"{label} (n={p.n}, r={p.r}): stopped [x] {type(exc).__name__}: {exc}")
        return 1
    status = "converged" if report.converged else f"stopped [{report.flags or 'max-iter'}]"
    print(
        f"{label} (n={p.n}, r={p.r}): {status} after {report.iterations} iterations, "
        f"nres = {report.final_nres:.3e}, solution width = {report.xi_width}, "
        f"wall = {report.wall_time:.2f}s"
    )
    totals = {c: sum(getattr(row, c) for row in report.rows) for c in TIMING_FIELDS}
    # The operator set-up, rejected steps and the final Xi assembly.
    totals["outside"] = report.wall_time - sum(totals.values())
    for c, t in totals.items():
        print(f"  {c:9s} {t:9.3f}s {t / report.wall_time if report.wall_time else 0.0:6.1%}")
    if args.out:
        print(f"trace written to {Path(args.out).resolve()}")
    return 0 if report.converged else 1


def cmd_grid(args) -> int:
    with _exit_on_bad_input(f"grid config {args.config}"):
        cfg = ExperimentConfig.from_json(args.config)
        cfg.output_dir = args.out or cfg.output_dir
        reports = run_grid(cfg)
    for rep in reports:
        error = f" {rep.config['error']}" if "error" in rep.config else ""
        print(f"{rep.label:40s} ite={rep.iterations:4d} dim={rep.xi_width:6d} "
              f"time={rep.wall_time:8.3f}s {rep.remark}{error}")
    bad = Counter(rep.flags or "max-iter" for rep in reports if not rep.converged)
    print(f"{len(reports)} cells, {bad.total()} without convergence")
    if bad:
        print("by flag: " + ", ".join(f"{flag} {count}" for flag, count in sorted(bad.items())))
    return 1 if bad else 0


def cmd_validate(args) -> int:
    ok = run_validation(verbose=True)
    print("validation:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="scare-radi",
        description="Low-rank RADI-type solver and benchmark harness for "
        "stochastic continuous-time algebraic Riccati equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one problem")
    _add_solve_args(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_grid = sub.add_parser("grid", help="run an experiment grid from a JSON config")
    p_grid.add_argument("--config", required=True)
    p_grid.add_argument("--out", default=None)
    p_grid.set_defaults(func=cmd_grid)

    p_val = sub.add_parser("validate", help="run the dense oracle suite")
    p_val.set_defaults(func=cmd_validate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
