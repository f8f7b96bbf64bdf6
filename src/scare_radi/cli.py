"""Command-line driver: single solves, experiment grids, oracle validation."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import (
    ExperimentConfig,
    gen_heat_problem,
    load_problem,
    run_grid,
    run_single,
    variant_label,
    with_noise_blocks,
)
from .engine import SolveOptions
from .oracles import run_validation
from .problems import OriginalProblem, adapt_in_place
from .report import TIMING_FIELDS
from .shifts import ShiftConfig

SHIFT_NAMES = {"hami": "hamiltonian", "proj": "projection"}
MODE_NAMES = {"cached": "cached", "per-iter": "per_iteration"}


def _parse_generate(text: str) -> dict:
    """'heat:n=1357,m=7,l=6,scale=100' -> {'kind': 'heat', 'n': 1357, ...}."""
    kind, _, rest = text.partition(":")
    out = {"kind": kind}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            try:
                out[key.strip()] = int(val)
            except ValueError:
                out[key.strip()] = float(val)
    return out


def _add_solve_args(sub):
    sub.add_argument("--problem", help="problem directory of Matrix Market files")
    sub.add_argument("--generate", help="synthetic instance, e.g. heat:n=1357,m=7,l=6")
    sub.add_argument("--r", type=int, default=None, help="stochastic order (default: as loaded)")
    sub.add_argument("--noise", default=None,
                     help="comma-separated noise scales for the generated blocks")
    sub.add_argument("--shift", choices=sorted(SHIFT_NAMES), default="hami")
    sub.add_argument("--window", type=int, default=1, help="shift window s")
    sub.add_argument("--mode", choices=sorted(MODE_NAMES), default="cached")
    sub.add_argument("--tol", type=float, default=1e-12)
    sub.add_argument("--max-iter", type=int, default=300)
    sub.add_argument("--trunc-rel", type=float, default=3.33e-15)
    sub.add_argument("--cap-cols", type=int, default=None)
    sub.add_argument("--max-cols-xi", type=int, default=None)
    sub.add_argument("--stop-on-stall", action="store_true")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", default=None, help="output directory for trace/summary")


def _solve_problem(args):
    if bool(args.problem) == bool(args.generate):
        raise SystemExit("exactly one of --problem / --generate is required")
    if args.problem:
        p = load_problem(args.problem)
        if isinstance(p, OriginalProblem):
            p = adapt_in_place(p)
    else:
        gen = _parse_generate(args.generate)
        kind = gen.pop("kind")
        if kind != "heat":
            raise SystemExit(f"unknown generator {kind!r}")
        gen.setdefault("seed", args.seed)
        p = gen_heat_problem(**gen)
    if args.noise:
        scales = [float(x) for x in args.noise.split(",")]
        want_r = args.r if args.r is not None else len(scales) + 1
        if want_r != len(scales) + 1:
            raise SystemExit("--r must equal 1 + number of noise scales")
        p = with_noise_blocks(p, scales, seed=args.seed)
    elif args.r is not None and args.r != p.r:
        raise SystemExit(f"--r {args.r} requested but problem has r = {p.r} "
                         "(supply --noise to generate stochastic blocks)")
    return p


def cmd_solve(args) -> int:
    strategy = SHIFT_NAMES[args.shift]
    mode = MODE_NAMES[args.mode]
    try:
        opts = SolveOptions(
            tol_nres=args.tol,
            max_iter=args.max_iter,
            trunc_rel=args.trunc_rel,
            cap_cols=args.cap_cols,
            max_cols_xi=args.max_cols_xi,
            stop_on_stall=args.stop_on_stall,
            shift=ShiftConfig(strategy, args.window, mode),
        )
    except ValueError as exc:
        raise SystemExit(f"invalid solve option: {exc}") from exc
    p = _solve_problem(args)
    label = f"{variant_label(strategy, args.window, mode)} (n={p.n}, r={p.r})"
    report = run_single(p, opts, label, args.out)
    status = "converged" if report.converged else f"stopped [{report.flags or 'max-iter'}]"
    print(
        f"{label}: {status} after {report.iterations} iterations, "
        f"nres = {report.final_nres:.3e}, solution width = {report.xi_width}, "
        f"wall = {report.wall_time:.2f}s"
    )
    totals = {c: sum(getattr(row, c) for row in report.rows) for c in TIMING_FIELDS}
    spent = sum(totals.values())
    for c, t in totals.items():
        print(f"  {c:9s} {t:9.3f}s {t / spent if spent else 0.0:6.1%}")
    if args.out:
        print(f"trace written to {Path(args.out).resolve()}")
    return 0 if report.converged or report.flags else 1


def cmd_grid(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    if args.out:
        cfg.output_dir = args.out
    reports = run_grid(cfg)
    bad = 0
    for rep in reports:
        remark = rep.flags or ("ok" if rep.converged else f"nres={rep.final_nres:.2e}")
        print(f"{rep.label:40s} ite={rep.iterations:4d} dim={rep.xi_width:6d} "
              f"time={rep.wall_time:8.3f}s {remark}")
        bad += 0 if (rep.converged or rep.flags in ("m", "t")) else 1
    print(f"{len(reports)} cells, {bad} without convergence")
    return 0


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
