"""Benchmark drivers: problem ingestion, synthetic generators, experiment grid.

Problems are exchanged as Matrix Market directories (see
:mod:`scare_radi.problems` for the layout).  The grid runner crosses the
stochastic cases (the base problem, one noise block per scale, and the first
r - 1 scales combined) with shift variants, solves each cell through
:func:`run_single`, and emits one CSV trace and one JSON summary per cell,
plus a compact summary table.  ``scare-radi solve`` runs a one-cell grid.
"""

from __future__ import annotations

import json
import os
import re
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np
import scipy.io as sio
import scipy.sparse as sp

from . import __version__
from .engine import SolveOptions, radi_solve
from .errors import ConformabilityError, ProblemLoadError, check_count, check_real
from .kernels import StackedMat
from .problems import OriginalProblem, StandardProblem, adapt_in_place
from .report import RunReport
from .shifts import ShiftConfig

__all__ = [
    "load_problem",
    "gen_noise_blocks",
    "gen_heat_problem",
    "with_noise_blocks",
    "ExperimentConfig",
    "ALL_SHIFT_VARIANTS",
    "variant_label",
    "grid_cells",
    "run_single",
    "run_grid",
]

#: The twelve shift variants of the benchmark grid: (strategy, window, mode).
ALL_SHIFT_VARIANTS = [
    (strategy, s, mode)
    for strategy in ("hamiltonian", "projection")
    for mode in ("cached", "per_iteration")
    for s in (1, 2, 5)
]


def variant_label(strategy: str, s: int, mode: str) -> str:
    """Short grid label: cached mode is plain, per-iteration carries a 'c'."""
    stem = "hami" if strategy == "hamiltonian" else "proj"
    return f"{stem} c {s}" if mode == "per_iteration" else f"{stem} {s}"


# A stochastic file of a problem directory: A{i}.mtx or B{i}.mtx for i >= 1.
_STOCHASTIC_FILE = re.compile(r"([AB])([1-9][0-9]*)\.mtx")


def _read_mtx(path: Path, want_sparse: bool):
    try:
        mat = sio.mmread(path)
    except Exception as exc:
        raise ProblemLoadError(f"cannot read {path.name}: {exc}") from exc
    if want_sparse:
        return sp.csc_matrix(mat)
    return np.asarray(mat.toarray() if sp.issparse(mat) else mat, dtype=float)


def load_problem(dir_path) -> StandardProblem | OriginalProblem:
    """Load a problem directory of Matrix Market files.

    The stochastic order r is inferred from the consecutive pairs
    ``A{i}.mtx``/``B{i}.mtx`` from i = 1 on; a stochastic file past the last
    pair (a gap in the numbering, or a ``B{i}.mtx`` without its
    ``A{i}.mtx``) raises.  ``E.mtx`` makes the problem generalized, and the
    presence of ``L.mtx``/``R.mtx`` marks original-form data (returned as
    :class:`OriginalProblem` for the caller to adapt or standardize, which
    is where R is checked).  The containers check the shapes; their
    :class:`ConformabilityError` is raised as :class:`ProblemLoadError`.
    """
    dir_path = Path(dir_path)
    if not dir_path.is_dir():
        raise ProblemLoadError(f"{dir_path} is not a directory")
    for name in ("A.mtx", "B.mtx", "C.mtx"):
        if not (dir_path / name).exists():
            raise ProblemLoadError(f"missing mandatory file {name} in {dir_path}")
    a = _read_mtx(dir_path / "A.mtx", want_sparse=True)
    b = _read_mtx(dir_path / "B.mtx", want_sparse=False)
    c = _read_mtx(dir_path / "C.mtx", want_sparse=False)
    e = None
    if (dir_path / "E.mtx").exists():
        e = _read_mtx(dir_path / "E.mtx", want_sparse=True)

    ahat_blocks, bhat_blocks = [], []
    i = 1
    while (dir_path / f"A{i}.mtx").exists():
        if not (dir_path / f"B{i}.mtx").exists():
            raise ProblemLoadError(f"A{i}.mtx present but B{i}.mtx missing")
        ahat_blocks.append(_read_mtx(dir_path / f"A{i}.mtx", want_sparse=True))
        bhat_blocks.append(_read_mtx(dir_path / f"B{i}.mtx", want_sparse=False))
        i += 1
    numbered = [_STOCHASTIC_FILE.fullmatch(f.name) for f in dir_path.iterdir()]
    stray = sorted((int(hit[2]), hit[1]) for hit in numbered if hit and int(hit[2]) >= i)
    if stray:
        j, kind = stray[0]
        raise ProblemLoadError(f"{kind}{j}.mtx is stray: A{i}.mtx is missing")

    has_l = (dir_path / "L.mtx").exists()
    has_r = (dir_path / "R.mtx").exists()
    if has_l != has_r:
        raise ProblemLoadError("L.mtx and R.mtx must be present together")
    try:
        if has_l:
            return OriginalProblem(
                a_list=[a, *ahat_blocks],
                b_list=[b, *bhat_blocks],
                c0=c,
                l=_read_mtx(dir_path / "L.mtx", want_sparse=False),
                r_weight=_read_mtx(dir_path / "R.mtx", want_sparse=False),
                e=e,
            )
        n, m = a.shape[0], b.shape[1]
        return StandardProblem(
            a=a,
            b=b,
            c=c,
            ahat=StackedMat.from_blocks(ahat_blocks, block_rows=n, block_cols=n),
            bhat=StackedMat.from_blocks(bhat_blocks, block_rows=n, block_cols=m),
            e=e,
        )
    except ConformabilityError as exc:
        raise ProblemLoadError(f"dimension mismatch in {dir_path}: {exc}") from exc


def gen_noise_blocks(a, b, ns: float, seed: int = 0):
    """One stochastic pair scaled from the base coefficients.

    Multiplies the base entries elementwise by uniform (0, 1] values on the
    base sparsity pattern, scaled by ``ns``, so the noise pattern is the base
    pattern and ``|A1|_F <= ns |A|_F``.
    """
    if ns < 0:
        raise ValueError("noise scale must be nonnegative")
    rng = np.random.default_rng(seed)
    a = sp.coo_matrix(a)
    vals = a.data * (1.0 - rng.random(a.nnz))  # uniform (0, 1]
    a1 = sp.csc_matrix(sp.coo_matrix((ns * vals, (a.row, a.col)), shape=a.shape))
    b = np.asarray(b, dtype=float)
    b1 = ns * b * (1.0 - rng.random(b.shape))
    return a1, b1


def gen_heat_problem(
    n: int, m: int, l: int, seed: int = 0, mass_matrix: bool = False,
    scale: float | None = None, damping: float = 0.0,
) -> StandardProblem:
    """Synthetic diffusion instance: stable 1D stencil, random unit input/output.

    A is the (n+1)^2-scaled second-difference stencil (symmetric negative
    definite), E optionally a tridiagonal SPD mass matrix, and B, C random
    dense with unit-norm columns/rows.  A deterministic desk-scale stand-in
    for the cooling-benchmark data when those are not on disk.

    ``scale`` overrides the (n+1)^2 stiffness and ``damping`` subtracts a
    multiple of the identity.  Both matter once multiplicative noise blocks
    are added on top: elementwise noise of relative size ns breaks the
    stencil's cancellation on smooth modes, contributing a mean-square
    growth of about 0.5 ns^2 scale^2 against a decay of only 2 |lambda_min|,
    so a stochastic instance that is meant to admit a stabilizing solution
    needs 2*damping to dominate that product.  (The cooling-benchmark data
    this stands in for have a much stronger slowest mode relative to their
    entry size than a fine pure stencil of equal dimension.)
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if damping < 0:
        raise ValueError("damping must be nonnegative")
    rng = np.random.default_rng(seed)
    scale = float((n + 1) ** 2) if scale is None else float(scale)
    ones = np.ones(n - 1)
    a = sp.csc_matrix(
        scale * sp.diags([ones, -2.0 * np.ones(n), ones], [-1, 0, 1])
        - damping * sp.identity(n)
    )
    e = None
    if mass_matrix:
        e = sp.csc_matrix(sp.diags([ones / 6.0, 4.0 / 6.0 * np.ones(n), ones / 6.0], [-1, 0, 1]))
    b = rng.standard_normal((n, m))
    b /= np.linalg.norm(b, axis=0, keepdims=True)
    c = rng.standard_normal((l, n))
    c /= np.linalg.norm(c, axis=1, keepdims=True)
    return StandardProblem(
        a=a,
        b=b,
        c=c,
        ahat=StackedMat.from_blocks([], block_rows=n, block_cols=n),
        bhat=StackedMat.from_blocks([], block_rows=n, block_cols=m),
        e=e,
    )


def with_noise_blocks(base: StandardProblem, scales, seed: int = 0) -> StandardProblem:
    """Extend an r = 1 problem with one stochastic pair per noise scale."""
    if base.r != 1:
        raise ValueError(f"noise blocks need an r = 1 base problem; this one has r = {base.r}")
    ahat, bhat = [], []
    for j, ns in enumerate(scales):
        a1, b1 = gen_noise_blocks(base.a, base.b, ns, seed=seed + j)
        ahat.append(a1)
        bhat.append(b1)
    return StandardProblem(
        a=base.a,
        b=base.b,
        c=base.c,
        ahat=StackedMat.from_blocks(ahat, block_rows=base.n, block_cols=base.n),
        bhat=StackedMat.from_blocks(bhat, block_rows=base.n, block_cols=base.m),
        e=base.e,
        f0=base.f0,
        kpi0=base.kpi0,
    )


@dataclass
class ExperimentConfig:
    """One grid specification; each cell solves with ``options`` and its variant's shift.

    A JSON config file names these fields, except ``options``: the solver
    knobs other than ``shift`` sit at its top level under their
    :class:`SolveOptions` names.
    """

    problem: str | None = None
    generate: dict | None = None  # {"kind": "heat", "n": ..., "m": ..., "l": ...}
    r_cases: list = field(default_factory=lambda: [1, 2, 5])
    noise_scales: list = field(default_factory=lambda: [1e-5, 1e-4, 1e-3, 1e-2])
    variants: list = field(default_factory=lambda: list(ALL_SHIFT_VARIANTS))
    options: SolveOptions = field(default_factory=SolveOptions)
    seed: int = 0
    output_dir: str | None = None

    def __post_init__(self):
        for name in ("problem", "output_dir"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, (str, os.PathLike)):
                raise ValueError(f"{name} must be a path, not {value!r}")
        if self.generate is not None and not isinstance(self.generate, dict):
            raise ValueError(f"generate must be an object, not {self.generate!r}")
        for name in ("r_cases", "noise_scales", "variants"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ValueError(f"{name} must be a list, not {getattr(self, name)!r}")
        check_count("seed", self.seed)
        for r in self.r_cases:
            check_count("r_cases entry", r, 1)
        for ns in self.noise_scales:
            check_real("noise_scales entry", ns, zero_ok=True)
        for v in self.variants:
            if not isinstance(v, (list, tuple)) or len(v) != 3:
                raise ValueError(f"variants entry must be [strategy, window_s, mode], not {v!r}")
        for key, value in (self.generate or {}).items():
            if key in ("n", "m", "l", "seed"):
                check_count(f"generate.{key}", value, 0 if key == "seed" else 1)
            elif key in ("scale", "damping") and value is not None:
                check_real(f"generate.{key}", value, zero_ok=key == "damping")
            elif key == "mass_matrix" and not isinstance(value, bool):
                raise ValueError(f"generate.mass_matrix must be true or false, not {value!r}")

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        """Load a config file; unknown keys and out-of-range options raise ValueError."""
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"{path} must hold a JSON object")
        option_keys = {f.name for f in fields(SolveOptions)} - {"shift"}
        unknown = set(raw) - (set(cls.__dataclass_fields__) - {"options"}) - option_keys
        if unknown:
            raise ValueError(f"unknown config keys in {path}: {sorted(unknown)}")
        options = SolveOptions(**{key: raw.pop(key) for key in option_keys & set(raw)})
        return cls(**raw, options=options)


def _base_problem(cfg: ExperimentConfig) -> StandardProblem:
    if cfg.problem:
        loaded = load_problem(cfg.problem)
        if isinstance(loaded, OriginalProblem):
            loaded = adapt_in_place(loaded)
        return loaded
    gen = dict(cfg.generate or {"kind": "heat", "n": 200, "m": 2, "l": 2})
    kind = gen.pop("kind", "heat")
    if kind != "heat":
        raise ValueError(f"unknown generator kind {kind!r}")
    gen.setdefault("seed", cfg.seed)
    return gen_heat_problem(**gen)


def _grid_cases(cfg: ExperimentConfig, base: StandardProblem):
    """(case label, problem) pairs following the benchmark design.

    Case 1 is the base problem as given, labelled by its own r.  A case
    r >= 2 adds r - 1 noise blocks, drawn from ``seed + 100`` on, to an
    r = 1 base: at r = 2 one case per noise scale, above that one case with
    the first r - 1 scales.  Where a scale sits in the list changes no case.
    """
    cases = []
    for r in cfg.r_cases:
        if r < 1 or r - 1 > len(cfg.noise_scales):
            raise ValueError(f"case r = {r} needs 1 <= r <= 1 + {len(cfg.noise_scales)}, "
                             "the number of noise scales")
        if r == 1:
            cases.append((f"r{base.r}", base))
        elif r == 2:
            for ns in cfg.noise_scales:
                p = with_noise_blocks(base, [ns], seed=cfg.seed + 100)
                cases.append((f"r2_ns{float(ns)!r}", p))
        else:
            p = with_noise_blocks(base, list(cfg.noise_scales)[: r - 1], seed=cfg.seed + 100)
            cases.append((f"r{r}", p))
    return cases


def grid_cells(cfg: ExperimentConfig) -> list[tuple[str, StandardProblem, SolveOptions]]:
    """Every (label, problem, options) cell of the grid, built before any runs.

    A label reads ``"<case>__<variant>"``, e.g. ``"r5__hami 1"``; an r = 2
    case carries its noise scale's shortest round-trip repr.  A config that
    cannot make its cells (a bad generator, an impossible case, a bad
    variant) raises here, and so does one whose cells share a label (a
    repeated noise scale, variant or r case), since the label names a
    cell's files and its summary row.
    """
    base = _base_problem(cfg)
    cells = [
        (f"{case}__{variant_label(*v)}", problem,
         replace(cfg.options, shift=ShiftConfig(*v)))
        for case, problem in _grid_cases(cfg, base)
        for v in cfg.variants
    ]
    shared = sorted(label for label, count in Counter(c[0] for c in cells).items() if count > 1)
    if shared:
        raise ValueError(f"grid cells share the labels {shared}")
    return cells


def run_single(p: StandardProblem, opts: SolveOptions, label: str,
               out_dir=None) -> RunReport:
    """Solve one cell and optionally persist its trace and summary."""
    _, report = radi_solve(p, opts)
    report.label = label
    report.config["provenance"] = f"scare-radi {__version__}"
    report.config["problem"] = {"n": p.n, "m": p.m, "l": p.l, "r": p.r,
                                "generalized": p.is_generalized}
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = re.sub(r"[^A-Za-z0-9._-]+", "_", label).strip("_")
        report.to_csv(out_dir / f"{stem}.csv")
        report.to_json(out_dir / f"{stem}.json")
    return report


def _worker_count(n_cells: int) -> int:
    env = os.environ.get("SCARE_RADI_THREADS")
    if not env:
        return 1
    if not env.strip().isdecimal() or int(env) < 1:
        raise ValueError(f"SCARE_RADI_THREADS must be a positive integer, got {env!r}")
    return max(min(int(env), n_cells), 1)


def run_grid(cfg: ExperimentConfig) -> list[RunReport]:
    """Run the full case x variant grid, one report per cell.

    A config that cannot make its cells raises before any cell runs (see
    :func:`grid_cells`).  Cells are independent and run on as many worker
    threads as the ``SCARE_RADI_THREADS`` environment variable says (default
    1); a value that is not a positive integer raises ``ValueError``.
    Failures inside a cell are recorded on its report instead of aborting the
    grid.
    """
    cells = grid_cells(cfg)

    def run_cell(cell):
        label, problem, opts = cell
        try:
            return run_single(problem, opts, label, cfg.output_dir)
        except Exception as exc:  # record per-cell failures like non-convergence
            report = RunReport(label=label, flags="x")
            report.config["error"] = f"{type(exc).__name__}: {exc}"
            return report

    with ThreadPoolExecutor(max_workers=_worker_count(len(cells))) as pool:
        reports = list(pool.map(run_cell, cells))

    if cfg.output_dir is not None:
        _write_summary_table(reports, Path(cfg.output_dir) / "summary.json")
    return reports


def _write_summary_table(reports, path: Path):
    """Compact (ite, dim, time, remark) table across all cells."""
    table = {}
    for rep in reports:
        table[rep.label] = {
            "ite": rep.iterations,
            "dim": rep.xi_width,
            "time": round(rep.wall_time, 4),
            "remark": rep.remark,
        }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
