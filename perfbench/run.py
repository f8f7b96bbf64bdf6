#!/usr/bin/env python3
"""Benchmark of the scare-radi solver, one workload per process.

    python3 perfbench/run.py --workload c9-stoch-n300 --seed 0 --seconds 45 --trace 0

The solver is imported from ``src/`` next to this directory; nothing is built.
A run sets up (imports, a tiny warm-up solve, problem construction from the
seed), then repeats passes over the workload's solves until ``--seconds`` of
solving have been measured, and afterwards checks every distinct solution
factor independently (``checks.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics from the traced
ones, plus the tracing overhead.  Each metric is printed on its own line with
its unit, and the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A result file
with the environment, every solve, the program's own per-category times and,
when traced, all spans goes to ``perfbench/out/``.  The exit code is 1 when a
solve failed, raised or missed the independent check.

BLAS runs on one thread: on a 2-core machine two OpenBLAS threads made these
solves 2.5x slower and their times several times noisier.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_ROUNDS = 3
CATEGORIES = ("t_shift", "t_solve", "t_ltimes", "t_svd", "t_other")


class SetupError(Exception):
    """The checkout cannot run the benchmark (missing source, unknown workload)."""


@dataclass
class Setup:
    """What a run works with once set up."""

    package: object  # the imported scare_radi package
    checks: object
    tracing: object
    workload: object
    built: object  # the workload's (problem, options) list for the seed
    setup_spans: list  # spans of the traced problem construction


def set_up(workload: str, seed: int, trace: bool) -> Setup:
    """Import the solver from the checkout, warm it up and build the workload."""
    if not (SRC / "scare_radi" / "__init__.py").is_file():
        raise SetupError(f"no solver source under {SRC}")
    sys.path.insert(0, str(SRC))
    import scare_radi

    if Path(scare_radi.__file__).resolve().parent != SRC / "scare_radi":
        raise SetupError(f"scare_radi was imported from {scare_radi.__file__}, not {SRC}")
    import checks
    import tracing
    import workloads

    if workload not in workloads.WORKLOADS:
        raise SetupError(f"unknown workload {workload!r}; known: {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[workload]
    workloads.warm_up()
    tracer = tracing.Tracer() if trace else None
    with tracer.installed(scare_radi) if trace else nullcontext():
        built = wl.build(seed)
    return Setup(scare_radi, checks, tracing, wl, built, tracer.spans if trace else [])


class Recorder:
    """Times and records each solve; keeps each distinct Xi on disk for the check.

    A solve is identified by its position in the pass.  Repeats of a solve
    whose Xi hashes the same as an already saved one reuse its check.
    """

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.records = []
        self.saved = {}  # (position, digest) -> .npy path
        self.problems = {}  # position -> (problem, tolerance)
        self.overhead = 0.0  # bookkeeping time spent inside passes
        self.pass_index = 0
        self._position = 0

    def start_pass(self, index: int):
        self.pass_index = index
        self._position = 0

    def solve(self, fn, problem, opts):
        import numpy as np

        pos = self._position
        self._position += 1
        t0 = time.perf_counter()
        try:
            state, report = fn(problem, opts)
        except Exception as exc:
            self.records.append({"pass": self.pass_index, "solve": pos,
                                 "seconds": time.perf_counter() - t0,
                                 "error": f"{type(exc).__name__}: {exc}"})
            raise
        t1 = time.perf_counter()
        xi = np.ascontiguousarray(state.xi)
        digest = hashlib.blake2b(xi, digest_size=16).hexdigest()
        if (pos, digest) not in self.saved:
            path = self.tmp / f"{pos}-{digest}.npy"
            np.save(path, xi)
            self.saved[(pos, digest)] = path
            self.problems.setdefault(pos, (problem, opts.tol_nres))
        self.records.append({
            "pass": self.pass_index,
            "solve": pos,
            "seconds": t1 - t0,
            "iterations": report.iterations,
            "xi_width": report.xi_width,
            "nres": report.final_nres,
            "converged": report.converged,
            "flags": report.flags,
            "digest": digest,
            "categories": {c: sum(getattr(row, c) for row in report.rows) for c in CATEGORIES},
        })
        self.overhead += time.perf_counter() - t1
        return state, report


def measure(s: Setup, seconds: float, trace: bool, tmp: Path, report_dir: Path):
    """Repeat passes until ``seconds`` of pass time are used; returns (recorder, passes).

    With ``trace`` the passes alternate untraced and traced, starting
    untraced, and at least one of each is made.
    """
    rec = Recorder(tmp)
    passes = []
    used = last = 0.0
    # stop at the pass boundary nearest to ``seconds``
    while used + last / 2 < seconds or (trace and len(passes) < 2):
        traced = trace and len(passes) % 2 == 1
        tracer = s.tracing.Tracer() if traced else None
        rec.start_pass(len(passes))
        before = rec.overhead
        with tracer.installed(s.package) if traced else nullcontext():
            t0 = time.perf_counter()
            s.workload.run_pass(s.built, rec.solve, report_dir)
            wall = time.perf_counter() - t0
        pass_s = wall - (rec.overhead - before)
        passes.append({"traced": traced, "seconds": pass_s,
                       "spans": tracer.spans if traced else None})
        used += pass_s
        last = pass_s
    return rec, passes


def check_all(s: Setup, rec: Recorder) -> dict:
    """Independent check of every distinct saved Xi, keyed like ``rec.saved``."""
    import numpy as np

    verdicts = {}
    for (pos, digest), path in rec.saved.items():
        problem, tol = rec.problems[pos]
        try:
            verdicts[(pos, digest)] = s.checks.check_solution(problem, np.load(path), tol)
        except Exception as exc:
            verdicts[(pos, digest)] = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        path.unlink()
    return verdicts


def _failure(record: dict, verdicts: dict) -> str | None:
    if "error" in record:
        return record["error"]
    if not record["converged"] or record["flags"]:
        return f"not converged (flags {record['flags']!r}, nres {record['nres']:.3e})"
    verdict = verdicts[(record["solve"], record["digest"])]
    if not verdict["ok"]:
        return f"independent check failed: {verdict}"
    return None


def end_to_end(passes, records, setup_samples, peak_rss_mb) -> dict:
    """The end-to-end metrics from the untraced passes."""
    import numpy as np

    untraced = [i for i, p in enumerate(passes) if not p["traced"]]

    def per_pass_sum(field):
        return statistics.median(
            sum(r.get(field, 0) for r in records if r["pass"] == i) for i in untraced)

    cells = [r["seconds"] for r in records if r["pass"] in untraced]
    # Median of each solve over the passes, plus the median of the pass time
    # spent outside the solves (writing each solve's trace and summary).
    solves = sorted({r["solve"] for r in records})
    outside = [passes[i]["seconds"] - sum(r["seconds"] for r in records if r["pass"] == i)
               for i in untraced]
    solve_s = statistics.median(outside) + sum(
        statistics.median(r["seconds"] for r in records if r["solve"] == j and r["pass"] in untraced)
        for j in solves)
    return {
        "solve_s": (solve_s, "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "iterations": (per_pass_sum("iterations"), "count"),
        "xi_width": (per_pass_sum("xi_width"), "count"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "cell_s.p50": (float(np.percentile(cells, 50)), "s"),
        "cell_s.p85": (float(np.percentile(cells, 85)), "s"),
    }


def cross_check(s: Setup, passes, records, summaries) -> dict:
    """Report categories next to span self times, and the tracing overhead."""
    traced = [i for i, p in enumerate(passes) if p["traced"]]
    n = len(traced)
    categories = {c: sum(r.get("categories", {}).get(c, 0.0)
                         for r in records if r["pass"] in traced) / n for c in CATEGORIES}
    spans = {
        c: sum(summ.get(name, {}).get("self_s", 0.0)
               for summ in summaries for name in names) / n
        for c, names in s.tracing.CATEGORY_SPANS.items()
    }
    untraced_s = statistics.median(p["seconds"] for p in passes if not p["traced"])
    traced_s = statistics.median(p["seconds"] for p in passes if p["traced"])
    return {
        "report_category_s_per_pass": categories,
        "span_self_s_per_pass": spans,
        "untraced_solve_s": untraced_s,
        "traced_solve_s": traced_s,
        "tracing_overhead_s": traced_s - untraced_s,
        "tracing_overhead_frac": (traced_s - untraced_s) / untraced_s,
    }


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_sha256():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas_threads():
    """Thread counts reported by each OpenBLAS library numpy and scipy loaded."""
    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in glob.glob(str(libdir / "*openblas*")):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[Path(lib).name] = fn()
                    break
    return found


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads(),
                 "env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def setup_samples(args, first: float) -> list:
    """Set-up seconds of this process and of fresh processes doing only set-up."""
    samples = [first]
    for _ in range(SETUP_ROUNDS - 1):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            capture_output=True, text=True, timeout=150, check=True,
        )
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up seconds as JSON and exit")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def run(args, t_start: float) -> tuple[dict, dict]:
    """One benchmark run; returns (final result line, full result record)."""
    s = set_up(args.workload, args.seed, bool(args.trace))
    setup_s = time.perf_counter() - t_start
    if args.setup_only:
        return {"setup_s": setup_s}, {}
    samples = [setup_s] if args.trace else setup_samples(args, setup_s)

    OUT.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        rec, passes = measure(s, args.seconds, bool(args.trace), tmp, tmp / "reports")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        verdicts = check_all(s, rec)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for r in rec.records:
        r["failure"] = _failure(r, verdicts)
        if "digest" in r:
            r["check"] = verdicts[(r["solve"], r["digest"])]
    failed = sum(r["failure"] is not None for r in rec.records)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(args.seed),
        "setup_s_samples": samples, "peak_rss_mb": peak_rss_mb,
        "passes": [{"traced": p["traced"], "seconds": p["seconds"]} for p in passes],
        "solves": rec.records,
    }
    if args.trace:
        summaries = [s.tracing.summarize(p["spans"]) for p in passes if p["traced"]]
        metrics = s.tracing.layer_metrics(s.tracing.summarize(s.setup_spans), summaries)
        record["cross_check"] = cross_check(s, passes, rec.records, summaries)
        record["spans"] = {"fields": ["name", "start", "end", "parent", "attrs"],
                           "setup": s.setup_spans,
                           "passes": [p["spans"] for p in passes if p["traced"]]}
    else:
        metrics = end_to_end(passes, rec.records, samples, peak_rss_mb)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result = {"correct": failed == 0, "attempted": len(rec.records), "failed": failed,
              "metrics": record["metrics"]}
    return result, record


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    try:
        result, record = run(args, t_start)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps(result))
        return 0

    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))
    for r in record["solves"]:
        if r["failure"]:
            print(f"FAILED pass {r['pass']} solve {r['solve']}: {r['failure']}")
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':36s} {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} solves)")
    if args.trace:
        cc = record["cross_check"]
        print(f"tracing overhead: {cc['tracing_overhead_s']:.4f} s per pass "
              f"({cc['tracing_overhead_frac']:+.2%} of {cc['untraced_solve_s']:.4f} s)")
    print(f"result file: {path.relative_to(ROOT)}")
    print(json.dumps(result, allow_nan=False))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    # Set before numpy loads OpenBLAS.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
