"""Spans around the public functions of the solver's layers, and per-layer metrics.

The solver is not instrumented itself.  Instead, :class:`Tracer` replaces each
traced function under the name its caller looks it up by: ``engine`` and
``shifts`` bind their callees by name at import, so ``engine.trunc_svd`` (not
``kernels.trunc_svd``) is the name to replace, and methods are replaced on
their class.  Spans (name, start, end, parent, attributes) are kept in memory
and written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager

import numpy as np

# (span name, module or class attribute path, attribute).  The owner path is
# resolved against the imported ``scare_radi`` package.
TARGETS = [
    ("engine.radi_solve", "bench", "radi_solve"),
    ("engine.step_once", "engine", "step_once"),
    ("shifts.next_shift", "engine", "next_shift"),
    ("shifts.build_basis", "shifts", "build_basis"),
    ("shifts.hamiltonian_shifts", "shifts", "hamiltonian_shifts"),
    ("shifts.projection_shifts", "shifts", "projection_shifts"),
    ("kernels.factor_shifted", "engine", "factor_shifted"),
    ("kernels.row_solve", "kernels.ShiftedFactorization", "row_solve"),
    ("kernels.ltimes", "engine", "ltimes"),
    ("kernels.chol_spd", "engine", "chol_spd"),
    ("kernels.kron_gram", "engine", "kron_gram"),
    ("kernels.materialize_stack", "engine", "materialize_stack"),
    ("kernels.trunc_svd", "engine", "trunc_svd"),
    ("report.write", "report.RunReport", "to_csv"),
    ("report.write", "report.RunReport", "to_json"),
    ("bench.gen_heat_problem", "bench", "gen_heat_problem"),
    ("bench.with_noise_blocks", "bench", "with_noise_blocks"),
]


def _radi_attrs(args, kwargs, out):
    state, report = out
    cols = sum(row.cols_xi for row in report.rows)
    return {
        "discard_rel": state.nu_omega / state.nu0 if state.nu0 else 0.0,
        "xi_bytes": state.xi.nbytes,
        # every np.hstack of Xi copies the whole grown factor
        "xi_copy_bytes": state.xi.shape[0] * 8 * cols,
    }


def _trunc_attrs(args, kwargs, out):
    rows, cols = np.shape(args[0])
    return {"rows": rows, "tall": int(rows > cols), "rank": out.rank}


ATTRS = {
    "engine.radi_solve": _radi_attrs,
    "kernels.trunc_svd": _trunc_attrs,
    "kernels.row_solve": lambda a, k, out: {"rows": np.atleast_2d(a[1]).shape[0]},
    "kernels.chol_spd": lambda a, k, out: {"dim": np.atleast_2d(a[0]).shape[0]},
    "shifts.build_basis": lambda a, k, out: {"dim": out.shape[1]},
    "report.write": lambda a, k, out: {"bytes": os.path.getsize(a[1])},
}


def _resolve(package, path):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Records nested spans while its wrappers are installed.

    ``spans`` holds ``[name, start, end, parent_index, attrs]`` lists in start
    order; ``parent_index`` is -1 for a root span.  A span whose function
    raised carries ``{"error": <exception class name>}``.
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        attrs_fn = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span[4] = {"error": type(exc).__name__}
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if attrs_fn is not None:
                span[4] = attrs_fn(args, kwargs, out)
            return out

        return traced

    @contextmanager
    def installed(self, package):
        """Replace every target in ``package`` for the duration of the block."""
        saved = []
        try:
            for name, path, attr in TARGETS:
                owner = _resolve(package, path)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def summarize(spans) -> dict:
    """Per span name: calls, total and self seconds, and attribute aggregates.

    Self time is a span's duration minus the durations of its direct
    children; the traced code is single-threaded, so children never overlap.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        s = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0,
                                  "sum": {}, "max": {}})
        s["calls"] += 1
        s["s"] += end - start
        s["self_s"] += end - start - child[i]
        for key, value in (attrs or {}).items():
            if key == "error":
                s["errors"] += 1
                continue
            s["sum"][key] = s["sum"].get(key, 0) + value
            s["max"][key] = max(s["max"].get(key, value), value)
    return out


def _get(summary, name, field, key=None):
    entry = summary.get(name)
    if entry is None:
        return 0
    return entry[field] if key is None else entry[field].get(key, 0)


def layer_metrics(setup: dict, passes: list) -> dict:
    """Per-layer metric values: sums are means per traced pass, maxima over all.

    ``setup`` is the summary of the traced problem construction done before
    timing, ``passes`` the summaries of the traced passes.
    """
    n = len(passes)

    def per_pass(name, field, key=None):
        return sum(_get(p, name, field, key) for p in passes) / n

    def most(name, key):
        return max(_get(p, name, "max", key) for p in passes)

    calls_shift = per_pass("shifts.next_shift", "calls")
    recomputes = per_pass("shifts.build_basis", "calls")
    steps = per_pass("engine.step_once", "calls")
    rejected = per_pass("engine.step_once", "errors")
    discard = max(_get(p, "engine.radi_solve", "max", "discard_rel") for p in passes)
    return {
        "shifts.next_shift.calls": (calls_shift, "count"),
        "shifts.recompute.calls": (recomputes, "count"),
        "shifts.cache_hit_ratio": (1.0 - recomputes / calls_shift if calls_shift else 0.0,
                                   "ratio"),
        "shifts.next_shift.self_s": (per_pass("shifts.next_shift", "self_s"), "s"),
        "shifts.build_basis.s": (per_pass("shifts.build_basis", "s"), "s"),
        "shifts.basis_dim.max": (most("shifts.build_basis", "dim"), "count"),
        "shifts.hamiltonian_shifts.s": (per_pass("shifts.hamiltonian_shifts", "s"), "s"),
        "shifts.projection_shifts.s": (per_pass("shifts.projection_shifts", "s"), "s"),
        "kernels.factor_shifted.calls": (per_pass("kernels.factor_shifted", "calls"), "count"),
        "kernels.factor_shifted.s": (per_pass("kernels.factor_shifted", "s"), "s"),
        "kernels.row_solve.rows": (per_pass("kernels.row_solve", "sum", "rows"), "count"),
        "kernels.row_solve.s": (per_pass("kernels.row_solve", "s"), "s"),
        "kernels.trunc_svd.calls": (per_pass("kernels.trunc_svd", "calls"), "count"),
        "kernels.trunc_svd.s": (per_pass("kernels.trunc_svd", "s"), "s"),
        "kernels.trunc_svd.tall_calls": (per_pass("kernels.trunc_svd", "sum", "tall"), "count"),
        "kernels.trunc_svd.rows_in.max": (most("kernels.trunc_svd", "rows"), "count"),
        "kernels.trunc_svd.rank_kept.max": (most("kernels.trunc_svd", "rank"), "count"),
        "kernels.trunc_svd.discard_rel": (discard, "ratio"),
        "kernels.chol_spd.s": (per_pass("kernels.chol_spd", "s"), "s"),
        "kernels.chol_spd.dim.max": (most("kernels.chol_spd", "dim"), "count"),
        "kernels.kron_gram.s": (per_pass("kernels.kron_gram", "s"), "s"),
        "kernels.materialize_stack.s": (per_pass("kernels.materialize_stack", "s"), "s"),
        "kernels.ltimes.s": (per_pass("kernels.ltimes", "s"), "s"),
        "engine.step_once.calls": (steps, "count"),
        "engine.step_once.rejected": (rejected, "count"),
        "engine.step_accept_ratio": ((steps - rejected) / steps if steps else 0.0, "ratio"),
        "engine.step_once.self_s": (per_pass("engine.step_once", "self_s"), "s"),
        "engine.radi_solve.self_s": (per_pass("engine.radi_solve", "self_s"), "s"),
        "engine.xi_mb": (per_pass("engine.radi_solve", "sum", "xi_bytes") / 1e6, "MB"),
        "engine.xi_copy_gb_computed": (
            per_pass("engine.radi_solve", "sum", "xi_copy_bytes") / 1e9, "GB"),
        "report.write.s": (per_pass("report.write", "s"), "s"),
        "report.write.bytes": (per_pass("report.write", "sum", "bytes"), "bytes"),
        "bench.gen_heat_problem.s": (_get(setup, "bench.gen_heat_problem", "s"), "s"),
        "bench.with_noise_blocks.s": (_get(setup, "bench.with_noise_blocks", "s"), "s"),
    }


#: Span names whose self time sits next to each trace category of the report.
CATEGORY_SPANS = {
    "t_shift": ["shifts.next_shift", "shifts.build_basis", "shifts.hamiltonian_shifts",
                "shifts.projection_shifts"],
    "t_solve": ["kernels.factor_shifted", "kernels.row_solve"],
    "t_ltimes": ["kernels.ltimes"],
    "t_svd": ["kernels.trunc_svd"],
    "t_other": ["kernels.chol_spd", "kernels.kron_gram", "kernels.materialize_stack",
                "engine.step_once"],
}
