"""Per-run convergence records and their CSV/JSON serialization."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields

__all__ = ["IterationRecord", "RunReport", "CSV_COLUMNS"]

TIMING_FIELDS = ("t_shift", "t_solve", "t_ltimes", "t_svd", "t_other")


@dataclass
class IterationRecord:
    k: int
    gamma: float
    nres: float
    cols_c: int
    cols_xi: int
    nu_omega: float
    t_shift: float = 0.0
    t_solve: float = 0.0
    t_ltimes: float = 0.0
    t_svd: float = 0.0
    t_other: float = 0.0
    svd_route: str = ""  # the truncation's route; empty on the initial row
    # "recompute" when the shift's projection was made at this iteration,
    # "cache" when an earlier one supplied it; empty on the initial row
    shift_src: str = ""
    basis_dim: int = 0  # dimension of the basis of that projection
    rejections: int = 0  # shifts rejected at this iteration before the accepted one
    cap_discard: float = 0.0  # energy the row cap moved into the truncation's discard

    def csv_row(self):
        return [_csv_cell(f, getattr(self, f.name)) for f in _FIELDS]

    def as_dict(self) -> dict:
        """The record as a flat dict of its fields, as ``dataclasses.asdict`` gives it.

        Every field is a scalar, so no field needs the deep copy ``asdict``
        makes.
        """
        return {f.name: getattr(self, f.name) for f in _FIELDS}


_FIELDS = fields(IterationRecord)


def _csv_cell(f, value):
    """Timings to the microsecond, other floats exactly, the rest as they are."""
    if f.name in TIMING_FIELDS:
        return f"{value:.6f}"
    return repr(value) if f.type == "float" else value


# The CSV header is the record's field names, three of them renamed.
CSV_COLUMNS = [
    {"k": "iter", "cols_c": "cols_C", "cols_xi": "cols_Xi"}.get(f.name, f.name)
    for f in _FIELDS
]


@dataclass
class RunReport:
    """Convergence trace plus summary of one solver run.

    ``flags`` carries ``"m"`` when the solution-factor width cap stopped the
    run and ``"t"`` when the truncation debt alone exceeded the tolerance, so
    that no later step could converge, and ``backend`` the route of the
    shifted factorization (``"ldlt"`` or ``"superlu"``).  ``xi_width`` is the
    column count of the returned solution factor, at most n in Gram form,
    and ``xi_discard`` the share of trace X that the pivoted Cholesky of
    X_tall, the factor in Gram form, left out (0 for a solve that never
    left factor form).  ``peak_rss_mb`` is
    the process's peak resident set size in MB once the run ended (Linux
    ``ru_maxrss``), None unless the run went through ``bench.run_single``;
    like ``wall_time`` it is a measurement, so the summary leaves it out
    without timings.
    """

    rows: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    xi_width: int = 0
    xi_discard: float = 0.0
    final_nres: float = 1.0
    wall_time: float = 0.0
    peak_rss_mb: float | None = None
    flags: str = ""
    backend: str = ""
    label: str = ""
    config: dict = field(default_factory=dict)

    @property
    def remark(self) -> str:
        """The grid tables' remark: the flags, else "ok" or the final nres."""
        return self.flags or ("ok" if self.converged else f"nres={self.final_nres:.3e}")

    @property
    def nres_history(self):
        return [row.nres for row in self.rows]

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for row in self.rows:
                writer.writerow(row.csv_row())

    def summary_dict(self, include_timings: bool = True) -> dict:
        out = {
            "label": self.label,
            "converged": self.converged,
            "iterations": self.iterations,
            "xi_width": self.xi_width,
            "xi_discard": self.xi_discard,
            "final_nres": self.final_nres,
            "flags": self.flags,
            "backend": self.backend,
            "config": self.config,
        }
        if include_timings:
            out["wall_time"] = self.wall_time
            out["peak_rss_mb"] = self.peak_rss_mb
        return out

    def numeric_content(self) -> dict:
        """Everything except wall times, for determinism comparisons."""
        rows = []
        for row in self.rows:
            d = row.as_dict()
            for name in TIMING_FIELDS:
                d.pop(name)
            rows.append(d)
        return {"rows": rows, "summary": self.summary_dict(include_timings=False)}

    def to_json(self, path):
        """The summary and every row, in one line of compact JSON.

        A non-finite float (the initial row's ``gamma`` is NaN) is written as
        ``null``, since JSON has no NaN or infinity.  ``json.dumps`` without
        indentation runs json's C encoder, where ``json.dump`` or an indent
        would run its pure-Python one.
        """
        payload = self.summary_dict()
        payload["rows"] = [r.as_dict() for r in self.rows]
        with open(path, "w") as fh:
            fh.write(json.dumps(_finite_or_null(payload), sort_keys=True, allow_nan=False))


def _finite_or_null(obj):
    """``obj`` with every non-finite float in it replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_finite_or_null(value) for value in obj]
    return obj
