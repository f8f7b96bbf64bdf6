"""Exception types shared across the solver stack, and the value checks of its options.

The one integer check and the one real-number check serve the solver
options, the shift configuration and the grid configuration alike.
"""

import math
import numbers


def check_count(name: str, value, low: int = 0) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is an integer >= ``low``, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, not {value!r}")


def check_real(name: str, value, zero_ok: bool = False) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is a finite real > 0 (0 too if zero_ok)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not 0 <= value < math.inf or (value == 0 and not zero_ok)):
        sign = "nonnegative" if zero_ok else "positive"
        raise ValueError(f"{name} must be a {sign} finite real number, not {value!r}")


class ScareError(Exception):
    """Base class for solver-specific failures."""


class ConformabilityError(ScareError):
    """Operands do not conform for the requested block product."""


class SpdViolationError(ScareError):
    """Cholesky factorization hit a non-positive pivot."""

    def __init__(self, pivot_index: int, message: str | None = None):
        self.pivot_index = pivot_index
        super().__init__(
            message
            or f"matrix is numerically indefinite: non-positive pivot at index {pivot_index}"
        )


class ShiftRejectionError(ScareError):
    """The current shift produced a singular or indefinite subproblem; pick another."""


class ShiftFailureError(ScareError):
    """No admissible shift could be produced."""


class BasisFailureError(ScareError):
    """Shift-basis construction received all-zero input."""


class NumericalBreakdownError(ScareError):
    """SPD structure was lost during the iteration."""

    def __init__(self, iteration: int, message: str | None = None):
        self.iteration = iteration
        super().__init__(message or f"numerical breakdown at iteration {iteration}")


class NoProgressError(ScareError):
    """Every candidate shift was rejected; the iteration cannot proceed."""


class DegenerateProblemError(ScareError):
    """Zero right-hand side: the solution is trivially zero."""


class AssumptionViolationError(ScareError):
    """Problem data violate a solvability assumption (e.g. the control weight is not SPD)."""


class DefinitenessError(ScareError):
    """A middle matrix that must be positive definite is singular or indefinite."""


class ProblemLoadError(ScareError):
    """Problem directory is missing files or holds inconsistent dimensions."""


class OracleFailureError(ScareError):
    """A dense reference solver failed to converge."""
