"""Low-rank RADI-type solver for stochastic continuous-time algebraic
Riccati equations with sparse coefficients and cheap exact residual tracking."""

__version__ = "0.1.0"

from .engine import (  # noqa: F401
    SolveOptions,
    SolverState,
    init_state,
    nres_trace,
    radi_solve,
    step_once,
)
from .kernels import (  # noqa: F401
    StackedMat,
    TruncationResult,
    chol_spd,
    factor_shifted,
    ltimes,
    smw_row_solve,
    trunc_svd,
)
from .oracles import (  # noqa: F401
    NewtonOptions,
    alg1_init,
    alg1_step,
    care_schur_solve,
    ltimes_dense,
    ltimes_identities_check,
    newton_ref_solve,
    residual_formula_check,
    run_validation,
)
from .problems import (  # noqa: F401
    DenseSolution,
    OriginalProblem,
    StandardProblem,
    adapt_in_place,
    feedback_dense,
    feedback_original,
    incorporation_residual_dense,
    residual_dense,
    standardize,
)
from .report import RunReport  # noqa: F401
from .shifts import (  # noqa: F401
    ShiftCache,
    ShiftConfig,
    build_basis,
    hamiltonian_shifts,
    next_shift,
    projection_shifts,
)
