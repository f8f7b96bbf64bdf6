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
    DenseSolution,
    NewtonOptions,
    alg1_init,
    alg1_step,
    care_schur_solve,
    feedback_original,
    incorporation_residual_dense,
    ltimes_dense,
    ltimes_identities_check,
    newton_ref_solve,
    residual_formula_check,
    run_validation,
    standardize,
)
from .problems import (  # noqa: F401
    OriginalProblem,
    StandardProblem,
    adapt_in_place,
    feedback_dense,
    residual_dense,
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
