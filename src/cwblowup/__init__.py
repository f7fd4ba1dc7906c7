"""Adaptive finite-difference solver for the Chipot-Weissler blow-up equation.

Solves u_t = u_xx + u^p - |u_x|^q on (-1, 1) with zero Dirichlet boundary
values and symmetric bump initial data, using an implicit-diffusion scheme
with adaptive time and space increments.  Provides runtime diagnostics for
numerical blow-up sets, bounds on the numerical blow-up time, and a grid
refinement harness for measuring the scheme's convergence order.
"""

from cwblowup.params import (
    ConfigError,
    InitialData,
    InitialDataError,
    SimParams,
    ValidationReport,
    load_config,
    make_initial,
    validate,
)
from cwblowup.grid import (
    GridState,
    build_grid,
    carry_to_grid,
    compute_h,
    compute_tau,
)
from cwblowup.state import SolutionState
from cwblowup.stepper import (
    SingularError,
    StepError,
    StepResult,
    StiffError,
    TriDiagSystem,
    assemble,
    solve_tridiag,
    step,
)
from cwblowup.simulator import (
    RunHistory,
    RunOutcome,
    RunStatus,
    run,
    tail_estimate,
)
from cwblowup.analysis import (
    BlowupReport,
    ConvergenceReport,
    RatioDiagnostics,
    TimeBounds,
    Verdict,
    amplitude_lower_bound,
    blowup_time_bounds,
    classify_blowup_set,
    convergence_study,
    geometric_upper_bound,
    peak_ratio_diagnostics,
)

__version__ = "0.1.0"

__all__ = [
    "BlowupReport",
    "ConfigError",
    "ConvergenceReport",
    "GridState",
    "InitialData",
    "InitialDataError",
    "RatioDiagnostics",
    "RunHistory",
    "RunOutcome",
    "RunStatus",
    "SimParams",
    "SingularError",
    "SolutionState",
    "StepError",
    "StepResult",
    "StiffError",
    "TimeBounds",
    "TriDiagSystem",
    "ValidationReport",
    "Verdict",
    "amplitude_lower_bound",
    "assemble",
    "blowup_time_bounds",
    "build_grid",
    "carry_to_grid",
    "classify_blowup_set",
    "compute_h",
    "compute_tau",
    "convergence_study",
    "geometric_upper_bound",
    "load_config",
    "make_initial",
    "peak_ratio_diagnostics",
    "run",
    "solve_tridiag",
    "step",
    "tail_estimate",
    "validate",
]
