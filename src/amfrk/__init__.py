"""Factored-sweep implicit Runge-Kutta integration for split diffusion problems.

The package builds two-stage Radau IIA steps whose implicit stage systems are
never solved exactly: a small fixed number of inexact-Newton sweeps replaces
the stage matrix by a rank-structured approximation with a single eigenvalue,
so each sweep costs one tridiagonal solve per grid direction and stage.
Included: the split finite-difference operators, manufactured 2D/3D diffusion
problems with known solutions, the two-argument stability function with wedge
scans, and a convergence-study harness.
"""

from .harness import ConvergenceRow, StudyConfig, render_table, run_convergence, weighted_norm
from .integrator import (
    NonFiniteStateError,
    Stepper,
    StepRecord,
    integrate,
)
from .problems import SemidiscreteProblem, build_problem
from .splitops import (
    DirectionStencil,
    FactorSolveError,
    GridSpec,
    SplitOperator,
    apply_full,
    build_split_operator,
    factor_direction,
    solve_pi,
)
from .stability import (
    ComplexPoint,
    ScanResult,
    combine_zw,
    splitting_sup_bound,
    stability_function,
    wedge_stability_scan,
)
from .tableau import (
    SCHEME_IDS,
    AmfIteration,
    AmfScheme,
    ButcherTableau,
    amf_scheme,
    radau2a_tableau,
    scheme_sweeps,
    verify_scheme_conditions,
)

__all__ = [
    "AmfIteration",
    "AmfScheme",
    "ButcherTableau",
    "ComplexPoint",
    "ConvergenceRow",
    "DirectionStencil",
    "FactorSolveError",
    "GridSpec",
    "NonFiniteStateError",
    "SCHEME_IDS",
    "ScanResult",
    "SemidiscreteProblem",
    "SplitOperator",
    "StepRecord",
    "Stepper",
    "StudyConfig",
    "amf_scheme",
    "apply_full",
    "build_problem",
    "build_split_operator",
    "combine_zw",
    "factor_direction",
    "integrate",
    "radau2a_tableau",
    "render_table",
    "run_convergence",
    "scheme_sweeps",
    "solve_pi",
    "splitting_sup_bound",
    "stability_function",
    "verify_scheme_conditions",
    "weighted_norm",
    "wedge_stability_scan",
]
