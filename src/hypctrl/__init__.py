"""Boundary control of 1-D n-by-n hyperbolic systems.

Simulation, optimal control times, reflection-matrix admissibility,
backstepping kernels, finite-time stabilizing feedback, open-loop null
controls and observability checks, all at desk scale.
"""

from .core import (
    ControlSignal,
    CouplingField,
    GridSpec,
    HypctrlError,
    NumericalError,
    StateField,
    SystemSpec,
    ValidationError,
    build_system,
    state_from_exprs,
)
from .times import legacy_times, optimal_time, time_report, travel_times
from .bmatrix import (
    boundary_elimination,
    in_class_B,
    in_class_Be,
    trailing_minor_invertible,
)
from .simulator import characteristic_flow, solve_dual, solve_forward, zero_control
from .backstepping import (
    inverse_transform,
    preprocess_diagonal,
    solve_kernel,
    source_matrix,
    target_residual,
    transform,
)
from .controller import (
    null_control_openloop,
    optimality_witness,
    run_closed_loop,
    synthesize_feedback,
    verify_observability,
    verify_witness,
)

__version__ = "0.1.0"

__all__ = [
    "ControlSignal",
    "CouplingField",
    "GridSpec",
    "HypctrlError",
    "NumericalError",
    "StateField",
    "SystemSpec",
    "ValidationError",
    "build_system",
    "state_from_exprs",
    "legacy_times",
    "optimal_time",
    "time_report",
    "travel_times",
    "boundary_elimination",
    "in_class_B",
    "in_class_Be",
    "trailing_minor_invertible",
    "characteristic_flow",
    "solve_dual",
    "solve_forward",
    "zero_control",
    "inverse_transform",
    "preprocess_diagonal",
    "solve_kernel",
    "source_matrix",
    "target_residual",
    "transform",
    "null_control_openloop",
    "optimality_witness",
    "run_closed_loop",
    "synthesize_feedback",
    "verify_observability",
    "verify_witness",
    "__version__",
]
