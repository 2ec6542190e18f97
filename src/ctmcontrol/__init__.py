"""Optimal control of continuous-time chains on finite directed graphs.

The library solves the coupled backward value equations of a jump
process whose transition intensities are chosen optimally against a
convex running cost, on a strongly connected directed graph:

* finite-horizon values and optimal intensity tables;
* discounted stationary values;
* the ergodic growth rate and its corrector, by two independent
  routes, with long-run diagnostics for the de-drifted flow;
* exact Monte Carlo verification of solved policies;
* a strict JSON problem-file format and a CLI wrapping it all.
"""

from .costs import (
    CostFamily,
    CostModel,
    EdgeCost,
    cost,
    hamiltonian,
    optimal_intensities,
)
from .errors import (
    ControlError,
    DuplicateEdge,
    HypothesisUnmet,
    IsolatedNode,
    MonotonicityViolation,
    NegativeIntensity,
    NoConvergence,
    NotStronglyConnected,
    NumericOverflow,
    PolicyGridMismatch,
    PreconditionUnmet,
    ProblemFileError,
    SelfLoop,
    SingularSystem,
    StepSizeUnderflow,
    StrictnessViolation,
    ZeroVariance,
)
from .finite_horizon import (
    ComparisonReport,
    Policy,
    PolicyMode,
    Problem,
    ValueTrajectory,
    extract_policy,
    output_grid,
    residual,
    solve_finite_horizon,
    verify_comparison,
)
from .graph import Graph, build_graph
from .problem_io import SolverOptions, parse_problem_file, serialize_problem_file
from .simulate import (
    SimulationReport,
    estimate_value_gap,
    evaluate_stationary_policy,
    simulate,
)
from .stationary import (
    ErgodicMethod,
    ErgodicSolution,
    MaxPrincipleReport,
    QDiagnostic,
    StationaryComparisonReport,
    StationaryValue,
    check_strong_max_principle,
    q_diagnostic,
    semigroup_apply,
    solve_ergodic_direct,
    solve_ergodic_vanishing_discount,
    solve_stationary,
    verify_stationary_comparison,
)

__version__ = "0.1.0"

__all__ = [
    "CostFamily",
    "CostModel",
    "EdgeCost",
    "cost",
    "hamiltonian",
    "optimal_intensities",
    "ControlError",
    "DuplicateEdge",
    "HypothesisUnmet",
    "IsolatedNode",
    "MonotonicityViolation",
    "NegativeIntensity",
    "NoConvergence",
    "NotStronglyConnected",
    "NumericOverflow",
    "PolicyGridMismatch",
    "PreconditionUnmet",
    "ProblemFileError",
    "SelfLoop",
    "SingularSystem",
    "StepSizeUnderflow",
    "StrictnessViolation",
    "ZeroVariance",
    "ComparisonReport",
    "Policy",
    "PolicyMode",
    "Problem",
    "ValueTrajectory",
    "extract_policy",
    "output_grid",
    "residual",
    "solve_finite_horizon",
    "verify_comparison",
    "Graph",
    "build_graph",
    "SolverOptions",
    "parse_problem_file",
    "serialize_problem_file",
    "SimulationReport",
    "estimate_value_gap",
    "evaluate_stationary_policy",
    "simulate",
    "ErgodicMethod",
    "ErgodicSolution",
    "MaxPrincipleReport",
    "QDiagnostic",
    "StationaryComparisonReport",
    "StationaryValue",
    "check_strong_max_principle",
    "q_diagnostic",
    "semigroup_apply",
    "solve_ergodic_direct",
    "solve_ergodic_vanishing_discount",
    "solve_stationary",
    "verify_stationary_comparison",
    "__version__",
]
