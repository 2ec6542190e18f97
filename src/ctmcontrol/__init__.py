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
    IsolatedNode,
    NegativeIntensity,
    NoConvergence,
    NotStronglyConnected,
    NumericOverflow,
    PolicyGridMismatch,
    ProblemFileError,
    SelfLoop,
    SingularSystem,
    StepSizeUnderflow,
    ZeroVariance,
)
from .finite_horizon import (
    Policy,
    PolicyMode,
    Problem,
    ValueTrajectory,
    extract_policy,
    output_grid,
    residual,
    solve_finite_horizon,
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
    ErgodicSolution,
    StationaryValue,
    semigroup_apply,
    solve_ergodic_direct,
    solve_ergodic_vanishing_discount,
    solve_stationary,
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
    "IsolatedNode",
    "NegativeIntensity",
    "NoConvergence",
    "NotStronglyConnected",
    "NumericOverflow",
    "PolicyGridMismatch",
    "ProblemFileError",
    "SelfLoop",
    "SingularSystem",
    "StepSizeUnderflow",
    "ZeroVariance",
    "Policy",
    "PolicyMode",
    "Problem",
    "ValueTrajectory",
    "extract_policy",
    "output_grid",
    "residual",
    "solve_finite_horizon",
    "Graph",
    "build_graph",
    "SolverOptions",
    "parse_problem_file",
    "serialize_problem_file",
    "SimulationReport",
    "estimate_value_gap",
    "evaluate_stationary_policy",
    "simulate",
    "ErgodicSolution",
    "StationaryValue",
    "semigroup_apply",
    "solve_ergodic_direct",
    "solve_ergodic_vanishing_discount",
    "solve_stationary",
    "__version__",
]
