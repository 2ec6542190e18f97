"""Exception types raised across the library.

Every error that callers are expected to catch subclasses ControlError,
so ``except ControlError`` at a boundary (e.g. the CLI) is enough.
"""


class ControlError(Exception):
    """Base class for all errors raised by this package."""


# graph construction

class NotStronglyConnected(ControlError):
    """The directed graph is not strongly connected."""


class SelfLoop(ControlError):
    """An edge starts and ends at the same node."""


class DuplicateEdge(ControlError):
    """The same directed edge appears twice."""


class IsolatedNode(ControlError):
    """A node has no edge at all, neither outgoing nor incoming."""


# cost / Hamiltonian evaluation

class NegativeIntensity(ControlError):
    """A jump intensity was negative; intensities live on [0, inf)."""


class NumericOverflow(ControlError):
    """An intermediate quantity left the representable floating range."""


# ODE integration

class StepSizeUnderflow(ControlError):
    """Adaptive step control drove the step below the resolvable scale."""


# stationary / ergodic solvers

class NoConvergence(ControlError):
    """An iterative solver exhausted its budget without meeting tolerance."""


# simulation

class PolicyGridMismatch(ControlError):
    """A time-varying policy's grid does not cover the simulation horizon."""


class SingularSystem(ControlError):
    """The linear system for a policy evaluation is singular."""


class ZeroVariance(ControlError):
    """All sampled path costs coincide but disagree with the reference."""


class ProblemFileError(ControlError):
    """A problem file failed to parse or validate; carries a location hint."""
