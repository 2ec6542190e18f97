"""Finite-horizon value functions and feedback policies.

The value function of the intensity-control problem solves, node by
node, the backward equation

    dV_i/dt - r V_i + H(i, (V_j - V_i)_{j in V(i)}) = 0,   V_i(T) = g_i,

where H is the model's jump Hamiltonian. Internally the system is
integrated forward in time-to-go s = T - t with the adaptive
Runge-Kutta stepper, landing exactly on a uniform output grid; the
stored terminal row is the caller's g, bitwise. The optimal feedback
intensities are the conjugate maximizers evaluated on the value slopes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .costs import CostModel
from .ode import StepStats, integrate_grid

DEFAULT_RTOL = 1e-8
DEFAULT_ATOL = 1e-10

# 2^53 float64 entries fill all 64 PiB of the largest 64-bit address space
MAX_FLOATS = 2 ** 53


@dataclass(frozen=True)
class Problem:
    """A control problem instance on a fixed graph and cost model."""

    costs: CostModel
    terminal_payoff: np.ndarray = field(repr=False)
    horizon: float
    discount: float = 0.0

    def __post_init__(self):
        g = np.asarray(self.terminal_payoff, dtype=float)
        if g.shape != (self.costs.n_nodes,):
            raise ValueError(
                f"terminal payoff has shape {g.shape}, expected ({self.costs.n_nodes},)"
            )
        if not np.all(np.isfinite(g)):
            raise ValueError("terminal payoff has non-finite entries")
        object.__setattr__(self, "terminal_payoff", g)
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if not (self.discount >= 0.0 and math.isfinite(self.discount)):
            raise ValueError(f"discount must be nonnegative and finite, got {self.discount}")


def output_grid(horizon: float) -> np.ndarray:
    """Uniform output grid: max(256, ceil(64 T)) intervals on [0, T], at most MAX_FLOATS."""
    intervals = max(256, math.ceil(64.0 * horizon))
    if intervals >= MAX_FLOATS:
        raise ValueError(f"horizon {horizon!r} needs {intervals + 1:.3g} grid points, "
                         "more than an array can hold")
    return np.linspace(0.0, horizon, intervals + 1)


@dataclass(frozen=True)
class ValueTrajectory:
    """Values on the output grid, plus solver quality metadata.

    values[k, i] approximates V_i(grid[k]); the last row equals the
    problem's terminal payoff bitwise. max_residual is the equation
    residual of the stored values measured by ``residual`` below.
    """

    grid: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    max_residual: float
    step_count: int
    rejected_steps: int


class PolicyMode(enum.Enum):
    TIME_VARYING = "time-varying"
    STATIONARY = "stationary"


@dataclass(frozen=True)
class Policy:
    """Feedback jump intensities in canonical flat edge order.

    Time-varying policies store one row per grid point and are read as
    piecewise-constant in time, left-continuous: on (t_k, t_{k+1}] the
    row at t_{k+1} applies. Stationary policies store a single row.
    """

    mode: PolicyMode
    intensities: np.ndarray = field(repr=False)
    grid: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        lam = np.asarray(self.intensities, dtype=float)
        # two reductions, no mask the size of the table; a NaN fails both
        if lam.size and not (np.min(lam) >= 0.0 and np.max(lam) < math.inf):
            raise ValueError("policy intensities must be finite and nonnegative")
        if self.mode is PolicyMode.TIME_VARYING:
            if self.grid is None or lam.ndim != 2 or lam.shape[0] != self.grid.shape[0]:
                raise ValueError("time-varying policy needs one intensity row per grid point")
        elif lam.ndim != 1:
            raise ValueError("stationary policy takes a single intensity row")


def solve_finite_horizon(problem: Problem, rtol: float = DEFAULT_RTOL,
                         atol: float = DEFAULT_ATOL) -> ValueTrajectory:
    """Integrate the backward value equation onto the output grid.

    Works in time-to-go s = T - t, where the system reads
    dW/ds = H(W) - r W with W(0) = g, then reverses the rows in place. The
    returned max_residual includes finite-difference truncation of the
    grid, so it scales like (grid spacing)**8 on top of solver error.
    """
    model = problem.costs
    r = problem.discount
    grid = output_grid(problem.horizon)

    def rhs(_s, w, out):
        # H(w) - r w, with r w formed in out first
        np.multiply(w, r, out=out)
        np.subtract(model.hamiltonian_vector(w), out, out=out)

    values, stats = integrate_grid(rhs, grid, problem.terminal_payoff, rtol, atol)
    _reverse_rows(values)
    traj = ValueTrajectory(grid, values, float("nan"), stats.accepted, stats.rejected)
    return replace(traj, max_residual=residual(problem, traj))


# the trajectory consumers below map at most this many (row, edge)
# entries through an edge kernel at once, and never less than one row;
# the solve reverses its value rows in blocks of this many entries
_BLOCK_ENTRIES = 1 << 15


def _row_blocks(rows: int, width: int) -> list[tuple[int, int]]:
    """Half-open ranges covering 0..rows in blocks of _BLOCK_ENTRIES // width rows."""
    step = max(1, _BLOCK_ENTRIES // width)
    return [(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def _reverse_rows(a: np.ndarray) -> None:
    """Reverse the rows of a 2-D array in place, a block of row pairs at a time."""
    k = a.shape[0]
    for lo, hi in _row_blocks(k // 2, a.shape[1]):
        top = a[lo:hi].copy()
        a[lo:hi] = a[k - hi:k - lo][::-1]
        a[k - hi:k - lo] = top[::-1]


def extract_policy(problem: Problem, trajectory: ValueTrajectory) -> Policy:
    """Optimal feedback intensities along a solved value trajectory.

    Memory: the (K, edges) table plus O(block * edges) working arrays,
    where a block is about 2**15 / edges grid rows (one at least).
    """
    model, values = problem.costs, trajectory.values
    lam = np.empty((values.shape[0], model.n_edges))
    for lo, hi in _row_blocks(values.shape[0], model.n_edges):
        lam[lo:hi] = model.intensity_vector(values[lo:hi])
    return Policy(PolicyMode.TIME_VARYING, lam, trajectory.grid)


def _stencil_weights(nodes: np.ndarray, at: float) -> np.ndarray:
    """First-derivative weights on the given stencil nodes (unit spacing)."""
    n = nodes.shape[0]
    powers = np.vander(nodes - at, n, increasing=True).T
    rhs = np.zeros(n)
    rhs[1] = 1.0
    return np.linalg.solve(powers, rhs)


# nine-point stencils: centered in the bulk, offset near the ends,
# all with O(dt**8) truncation
_CENTER9 = _stencil_weights(np.arange(-4.0, 5.0), 0.0)
_OFFSET1 = _stencil_weights(np.arange(0.0, 9.0), 1.0)
_OFFSET2 = _stencil_weights(np.arange(0.0, 9.0), 2.0)
_OFFSET3 = _stencil_weights(np.arange(0.0, 9.0), 3.0)


def _time_derivative(values: np.ndarray, dt: float, lo: int, hi: int) -> np.ndarray:
    """Eighth-order finite differences of the rows lo+1..hi of the interior 1..M-1.

    Centered nine-point stencils away from the ends; the three rows
    nearest each end use offset nine-point stencils of the same order,
    so truncation stays O(dt**8) throughout. The high order matters:
    solutions develop a boundary layer at the terminal time whose
    higher derivatives would dominate a low-order difference. Each
    row's bits do not depend on the range it is computed in.
    """
    v = values
    m = v.shape[0] - 1
    d = np.empty((hi - lo, v.shape[1]))
    # interior row j + 1 is row j of the derivative; j in [3, m - 4) is centered
    c0, c1 = max(lo, 3), min(hi, m - 4)
    if c0 < c1:
        d[c0 - lo:c1 - lo] = sum(w * v[c0 + 1 + s: c1 + 1 + s]
                                 for s, w in zip(range(-4, 5), _CENTER9)) / dt
    for j, w in ((0, _OFFSET1), (1, _OFFSET2), (2, _OFFSET3)):
        if lo <= j < hi:
            d[j - lo] = (w @ v[:9]) / dt
    for j, w in ((m - 4, _OFFSET3), (m - 3, _OFFSET2), (m - 2, _OFFSET1)):
        if lo <= j < hi:
            d[j - lo] = -(w @ v[:-10:-1]) / dt
    return d


def residual(problem: Problem, trajectory: ValueTrajectory) -> float:
    """Max equation residual over interior grid points and nodes.

    Approximates dV/dt by finite differences on the stored grid and
    measures |dV/dt - r V + H(V)| in the infinity norm. Memory:
    O(block * edges), with the row blocks of ``extract_policy``; only
    each block's maximum is kept.
    """
    grid, values = trajectory.grid, trajectory.values
    if grid.shape[0] < 9:
        raise ValueError("residual needs at least nine grid points")
    dt = float(grid[1] - grid[0])
    model, r = problem.costs, problem.discount
    worst = []
    for lo, hi in _row_blocks(values.shape[0] - 2, model.n_edges):
        dvdt = _time_derivative(values, dt, lo, hi)
        interior = values[lo + 1:hi + 1]
        ham = model.hamiltonian_vector(interior)
        res = dvdt - r * interior + ham
        worst.append(np.max(np.abs(res)))
    return float(np.max(worst))

