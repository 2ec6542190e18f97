"""Monte Carlo verification of policies by exact jump-chain sampling.

Paths of the controlled chain are drawn without time discretization:
within each maximal span where a node's intensity row is constant the
holding hazard is linear in time, so the whole piecewise-linear
cumulative hazard is inverted exactly against a unit exponential draw.
Policies are piecewise constant and left continuous in time: the table
row attached to a grid point governs the interval ending at that point.

Each path gets its own counter-partitioned Philox stream derived from
the report seed, so results are reproducible and independent of path
order or count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from .costs import CostModel
from .errors import PolicyGridMismatch, SingularSystem, ZeroVariance
from .finite_horizon import Policy, PolicyMode, Problem

__all__ = [
    "SimulationReport",
    "simulate",
    "evaluate_stationary_policy",
    "estimate_value_gap",
]


@dataclass(frozen=True)
class SimulationReport:
    """Sample statistics of the pathwise objective under one policy."""

    n_paths: int
    mean_objective: float
    std_error: float
    seed: int
    start_node: int
    path_values: np.ndarray | None = field(default=None, repr=False)


class _NodeRuns:
    """Per-node compressed schedule: runs of constant intensity row.

    Stores run boundary times, the intensity row and its cumulative sum
    on each run, total exit rates, reward rates (negated running cost),
    the cumulative hazard at run boundaries, and prefix sums of the
    discounted per-run reward integrals. Consecutive grid intervals
    with bitwise-equal rows collapse into one run, so a stationary
    schedule is a single run over the whole horizon.
    """

    __slots__ = ("times", "lam", "cumlam", "rate", "reward", "cumhaz",
                 "cumrew", "discount", "dst")

    def __init__(self, times, lam, reward, dst, discount):
        self.times = times
        self.lam = lam
        self.cumlam = np.cumsum(lam, axis=1)
        self.rate = self.cumlam[:, -1].copy()
        self.reward = reward
        spans = np.diff(times)
        self.cumhaz = np.concatenate([[0.0], np.cumsum(self.rate * spans)])
        self.discount = discount
        if discount == 0.0:
            pieces = reward * spans
        else:
            decay = np.exp(-discount * times)
            pieces = reward * (decay[:-1] - decay[1:]) / discount
        self.cumrew = np.concatenate([[0.0], np.cumsum(pieces)])
        self.dst = dst

    def run_at(self, t: float) -> int:
        """Index of the run governing time t (left-continuous)."""
        return max(int(np.searchsorted(self.times, t, side="left")) - 1, 0)

    def hazard_at(self, t: float, p: int) -> float:
        return float(self.cumhaz[p] + self.rate[p] * (t - self.times[p]))

    def accrue(self, a: float, b: float, ka: int, kb: int) -> float:
        """Discounted reward over [a, b], with a in run ka, b in run kb.

        Assembled from exact per-run integrals: the prefix sums cover
        runs ka..kb in full, then the two partial stretches at the ends
        are pared off in closed form.
        """
        r = self.discount
        head = self.reward[ka] * _discount_weight(r, float(self.times[ka]), a)
        tail = self.reward[kb] * _discount_weight(r, b, float(self.times[kb + 1]))
        return float(self.cumrew[kb + 1] - self.cumrew[ka]) - head - tail


def _compress(problem: Problem, policy: Policy) -> list[_NodeRuns]:
    model = problem.costs
    horizon = problem.horizon
    if policy.mode is PolicyMode.STATIONARY:
        if policy.intensities.shape != (model.n_edges,):
            raise PolicyGridMismatch(
                f"stationary table has shape {policy.intensities.shape}, "
                f"expected ({model.n_edges},)"
            )
        rows = policy.intensities[None, :]
        boundaries = [np.array([0.0, horizon])] * model.n_nodes
        starts = [np.array([0])] * model.n_nodes
    else:
        if policy.grid is None:
            raise PolicyGridMismatch("time-varying policy carries no grid")
        if policy.intensities.shape[1] != model.n_edges:
            raise PolicyGridMismatch(
                f"policy table has {policy.intensities.shape[1]} columns, "
                f"model has {model.n_edges} edges"
            )
        if policy.grid[0] != 0.0 or policy.grid[-1] != horizon:
            raise PolicyGridMismatch(
                f"policy grid spans [{policy.grid[0]}, {policy.grid[-1]}], "
                f"problem horizon is [0, {horizon}]"
            )
        # interval k = (t_k, t_{k+1}] is governed by row k+1
        rows = policy.intensities[1:]
        boundaries = None
        starts = None

    tables = []
    for i in range(model.n_nodes):
        sl = model.node_slice(i)
        node_rows = rows[:, sl]
        if starts is None:
            changed = np.any(node_rows[1:] != node_rows[:-1], axis=1)
            start_idx = np.concatenate([[0], np.flatnonzero(changed) + 1])
            times = np.concatenate([policy.grid[start_idx], [horizon]])
        else:
            start_idx = starts[i]
            times = boundaries[i]
        lam = node_rows[start_idx]
        reward = -np.sum(model.cost_terms(lam, sl), axis=1)
        tables.append(_NodeRuns(times, lam, reward, model.edge_dst[sl],
                                problem.discount))
    return tables


def _discount_weight(r: float, a: float, b: float) -> float:
    """Integral of e^{-r t} over [a, b], exact in both discount regimes."""
    if r == 0.0:
        return b - a
    return (math.exp(-r * a) - math.exp(-r * b)) / r


def _path_value(problem: Problem, tables: list[_NodeRuns], start: int,
                rng: Generator, jump_log: list | None = None) -> float:
    r = problem.discount
    horizon = problem.horizon
    node = start
    t = 0.0
    total = 0.0
    while True:
        runs = tables[node]
        p = runs.run_at(t)
        target = runs.hazard_at(t, p) - math.log1p(-rng.random())
        q = int(np.searchsorted(runs.cumhaz, target, side="right")) - 1
        if q >= len(runs.rate) or target >= runs.cumhaz[-1]:
            t_jump = horizon
            kb = len(runs.rate) - 1
        else:
            t_jump = min(runs.times[q] + (target - runs.cumhaz[q]) / runs.rate[q],
                         horizon)
            kb = q
        total += runs.accrue(t, t_jump, p, kb)
        if t_jump >= horizon:
            break
        # the jump lands inside run q a.s., so its row drives the selection
        u = rng.random() * runs.rate[q]
        edge = min(int(np.searchsorted(runs.cumlam[q], u, side="right")),
                   len(runs.dst) - 1)
        if jump_log is not None:
            jump_log.append((t_jump, node, int(runs.dst[edge])))
        node = int(runs.dst[edge])
        t = t_jump
    total += math.exp(-r * horizon) * float(problem.terminal_payoff[node])
    return total


def simulate(problem: Problem, policy: Policy, start_node: int, n_paths: int,
             seed: int, keep_paths: bool = False) -> SimulationReport:
    """Estimate the objective from start_node by exact path sampling.

    Draws n_paths independent trajectories of the chain controlled by
    the policy, accumulating discounted rewards and the discounted
    terminal payoff along each, and reports their mean and standard
    error. Path p uses the Philox stream with key seed and counter
    block p, so the estimate is reproducible bit for bit and any prefix
    of paths is unaffected by the total count.
    """
    model = problem.costs
    if not 0 <= start_node < model.n_nodes:
        raise ValueError(f"start node {start_node} out of range for {model.n_nodes} nodes")
    if n_paths < 1:
        raise ValueError(f"need at least one path, got {n_paths}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    tables = _compress(problem, policy)
    values = np.empty(n_paths)
    for p in range(n_paths):
        rng = Generator(Philox(key=seed, counter=[0, p, 0, 0]))
        values[p] = _path_value(problem, tables, start_node, rng)
    mean = float(np.mean(values))
    if n_paths > 1:
        se = float(np.std(values, ddof=1) / math.sqrt(n_paths))
    else:
        se = float("nan")
    return SimulationReport(n_paths, mean, se, seed, start_node,
                            values if keep_paths else None)


def evaluate_stationary_policy(model: CostModel, policy: Policy, r: float) -> np.ndarray:
    """Exact discounted value of a fixed intensity table at every node.

    Writes the one-step balance (r + exit rate) u_i = reward_i +
    sum_j lam_ij u_j as the dense linear system (r I - Q) u = reward,
    with Q the policy's generator, and solves it. Requires a
    stationary policy and a positive discount; a singular system (which
    a positive discount rules out for finite rates) is reported rather
    than solved in least squares.
    """
    if policy.mode is not PolicyMode.STATIONARY:
        raise ValueError("evaluation needs a stationary policy")
    if policy.intensities.shape != (model.n_edges,):
        raise PolicyGridMismatch(
            f"stationary table has shape {policy.intensities.shape}, "
            f"expected ({model.n_edges},)"
        )
    if not r > 0.0:
        raise ValueError(f"discount must be positive, got {r}")
    lam = policy.intensities
    a = -model.generator(lam)
    a[np.diag_indices_from(a)] += r
    b = -model.running_cost_vector(lam)
    try:
        u = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"policy evaluation system is singular: {exc}") from exc
    return u


def estimate_value_gap(report: SimulationReport, reference: float) -> float:
    """Standardized gap (mean - reference) / std_error of a simulation.

    A degenerate sample, meaning a standard error at or below the
    roundoff floor 1e-12 (1 + |reference|), yields exactly zero when
    the mean matches the reference to 1e-9 relative, and raises
    ZeroVariance otherwise since no statistical scale exists to judge
    the discrepancy.
    """
    gap = report.mean_objective - float(reference)
    if report.std_error <= 1e-12 * (1.0 + abs(reference)):
        if abs(gap) <= 1e-9 * (1.0 + abs(reference)):
            return 0.0
        raise ZeroVariance(
            f"degenerate sample: paths agree to roundoff but the mean "
            f"differs from the reference by {gap:.3e}"
        )
    return gap / report.std_error
