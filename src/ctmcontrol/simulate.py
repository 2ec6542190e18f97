"""Monte Carlo verification of policies by exact jump-chain sampling.

Paths of the controlled chain are drawn without time discretization:
within each maximal span where a node's intensity row is constant the
holding hazard is linear in time, so the whole piecewise-linear
cumulative hazard is inverted exactly against a unit exponential draw.
Policies are piecewise constant and left continuous in time: the table
row attached to a grid point governs the interval ending at that point.

Paths are sampled in batched rounds: each round advances every live
path of a chunk by one jump, with the run lookup, the hazard inversion
and the edge choice done over arrays of paths. Path p reads its own
counter-partitioned Philox stream, the one numpy's Philox(key=seed,
counter=[0, p, 0, 0]) gives, so results are reproducible bit for bit
and independent of path order, path count and batching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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


_CHUNK = 1024  # paths advanced together; bounds the batch arrays' memory
_ROUNDS = 8    # rounds (two draws each) that one fill of a path's draws covers

# Philox4x64-10 as in Random123 and numpy: the multipliers of counter
# words 0 and 2, and the per-round key increments
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None, None]
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_MASK64 = (1 << 64) - 1
_LOW, _SHIFT = np.uint64(0xFFFFFFFF), np.uint64(32)
_M_LO, _M_HI = _PHILOX_M & _LOW, _PHILOX_M >> _SHIFT


def _mulhilo(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products _PHILOX_M * x, over 32-bit limbs."""
    x_lo, x_hi = x & _LOW, x >> _SHIFT
    ll, lh, hl = _M_LO * x_lo, _M_LO * x_hi, _M_HI * x_lo
    mid = (ll >> _SHIFT) + (lh & _LOW) + (hl & _LOW)
    hi = _M_HI * x_hi + (lh >> _SHIFT) + (hl >> _SHIFT) + (mid >> _SHIFT)
    return hi, _PHILOX_M * x


def _uniforms(seed: int, paths: np.ndarray, start: int, count: int) -> np.ndarray:
    """Draws start .. start + count - 1 of each path's stream, in [0, 1).

    The stream of path p is numpy's Philox(key=seed, counter=[0, p, 0,
    0]) read through Generator.random: draw d is word d % 4 of the
    Philox4x64-10 block at counter [d // 4 + 1, p, 0, 0] under the key
    [seed mod 2^64, seed >> 64], scaled to [0, 1) from its top 53 bits.
    """
    first = start // 4
    n_blocks = (start + count - 1) // 4 - first + 1
    # counter words 0 and 2 in a, words 1 and 3 in b
    a = np.zeros((2, len(paths), n_blocks), dtype=np.uint64)
    b = np.zeros_like(a)
    a[0] = np.arange(first + 1, first + n_blocks + 1, dtype=np.uint64)
    b[0] = np.asarray(paths, dtype=np.uint64)[:, None]
    key = [seed & _MASK64, seed >> 64]
    for rnd in range(10):
        if rnd:
            key = [(k + w) & _MASK64 for k, w in zip(key, _PHILOX_W)]
        hi, lo = _mulhilo(a)
        a, b = hi[::-1] ^ b ^ np.array(key, dtype=np.uint64)[:, None, None], lo[::-1]
    words = np.stack([a[0], b[0], a[1], b[1]], axis=-1).reshape(len(paths), 4 * n_blocks)
    words = words[:, start - 4 * first:start - 4 * first + count]
    return (words >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)


@dataclass(frozen=True)
class _Schedule:
    """Every node's runs of constant intensity row, in flat arrays.

    Node i owns runs first[i] .. first[i+1] - 1 of the per-run arrays:
    the total exit rate, the reward rate (negated running cost) and
    ``row``, where the run's cumulative intensity row over the node's
    edges starts in ``lam_keys``. Its run boundaries are entries
    first[i] + i .. first[i+1] + i of the per-boundary arrays, which
    hold one more entry per node: the boundary times, the cumulative
    hazard, and prefix sums of the discounted per-run reward integrals.
    Consecutive grid intervals with bitwise-equal rows collapse into one
    run, so a stationary schedule is a single run per node.

    The ``*_keys`` arrays pair each value with its node (for boundaries)
    or run (for intensity rows) as a complex number: numpy orders complex
    numbers lexicographically, so one searchsorted over the whole array
    searches within each path's own segment. ``times`` and ``cumhaz``
    are views of their keys' imaginary parts.
    """

    first: np.ndarray
    times: np.ndarray
    time_keys: np.ndarray
    cumhaz: np.ndarray
    hazard_keys: np.ndarray
    cumrew: np.ndarray
    rate: np.ndarray
    reward: np.ndarray
    row: np.ndarray
    lam_keys: np.ndarray


def _keys(major: np.ndarray, minor: np.ndarray) -> np.ndarray:
    """The pairs (major, minor) as complex numbers, exactly."""
    keys = np.empty(len(minor), dtype=complex)
    keys.real, keys.imag = major, minor
    return keys


def _compress(problem: Problem, policy: Policy) -> _Schedule:
    model = problem.costs
    horizon = problem.horizon
    r = problem.discount
    if policy.mode is PolicyMode.STATIONARY:
        # a stationary policy is a one-run schedule over the horizon
        grid, rows = np.array([0.0, horizon]), policy.intensities[None]
    elif policy.grid is None:
        raise PolicyGridMismatch("time-varying policy carries no grid")
    else:
        # interval k = (t_k, t_{k+1}] is governed by row k+1
        grid, rows = policy.grid, policy.intensities[1:]
    if rows.shape[1] != model.n_edges:
        raise PolicyGridMismatch(
            f"policy table has {rows.shape[1]} columns, model has {model.n_edges} edges"
        )
    if grid[0] != 0.0 or grid[-1] != horizon:
        raise PolicyGridMismatch(
            f"policy grid spans [{grid[0]}, {grid[-1]}], problem horizon is [0, {horizon}]"
        )
    if np.any(np.diff(grid) < 0.0):
        raise PolicyGridMismatch("policy grid times decrease")

    offsets, n_nodes = model.offsets, model.n_nodes
    # a node's run starts at the first interval and wherever its row changes
    changed = np.logical_or.reduceat(rows[1:] != rows[:-1], offsets[:-1], axis=1)
    starts = np.vstack([np.ones((1, n_nodes), dtype=bool), changed])
    run_node, run_k = np.nonzero(starts.T)
    first = np.concatenate([[0], np.cumsum(np.count_nonzero(starts, axis=0))])
    slot = np.arange(len(run_node)) - first[run_node]
    deg = np.diff(offsets)[run_node]
    row = np.concatenate([[0], np.cumsum(deg)])
    lam_keys, reward = np.empty(row[-1], dtype=complex), np.empty(len(run_node))
    # row sums as (runs, degree) blocks, so each row adds up in the order
    # and association numpy gives one node's table
    for d in np.flatnonzero(np.bincount(deg)):
        runs = np.flatnonzero(deg == d)
        cols = offsets[run_node[runs], None] + np.arange(d)
        lam = rows[run_k[runs, None], cols]
        reward[runs] = -np.sum(model.cost_terms(lam, cols), axis=1)
        entries = row[runs, None] + np.arange(d)
        lam_keys.real[entries] = runs[:, None]
        lam_keys.imag[entries] = np.cumsum(lam, axis=1)
    rate = lam_keys.imag[row[1:] - 1]
    boundary_node = np.repeat(np.arange(n_nodes), np.diff(first) + 1)
    time_keys = _keys(boundary_node, np.insert(grid[run_k], first[1:], horizon))
    times = time_keys.imag
    left = np.arange(len(run_node)) + run_node
    spans = times[left + 1] - times[left]
    if r == 0.0:
        pieces = reward * spans
    else:
        decay = np.exp(-r * times)
        pieces = reward * (decay[left] - decay[left + 1]) / r

    def prefix(values):
        # per-node running sums led by a zero, from a zero-padded table
        table = np.zeros((n_nodes, int(slot.max()) + 1))
        table[run_node, slot] = values
        return np.insert(np.cumsum(table, axis=1)[run_node, slot], first[:-1], 0.0)

    hazard_keys = _keys(boundary_node, prefix(rate * spans))
    return _Schedule(first, times, time_keys, hazard_keys.imag, hazard_keys, prefix(pieces),
                     rate, reward, row[:-1], lam_keys)


def _map(fn, x: np.ndarray) -> np.ndarray:
    """fn over an array through the math module, which fixes every bit."""
    return np.fromiter(map(fn, x.tolist()), dtype=float, count=len(x))


def _discount_weight(r: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integrals of e^{-r t} over [a, b], exact in both discount regimes."""
    if r == 0.0:
        return b - a
    return (_map(math.exp, -r * a) - _map(math.exp, -r * b)) / r


def _sample_chunk(problem: Problem, s: _Schedule, start_node: int, seed: int,
                  paths: np.ndarray) -> np.ndarray:
    """Path values of the given paths, each advanced one jump per round.

    Round k reads draws 2k (the holding time) and 2k + 1 (the edge) of
    every path still live, which is where a one-path-at-a-time sampler
    reads them, so each path's value is the same bit for bit.
    """
    model = problem.costs
    out_degree = np.diff(model.offsets)
    r, horizon = problem.discount, problem.horizon
    values = np.empty(len(paths))
    live = np.arange(len(paths))
    node = np.full(len(paths), start_node, dtype=np.intp)
    t = np.zeros(len(paths))
    total = np.zeros(len(paths))
    k = 0
    while live.size:
        if k % _ROUNDS == 0:
            draws = _uniforms(seed, paths[live], 2 * k, 2 * _ROUNDS)
        u_hold, u_edge = draws[:, 2 * (k % _ROUNDS)], draws[:, 2 * (k % _ROUNDS) + 1]
        k += 1
        # boundary range of each path's node, and the run governing t
        lo, hi = s.first[node] + node, s.first[node + 1] + node + 1
        bp = np.maximum(np.searchsorted(s.time_keys, _keys(node, t)) - 1, lo)
        gp = bp - node
        target = (s.cumhaz[bp] + s.rate[gp] * (t - s.times[bp])) - _map(math.log1p, -u_hold)
        # paths whose hazard target stays inside the schedule jump before
        # the horizon; the others run out and end in the node's last run
        jump = target < s.cumhaz[hi - 1]
        bk, t_next = hi - 2, np.full(live.size, horizon)
        bq = np.searchsorted(s.hazard_keys, _keys(node[jump], target[jump]), side="right") - 1
        gq = bq - node[jump]
        t_next[jump] = np.minimum(
            s.times[bq] + (target[jump] - s.cumhaz[bq]) / s.rate[gq], horizon)
        bk[jump] = bq
        gk = bk - node
        head = s.reward[gp] * _discount_weight(r, s.times[bp], t)
        tail = s.reward[gk] * _discount_weight(r, t_next, s.times[bk + 1])
        total += (s.cumrew[bk + 1] - s.cumrew[bp]) - head - tail
        done = t_next >= horizon
        values[live[done]] = (total[done]
                              + math.exp(-r * horizon) * problem.terminal_payoff[node[done]])
        # the jump lands inside run gk a.s., so its row drives the selection
        go = ~done
        live, node, t, total, draws = live[go], node[go], t_next[go], total[go], draws[go]
        run = gk[go]
        u = u_edge[go] * s.rate[run]
        edge = np.searchsorted(s.lam_keys, _keys(run, u), side="right") - s.row[run]
        node = model.edge_dst[model.offsets[node] + np.minimum(edge, out_degree[node] - 1)]
    return values


def simulate(problem: Problem, policy: Policy, start_node: int, n_paths: int,
             seed: int, keep_paths: bool = False) -> SimulationReport:
    """Estimate the objective from start_node by exact path sampling.

    Draws n_paths independent trajectories of the chain controlled by
    the policy, accumulating discounted rewards and the discounted
    terminal payoff along each, and reports their mean and standard
    error. Paths are advanced in chunks, in rounds that move every live
    path of the chunk by one jump. Path p reads the stream of
    Generator(Philox(key=seed, counter=[0, p, 0, 0])), for a seed below
    2^128: two uniforms per jump, then one for the sojourn that reaches
    the horizon. So each path value is the one a path-by-path sampler
    gives, bit for bit, and any prefix of paths is unaffected by the
    total count.
    """
    model = problem.costs
    if not 0 <= start_node < model.n_nodes:
        raise ValueError(f"start node {start_node} out of range for {model.n_nodes} nodes")
    if n_paths < 1:
        raise ValueError(f"need at least one path, got {n_paths}")
    if not 0 <= seed < 1 << 128:
        raise ValueError(f"seed must be in [0, 2^128), got {seed}")
    schedule = _compress(problem, policy)
    paths = np.arange(n_paths)
    values = np.concatenate([
        _sample_chunk(problem, schedule, start_node, int(seed), paths[i:i + _CHUNK])
        for i in range(0, n_paths, _CHUNK)
    ])
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
