"""Monte Carlo verification of policies by exact jump-chain sampling.

Paths of the controlled chain are drawn without time discretization:
within each interval of the policy's grid a node's intensity row is
constant and the holding hazard is linear in time, so the whole
piecewise-linear cumulative hazard is inverted exactly against a unit
exponential draw.
Policies are piecewise constant and left continuous in time: the table
row attached to a grid point governs the interval ending at that point.

Paths are sampled in batched rounds: each round advances every live
path of a chunk by one jump, with the interval lookup, the hazard inversion
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
from .finite_horizon import MAX_FLOATS, Policy, PolicyMode, Problem
from .krylov import gmres

_EPS = float(np.finfo(float).eps)


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
    """Every node's tables over the policy's grid, in flat arrays.

    ``times`` is the grid t_0 .. t_K, shared by all nodes. Node i owns
    entries i (K + 1) .. i (K + 1) + K of the per-node tables: at
    i (K + 1) + k, the cumulative hazard ``cumhaz`` and the cumulative
    discounted reward ``cumrew`` up to t_k, and the total exit rate and
    the reward rate (negated running cost) of interval k = (t_k, t_{k+1}]
    (their last entry pads the stride). ``lam_keys`` holds the
    cumulative intensity rows interval by interval: node i's row on
    interval k starts at entry k E + offsets[i].

    The ``*_keys`` arrays pair each value with its node (for the hazard)
    or with k n + i (for intensity rows) as a complex number: numpy
    orders complex numbers lexicographically, so one searchsorted over
    the whole array searches within each path's own segment. ``cumhaz``
    is a view of its keys' imaginary part.
    """

    times: np.ndarray
    cumhaz: np.ndarray
    hazard_keys: np.ndarray
    cumrew: np.ndarray
    rate: np.ndarray
    reward: np.ndarray
    lam_keys: np.ndarray


def _keys(major: np.ndarray, minor: np.ndarray) -> np.ndarray:
    """The pairs (major, minor) as complex numbers, exactly."""
    keys = np.empty(len(minor), dtype=complex)
    keys.real, keys.imag = major, minor
    return keys


def _build_schedule(problem: Problem, policy: Policy) -> _Schedule:
    model = problem.costs
    horizon = problem.horizon
    r = problem.discount
    if policy.mode is PolicyMode.STATIONARY:
        # a stationary policy is one interval over the horizon
        grid, rows = np.array([0.0, horizon]), policy.intensities[None]
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

    offsets, n_nodes, n_int = model.offsets, model.n_nodes, len(rows)
    deg = np.diff(offsets)
    lam_keys = np.empty(rows.shape, dtype=complex)
    lam_keys.real = np.arange(n_int)[:, None] * n_nodes + model.edge_src
    rate, reward = np.zeros((2, n_nodes, n_int + 1))
    # costs and row sums over contiguous (rows, degree) blocks: numpy's
    # bits depend on the layout, and this one gives each row the bits
    # that one node's own table gives
    for d in np.flatnonzero(np.bincount(deg)):
        nodes = np.flatnonzero(deg == d)
        cols = offsets[nodes, None] + np.arange(d)
        lam = rows[:, cols].reshape(-1, d)
        sums = np.sum(model.cost_terms(lam, np.tile(cols, (n_int, 1))), axis=1)
        reward[nodes, :-1] = -sums.reshape(n_int, -1).T
        cumlam = np.cumsum(lam, axis=1).reshape(n_int, -1, d)
        lam_keys.imag[:, cols] = cumlam
        rate[nodes, :-1] = cumlam[:, :, -1].T
    spans = np.diff(grid)
    # e^{-r t} over each interval as in _discount_weight; phi(0) = 1 also
    # takes r = 0, where the pieces are reward * spans bit for bit
    pieces = reward[:, :-1] * (np.exp(-r * grid[:-1]) * spans * _phi(r * spans))
    cumhaz, cumrew = np.zeros((2, n_nodes, n_int + 1))
    cumhaz[:, 1:] = np.cumsum(rate[:, :-1] * spans, axis=1)
    cumrew[:, 1:] = np.cumsum(pieces, axis=1)
    hazard_keys = _keys(np.repeat(np.arange(n_nodes), n_int + 1), cumhaz.ravel())
    return _Schedule(grid, hazard_keys.imag, hazard_keys, cumrew.ravel(), rate.ravel(),
                     reward.ravel(), lam_keys.ravel())


def _map(fn, x: np.ndarray) -> np.ndarray:
    """fn over an array through the math module, which fixes every bit."""
    return np.fromiter(map(fn, x.tolist()), dtype=float, count=len(x))


def _phi(x: np.ndarray) -> np.ndarray:
    """(1 - e^{-x}) / x through math.expm1, and 1 where x = 0."""
    return np.divide(-_map(math.expm1, -x), x, out=np.ones_like(x), where=x != 0.0)


def _discount_weight(r: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integrals of e^{-r t} over [a, b], as e^{-r a} (b - a) phi(r (b - a)).

    The difference form (e^{-r a} - e^{-r b}) / r would cancel once
    r (b - a) is small, and read 0 where e^{-r t} rounds to 1; phi
    through expm1 keeps every digit there, down to subnormal r.
    """
    if r == 0.0:
        return b - a
    return _map(math.exp, -r * a) * (b - a) * _phi(r * (b - a))


def _sample_chunk(problem: Problem, s: _Schedule, start_node: int, seed: int,
                  paths: np.ndarray) -> np.ndarray:
    """Path values of the given paths, each advanced one jump per round.

    Round k reads draws 2k (the holding time) and 2k + 1 (the edge) of
    every path still live, which is where a one-path-at-a-time sampler
    reads them, so each path's value is the same bit for bit.
    """
    model = problem.costs
    offsets, out_degree = model.offsets, np.diff(model.offsets)
    r, horizon = problem.discount, problem.horizon
    n_int = len(s.times) - 1
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
        # the interval kp governing t, and its entry bp in the node's tables
        base = node * (n_int + 1)
        kp = np.maximum(np.searchsorted(s.times, t) - 1, 0)
        bp = base + kp
        target = (s.cumhaz[bp] + s.rate[bp] * (t - s.times[kp])) - _map(math.log1p, -u_hold)
        # paths whose hazard target stays inside the schedule jump before
        # the horizon; the others run out and end in the last interval
        jump = target < s.cumhaz[base + n_int]
        bk, t_next = base + n_int - 1, np.full(live.size, horizon)
        bq = np.searchsorted(s.hazard_keys, _keys(node[jump], target[jump]), side="right") - 1
        t_next[jump] = np.minimum(
            s.times[bq - base[jump]] + (target[jump] - s.cumhaz[bq]) / s.rate[bq], horizon)
        bk[jump] = bq
        kk = bk - base
        head = s.reward[bp] * _discount_weight(r, s.times[kp], t)
        tail = s.reward[bk] * _discount_weight(r, t_next, s.times[kk + 1])
        total += (s.cumrew[bk + 1] - s.cumrew[bp]) - head - tail
        done = t_next >= horizon
        values[live[done]] = (total[done]
                              + math.exp(-r * horizon) * problem.terminal_payoff[node[done]])
        # the jump lands inside interval kk a.s., so its row drives the selection
        go = ~done
        live, node, t, total, draws = live[go], node[go], t_next[go], total[go], draws[go]
        kk = kk[go]
        u = u_edge[go] * s.rate[bk[go]]
        edge = (np.searchsorted(s.lam_keys, _keys(kk * model.n_nodes + node, u), side="right")
                - (kk * model.n_edges + offsets[node]))
        node = model.edge_dst[offsets[node] + np.minimum(edge, out_degree[node] - 1)]
    return values


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def simulate(problem: Problem, policy: Policy, start_node: int, n_paths: int,
             seed: int) -> SimulationReport:
    """Estimate the objective from start_node by exact path sampling.

    Draws n_paths independent trajectories of the chain controlled by
    the policy, accumulating discounted rewards and the discounted
    terminal payoff along each, and reports their mean, standard error
    and the values themselves, in path order. Paths are advanced in
    chunks, in rounds that move every live path of the chunk by one
    jump. Path p reads the stream of
    Generator(Philox(key=seed, counter=[0, p, 0, 0])), for a seed below
    2^128: two uniforms per jump, then one for the sojourn that reaches
    the horizon. So each path value is the one a path-by-path sampler
    gives, bit for bit, and any prefix of paths is unaffected by the
    total count. n_paths must be an integer in [2, 2^53] and seed one
    in [0, 2^128); both are checked before any work.
    """
    model = problem.costs
    if not 0 <= start_node < model.n_nodes:
        raise ValueError(f"start node {start_node} out of range for {model.n_nodes} nodes")
    if not (_is_int(n_paths) and 2 <= n_paths <= MAX_FLOATS):
        raise ValueError(f"n_paths must be an integer in [2, 2^53], got {n_paths!r}")
    if not (_is_int(seed) and 0 <= seed < 1 << 128):
        raise ValueError(f"seed must be an integer in [0, 2^128), got {seed!r}")
    schedule = _build_schedule(problem, policy)
    paths = np.arange(n_paths)
    values = np.concatenate([
        _sample_chunk(problem, schedule, start_node, int(seed), paths[i:i + _CHUNK])
        for i in range(0, n_paths, _CHUNK)
    ])
    se = float(np.std(values, ddof=1) / math.sqrt(n_paths))
    return SimulationReport(n_paths, float(np.mean(values)), se, seed, start_node, values)


def evaluate_stationary_policy(model: CostModel, policy: Policy, r: float) -> np.ndarray:
    """Exact discounted value of a fixed intensity table at every node.

    Writes the one-step balance (r + exit rate) u_i = reward_i +
    sum_j lam_ij u_j as the linear system (r I - Q) u = reward, with Q
    the policy's generator applied in O(edges) and never formed, and
    solves it by GMRES. Row i of (r I - Q) u sums terms of total size
    up to (r + 2 rate_i) |u|, so rounding alone leaves a residual near
    eps (r + 2 rate_i) |u|, which passes 1e-12 |u| once a rate passes
    about 2e3. The sup-norm residual must therefore be within
    1e-12 (1 + |u|) + 8 eps (r + 2 max_i rate_i) |u|: the absolute
    bound plus a small multiple of that rounding floor. Requires a
    stationary policy and a positive finite discount; a system that
    does not reach that residual (a positive discount rules out
    singularity for finite rates) raises SingularSystem rather than
    returning a least-squares answer.
    """
    if policy.mode is not PolicyMode.STATIONARY:
        raise ValueError("evaluation needs a stationary policy")
    if policy.intensities.shape != (model.n_edges,):
        raise PolicyGridMismatch(
            f"stationary table has shape {policy.intensities.shape}, "
            f"expected ({model.n_edges},)"
        )
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError(f"discount must be positive and finite, got {r}")
    lam = policy.intensities
    b = -model.running_cost_vector(lam)
    rate = model.exit_rates(lam)

    def apply(x):
        return r * x - model.generator_apply(lam, x)

    # row i gives |b_i| <= (r + 2 rate_i) |u|, so this tolerance is within the contract
    tol = 1e-12 * (1.0 + float(np.max(np.abs(b) / (r + 2.0 * rate))))
    u, resid, _ = gmres(apply, b, r + rate, tol)
    size = float(np.max(np.abs(u)))
    floor = _EPS * (r + 2.0 * float(np.max(rate))) * size
    if not resid <= 1e-12 * (1.0 + size) + 8.0 * floor:
        raise SingularSystem(f"policy evaluation stalled at residual {resid:.3e}")
    return u


def estimate_value_gap(report: SimulationReport, reference: float) -> float:
    """Standardized gap (mean - reference) / std_error of a simulation.

    A degenerate sample, meaning a standard error at or below the
    roundoff floor 1e-12 (1 + |reference|), yields exactly zero when
    the mean matches the reference to 1e-9 relative, and raises
    ZeroVariance otherwise since no statistical scale exists to judge
    the discrepancy. A single-path report, whose standard error is NaN,
    raises ValueError.
    """
    if math.isnan(report.std_error):
        raise ValueError("a single path has no standard error; simulate two paths at least")
    gap = report.mean_objective - float(reference)
    if report.std_error <= 1e-12 * (1.0 + abs(reference)):
        if abs(gap) <= 1e-9 * (1.0 + abs(reference)):
            return 0.0
        raise ZeroVariance(
            f"degenerate sample: paths agree to roundoff but the mean "
            f"differs from the reference by {gap:.3e}"
        )
    return gap / report.std_error
