"""Stationary values, the ergodic constant, and long-run diagnostics.

Three related objects live here:

* the discounted stationary value u solving -r u_i + H(i, u) = 0,
  found by damped Newton, which restarts from a larger discount and
  halves it back if it stalls;
* the ergodic pair (gamma, xi): the linear growth rate of the
  undiscounted flow and its corrector, normalized so xi[0] = 0, solving
  -gamma + H(i, (xi_j - xi_i)_j) = 0. Two independent routes are
  provided, a vanishing-discount sweep and a direct long-time
  integration, and both finish with a Newton refinement of the ergodic
  system seeded by their own estimate (the refinement rejects any seed
  it would have to move far, so it cannot mask a bad estimate);
* diagnostics of the long-run behaviour: the de-drifted flow, its
  sup-gap q(t) to the corrector which must decrease along the flow,
  its limit and the finite-horizon deviations from given terminal data,
  a semigroup evaluator for the de-drifted equation, and the comparison
  and strict-ordering checks that back them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .costs import CostModel
from .errors import (
    HypothesisUnmet,
    MonotonicityViolation,
    NoConvergence,
    NumericOverflow,
    PreconditionUnmet,
    StrictnessViolation,
)
from .finite_horizon import ValueTrajectory
from .ode import integrate_grid

# the vanishing-discount sweep's default discounts, 2^-3 down to 2^-20
DISCOUNT_LADDER = tuple(2.0 ** -n for n in range(3, 21))

# shortest window the long-time integrations accept
MIN_T_MAX = 10.0

# tolerances of every long-time integration
_RTOL, _ATOL = 1e-10, 1e-12


@dataclass(frozen=True)
class StationaryValue:
    """Solution of the discounted stationary equation at one discount."""

    discount: float
    u: np.ndarray = field(repr=False)
    residual: float
    iterations: int


def _sup(x: np.ndarray) -> float:
    return float(np.max(np.abs(x)))


def _damped_newton(system, x: np.ndarray, tol, max_iter: int):
    """Damped Newton on system(x) -> (F, J), measured in the sup norm.

    Each step solves J d = -F, in least squares if J is singular, and
    halves the step length from 1 down to 2^-30 until the residual
    drops; a trial that overflows the kernels counts as one where it
    does not. Stops when the residual is within tol(x), when no step
    length lowers it, or after max_iter accepted steps. Returns the
    last iterate, its residual and the number of accepted steps.
    """
    f, jac = system(x)
    fnorm = _sup(f)
    steps = 0
    while steps < max_iter and fnorm > tol(x):
        try:
            delta = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            delta, *_ = np.linalg.lstsq(jac, -f, rcond=None)
        alpha = 1.0
        while alpha >= 2.0 ** -30:
            cand = x + alpha * delta
            try:
                fc, jc = system(cand)
            except NumericOverflow:
                alpha *= 0.5
                continue
            fcn = _sup(fc)
            if np.isfinite(fcn) and fcn < fnorm:
                break
            alpha *= 0.5
        else:
            break
        x, f, jac, fnorm = cand, fc, jc, fcn
        steps += 1
    return x, fnorm, steps


def _stationary_system(model: CostModel, r: float, u: np.ndarray):
    """Residual F(u) = -r u + H(u) and its Jacobian Q(lam*) - r I."""
    jac = model.generator(model.intensity_vector(u))
    jac[np.diag_indices_from(jac)] -= r
    return model.hamiltonian_vector(u) - r * u, jac


def solve_stationary(model: CostModel, r: float,
                     initial_guess: np.ndarray | None = None) -> StationaryValue:
    """Solve -r u_i + H(i, (u_j - u_i)_j) = 0 for the stationary value.

    Damped Newton, up to 80 steps, from the initial guess (zero by
    default). The Jacobian, the generator of the optimal intensities
    shifted by -r, is strictly diagonally dominant. If Newton stalls,
    it restarts from the guess at the discount r 2^K with
    K = max(1, ceil(-log2 r)) and halves the discount back to r, each
    stage starting from the last one's answer: a larger discount pulls
    u toward H(u) / r, where Newton converges from farther away.
    iterations counts every accepted Newton step. The residual is below
    1e-10 (1 + |u|), else NoConvergence.
    """
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError(f"discount must be positive and finite, got {r}")
    n = model.n_nodes
    guess = np.zeros(n) if initial_guess is None else np.array(initial_guess, dtype=float)
    if guess.shape != (n,):
        raise ValueError(f"initial guess has shape {guess.shape}, expected ({n},)")

    def newton(rate, x):
        return _damped_newton(lambda y: _stationary_system(model, rate, y), x,
                              lambda y: 1e-12 * (1.0 + _sup(y)), 80)

    u, fnorm, iterations = newton(r, guess)
    if fnorm > 1e-10 * (1.0 + _sup(u)):
        u = guess
        for stage in range(max(1, math.ceil(-math.log2(r))), -1, -1):
            u, fnorm, steps = newton(math.ldexp(r, stage), u)
            iterations += steps
        if fnorm > 1e-10 * (1.0 + _sup(u)):
            raise NoConvergence(f"stationary Newton stalled at discount {r}")
    return StationaryValue(r, u, fnorm, iterations)


class ErgodicMethod(enum.Enum):
    VANISHING_DISCOUNT = "vanishing-discount"
    DIRECT_LONG_TIME = "direct-long-time"


@dataclass(frozen=True)
class ErgodicSolution:
    """Ergodic constant gamma and corrector xi with xi[0] = 0 exactly.

    diagnostics holds per-stage convergence evidence: (discount,
    max_i |r u_i - gamma|) rows for the vanishing-discount route,
    (t, q(t)) rows at t = 0, t_max / 4, t_max / 2 and t_max for the
    direct route. q_infinity is only available from the direct route,
    and only when its tail has stabilized. non_unique_corrector flags
    models whose Hamiltonian is not strictly increasing, where xi is
    meaningful but not unique up to constants.
    """

    gamma: float
    xi: np.ndarray = field(repr=False)
    method: ErgodicMethod
    diagnostics: np.ndarray = field(repr=False)
    q_infinity: float | None = None
    non_unique_corrector: bool = False
    residual: float = float("nan")


def _ergodic_system(model: CostModel, z: np.ndarray):
    """Residual of -gamma + H(i, xi) = 0 and its Jacobian in z = (gamma, xi[1:]).

    xi[0] is pinned to 0, so the generator's column 0 is free to carry
    the derivative in gamma.
    """
    xi = np.concatenate([[0.0], z[1:]])
    jac = model.generator(model.intensity_vector(xi))
    jac[:, 0] = -1.0
    return model.hamiltonian_vector(xi) - z[0], jac


def _refine_ergodic(model: CostModel, gamma0: float,
                    xi0: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Newton-polish an ergodic estimate onto the equation.

    The seed must already be consistent: a polish that moves gamma or
    xi by more than 1e-3 (1 + |gamma0|) means the estimator had not
    converged, which is reported as NoConvergence rather than silently
    accepting the polished root. Without strict monotonicity xi is not
    unique and the polish may slide along its solution set, so only
    the move in gamma is checked there.
    """
    gamma0 = float(gamma0)
    xi0 = np.asarray(xi0, dtype=float)
    z, fnorm, _ = _damped_newton(
        lambda x: _ergodic_system(model, x), np.concatenate([[gamma0], xi0[1:]]),
        lambda x: 1e-12 * (1.0 + abs(x[0])), 60)
    if fnorm > 1e-8:
        raise NoConvergence(f"ergodic refinement stalled at residual {fnorm}")
    gamma, xi = float(z[0]), np.concatenate([[0.0], z[1:]])
    moved = max(abs(gamma - gamma0), _sup(xi - xi0) if model.strict_monotone else 0.0)
    if moved > 1e-3 * (1.0 + abs(gamma0)):
        raise NoConvergence(
            f"ergodic estimate moved {moved:.2e} under refinement; estimator had not converged"
        )
    return gamma, xi, fnorm


def solve_ergodic_vanishing_discount(
    model: CostModel,
    r_sequence: tuple[float, ...] | None = None,
    initial_guess: np.ndarray | None = None,
) -> ErgodicSolution:
    """Ergodic pair via stationary solves along a vanishing discount sweep.

    Solves the stationary equation along the (decreasing) discount
    sequence, warm-starting each solve from the previous one, and reads
    off gamma = r * mean(u) and xi = u - u[0] at the smallest discount.
    Each sweep stage contributes a diagnostic row (r, max_i |r u_i -
    gamma|); the sweep counts as converged when the final diagnostic is
    below 1e-6 scaled by the corrector size and the last step shrank it
    geometrically (factor 0.75, with 1e-7 slack). The estimate is then
    Newton-refined onto the ergodic system.
    """
    rs = DISCOUNT_LADDER if r_sequence is None else tuple(float(r) for r in r_sequence)
    if len(rs) < 2:
        raise ValueError("need at least two discounts in the sequence")
    if any(not (r > 0.0) for r in rs) or any(b >= a for a, b in zip(rs, rs[1:])):
        raise ValueError("discount sequence must be positive and strictly decreasing")

    u = initial_guess
    values: list[StationaryValue] = []
    for r in rs:
        sv = solve_stationary(model, r, u)
        values.append(sv)
        u = sv.u
    u_last = values[-1].u
    gamma_est = rs[-1] * float(np.mean(u_last))
    xi_est = u_last - u_last[0]

    diags = np.array([[sv.discount, float(np.max(np.abs(sv.discount * sv.u - gamma_est)))]
                      for sv in values])
    d_prev, d_last = diags[-2, 1], diags[-1, 1]
    # the diagnostic decays like r times the corrector spread, so the
    # settledness threshold scales with that spread
    settle = 1e-6 * (1.0 + float(np.max(np.abs(xi_est))))
    if not (d_last <= settle and d_last <= 0.75 * d_prev + 1e-7):
        raise NoConvergence(
            f"vanishing-discount diagnostics not settled: last two are {d_prev:.3e}, {d_last:.3e}"
        )
    gamma, xi, resid = _refine_ergodic(model, gamma_est, xi_est)
    return ErgodicSolution(gamma, xi, ErgodicMethod.VANISHING_DISCOUNT, diags,
                           None, not model.strict_monotone, resid)


def _q_series(grid: np.ndarray, vhat: np.ndarray, xi: np.ndarray,
              t_max: float) -> tuple[np.ndarray, float | None]:
    """q(t) = max_i (vhat_i(t) - xi_i) on the grid, and its limit.

    The limit is q(t_max), or None while q still moves by 1e-6 or more
    from t_max / 2 on.
    """
    q = np.max(vhat - xi, axis=1)
    mid, end = np.searchsorted(grid, (0.5 * t_max, t_max))
    return q, float(q[end]) if abs(q[end] - q[mid]) < 1e-6 else None


def _ergodic_flow(model: CostModel, z0: np.ndarray, horizons,
                  t_max: float) -> tuple[np.ndarray, float, np.ndarray, float, np.ndarray]:
    """Ergodic pair from the undiscounted flow dz/dt = H(z), z(0) = z0.

    The flow lands only on 0, t_max / 4, t_max / 2, t_max and the
    horizons. A preliminary sweep over [0, 20] supplies a drift gamma0,
    and the flow is integrated as y = z - gamma0 t, which keeps error
    control on the right scale; H reads only differences, so the
    substitution is exact. gamma is the growth of node 0 over the second
    half of [0, t_max], which must be within 1e-6 of its growth over the
    second quarter, and xi is the spread at t_max; both are
    Newton-refined. Returns the grid, gamma, xi, the refinement residual
    and the rows vhat = z - gamma t on the grid.
    """
    if not (t_max >= MIN_T_MAX and math.isfinite(t_max)):
        raise ValueError(f"t_max must be at least {MIN_T_MAX:g}, got {t_max}")
    # np.sort and a mask of repeats, not np.unique, which imports numpy.ma
    grid = np.sort(np.concatenate([[0.0, 0.25 * t_max, 0.5 * t_max, t_max], horizons]))
    grid = grid[np.concatenate([[True], grid[1:] != grid[:-1]])]
    if not (grid[0] == 0.0 and grid[-1] < math.inf):  # np.sort puts NaN last
        raise ValueError(f"horizons must be finite and nonnegative, got {horizons}")

    def drifting(_t, y):
        return model.hamiltonian_vector(y)

    pre, _ = integrate_grid(drifting, np.array([0.0, 10.0, 20.0]), z0, 1e-8, 1e-10)
    gamma0 = float(pre[2, 0] - pre[1, 0]) / 10.0

    def dedrifted(_t, y):
        return model.hamiltonian_vector(y) - gamma0

    ys, _ = integrate_grid(dedrifted, grid, z0, _RTOL, _ATOL)
    quarter, mid, end = np.searchsorted(grid, (0.25 * t_max, 0.5 * t_max, t_max))
    gamma_est = gamma0 + float(ys[end, 0] - ys[mid, 0]) / float(grid[end] - grid[mid])
    gamma_prev = gamma0 + float(ys[mid, 0] - ys[quarter, 0]) / float(grid[mid] - grid[quarter])
    if abs(gamma_est - gamma_prev) > 1e-6:
        raise NoConvergence(
            f"drift estimate not stabilized: {gamma_prev} at half window, {gamma_est} at full"
        )
    gamma, xi, resid = _refine_ergodic(model, gamma_est, ys[end] - ys[end, 0])
    return grid, gamma, xi, resid, ys + (gamma0 - gamma) * grid[:, None]


def solve_ergodic_direct(model: CostModel, t_max: float = 200.0) -> ErgodicSolution:
    """Ergodic pair from one long undiscounted integration.

    Integrates the flow from zero terminal data, landing only on 0,
    t_max / 4, t_max / 2 and t_max; gamma comes from the growth of node
    0 and xi from the final spread (see _ergodic_flow). The diagnostics
    are the (t, q(t)) rows at those four times, and q(t_max) is the
    limit of the decreasing gap q once it has settled. A finer q(t)
    series is q_diagnostic's job.
    """
    grid, gamma, xi, resid, vhat = _ergodic_flow(model, np.zeros(model.n_nodes), (), t_max)
    q, q_inf = _q_series(grid, vhat, xi, t_max)
    return ErgodicSolution(gamma, xi, ErgodicMethod.DIRECT_LONG_TIME, np.column_stack([grid, q]),
                           q_inf, not model.strict_monotone, resid)


def deviation_profile(model: CostModel, payoff: np.ndarray, horizons,
                      t_max: float = 200.0) -> tuple[float, np.ndarray]:
    """q-limit of the flow from the payoff and each horizon's deviation from it.

    One integration from z(0) = payoff (see _ergodic_flow) lands only
    on 0, t_max / 4, t_max / 2, t_max and the horizons, and yields
    gamma, xi and the rows vhat = z - gamma t. z(T) is V(0) of the
    undiscounted horizon-T problem, so its deviation from
    gamma T + xi + q_inf is max_i |vhat_i(T) - xi_i - q_inf| exactly.
    q_inf = max_i (vhat_i - xi_i) at t_max; NoConvergence if that moved
    by 1e-6 or more since t_max / 2. Returns q_inf and the deviations in
    the order of the horizons.
    """
    grid, _, xi, _, vhat = _ergodic_flow(model, np.asarray(payoff, dtype=float), horizons,
                                         t_max)
    _, q_inf = _q_series(grid, vhat, xi, t_max)
    if q_inf is None:
        raise NoConvergence(f"deviation offset not stabilized over [0, {t_max}]")
    at = vhat[np.searchsorted(grid, horizons)]
    return q_inf, np.max(np.abs(at - xi - q_inf), axis=1)


@dataclass(frozen=True)
class DedriftedSeries:
    """Forward-time values with the linear ergodic growth removed."""

    grid: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)


def dedrift(trajectory: ValueTrajectory, gamma: float) -> DedriftedSeries:
    """Reverse a backward trajectory to forward time and remove gamma t.

    The trajectory's values are indexed by remaining time; reading them
    back to front gives the forward flow U(t) started from the terminal
    data, and the series returned is U_i(t) - gamma t on the same grid.
    """
    u = trajectory.values[::-1]
    vhat = u - gamma * trajectory.grid[:, None]
    return DedriftedSeries(trajectory.grid.copy(), vhat)


@dataclass(frozen=True)
class QDiagnostic:
    """The running sup-gap from the corrector along the de-drifted flow."""

    grid: np.ndarray = field(repr=False)
    q: np.ndarray = field(repr=False)
    q_infinity: float | None
    converged: bool


def q_diagnostic(series: DedriftedSeries, xi: np.ndarray) -> QDiagnostic:
    """q(t) = max_i (vhat_i(t) - xi_i), checked to be nonincreasing.

    Any increase beyond 1e-9 between successive grid points
    raises MonotonicityViolation: along the exact flow q only decreases,
    so growth signals solver inaccuracy or a wrong (gamma, xi) pair.
    The reported limit is the final value, flagged unconverged when the
    tail (from half the window on) still moves by 1e-6 or more.
    """
    q, q_inf = _q_series(series.grid, series.values, xi, series.grid[-1])
    rises = np.diff(q)
    worst = int(np.argmax(rises))
    if rises[worst] > 1e-9:
        raise MonotonicityViolation(
            f"q rose by {rises[worst]:.3e} between t = {series.grid[worst]} and its successor"
        )
    return QDiagnostic(series.grid.copy(), q, q_inf, q_inf is not None)


def semigroup_apply(model: CostModel, gamma: float, y: np.ndarray, t: float,
                    rtol: float = _RTOL, atol: float = _ATOL) -> np.ndarray:
    """Advance initial data y by time t along the de-drifted flow.

    Solves dz/dt = H(z) - gamma from z(0) = y. The family is a
    semigroup in t and is nonexpansive in the sup norm, which the tests
    exercise; tight default tolerances keep composition error well
    below those contracts. Leading axes of y are treated as a batch of
    independent states advanced together under a shared step schedule.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim < 1 or y.shape[-1] != model.n_nodes:
        raise ValueError(f"state has shape {y.shape}, expected (..., {model.n_nodes})")
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if t == 0.0:
        return y.copy()

    def rhs(_t, z):
        flat = model.hamiltonian_vector(z.reshape(y.shape)) - gamma
        return flat.reshape(-1)

    rows, _ = integrate_grid(rhs, (0.0, t), y.reshape(-1), rtol, atol)
    return rows[-1].reshape(y.shape)


@dataclass(frozen=True)
class MaxPrincipleReport:
    """Strict ordering evidence for the de-drifted flow at one time."""

    time: float
    min_gap: float


def check_strong_max_principle(model: CostModel, gamma: float, y_low: np.ndarray,
                               y_high: np.ndarray, t: float) -> MaxPrincipleReport:
    """Ordered initial data must become strictly ordered everywhere.

    Requires a strictly monotone model and initial data with y_low <=
    y_high, strict at some node and equal at some other: under the flow
    the order spreads through the graph and must be strict at every
    node by time t > 0. Returns the minimal gap; a nonpositive gap
    raises StrictnessViolation.
    """
    if not model.strict_monotone:
        raise PreconditionUnmet("strong maximum principle needs a strictly monotone model")
    lo = np.asarray(y_low, dtype=float)
    hi = np.asarray(y_high, dtype=float)
    if np.any(lo > hi):
        raise PreconditionUnmet("y_low must be <= y_high coordinatewise")
    if not np.any(lo < hi):
        raise PreconditionUnmet("y_low and y_high must differ at some node")
    if not np.any(lo == hi):
        raise PreconditionUnmet("y_low and y_high must agree at some node")
    if not t > 0.0:
        raise ValueError(f"time must be positive, got {t}")
    a = semigroup_apply(model, gamma, lo, t)
    b = semigroup_apply(model, gamma, hi, t)
    gap = float(np.min(b - a))
    if gap <= 0.0:
        raise StrictnessViolation(f"minimal gap {gap} is not positive at time {t}")
    return MaxPrincipleReport(t, gap)


@dataclass(frozen=True)
class StationaryComparisonReport:
    """Outcome of the discounted comparison inequality check."""

    hypothesis_margin: float
    max_violation: float
    satisfied: bool


def verify_stationary_comparison(model: CostModel, eps: float, v: np.ndarray,
                                 w: np.ndarray) -> StationaryComparisonReport:
    """Check the sub/supersolution ordering for the discounted equation.

    Hypothesis: -eps v_i + H(i, v) >= -eps w_i + H(i, w) at every node
    (within roundoff slack); raises HypothesisUnmet otherwise. Under
    it, v <= w must hold everywhere; the report carries the largest
    violation of that conclusion.
    """
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    lhs = model.hamiltonian_vector(v) - eps * v
    rhs = model.hamiltonian_vector(w) - eps * w
    margin = float(np.min(lhs - rhs))
    scale = 1.0 + float(np.max(np.abs(lhs))) + float(np.max(np.abs(rhs)))
    if margin < -1e-12 * scale:
        worst = int(np.argmin(lhs - rhs))
        raise HypothesisUnmet(f"comparison hypothesis fails at node {worst} by {-margin:.3e}")
    violation = float(np.max(v - w))
    return StationaryComparisonReport(margin, violation, violation <= 1e-9)
