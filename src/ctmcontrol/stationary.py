"""Stationary values, the ergodic constant, and long-run diagnostics.

Three related objects live here:

* the discounted stationary value u solving -r u_i + H(i, u) = 0,
  found by damped Newton with a forward-integration fallback;
* the ergodic pair (gamma, xi): the linear growth rate of the
  undiscounted flow and its corrector, normalized so xi[0] = 0, solving
  -gamma + H(i, (xi_j - xi_i)_j) = 0. Two independent routes are
  provided, a vanishing-discount sweep and a direct long-time
  integration, and both finish with a Newton refinement of the ergodic
  system seeded by their own estimate (the refinement rejects any seed
  it would have to move far, so it cannot mask a bad estimate);
* diagnostics of the long-run behaviour: the de-drifted flow, its
  sup-gap q(t) to the corrector which must decrease along the flow,
  the limit of q from given terminal data, a semigroup evaluator for
  the de-drifted equation, and the comparison and strict-ordering
  checks that back them.
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
    PreconditionUnmet,
    StrictnessViolation,
)
from .finite_horizon import ValueTrajectory
from .ode import integrate_grid

# the vanishing-discount sweep's default discounts, 2^-3 down to 2^-20
DISCOUNT_LADDER = tuple(2.0 ** -n for n in range(3, 21))

# shortest window the long-time integrations accept
MIN_T_MAX = 10.0


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
    drops. Stops when the residual is within tol(x), when no step
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
            fc, jc = system(cand)
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


def _integrate_to_stationary(model: CostModel, r: float, u: np.ndarray):
    """Fallback: follow the time-dependent flow to its fixed point.

    Returns the point and its residual, which is below 1e-10 (1 + |u|).
    """
    def rhs(_t, y):
        return model.hamiltonian_vector(y) - r * y

    for _ in range(400):
        rows, _ = integrate_grid(rhs, np.array([0.0, 25.0]), u, 1e-10, 1e-12)
        u = rows[-1]
        fnorm = _sup(rhs(0.0, u))
        if fnorm < max(1e-10, 1e-13 * (1.0 + _sup(u))):
            return u, fnorm
    raise NoConvergence(f"stationary flow did not settle at discount {r}")


def solve_stationary(model: CostModel, r: float, initial_guess: np.ndarray | None = None,
                     max_iter: int = 80) -> StationaryValue:
    """Solve -r u_i + H(i, (u_j - u_i)_j) = 0 for the stationary value.

    Damped Newton from the given initial guess (zero by default). The
    Jacobian is the generator of the optimal intensities shifted by
    -r: row i carries -r - sum_j lam*_ij on the diagonal and lam*_ij at
    each neighbor, so it is strictly diagonally dominant. If Newton
    stalls, the time-dependent equation is integrated forward until
    its velocity vanishes, which reaches the same fixed point.
    """
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError(f"discount must be positive and finite, got {r}")
    n = model.n_nodes
    u = np.zeros(n) if initial_guess is None else np.asarray(initial_guess, dtype=float).copy()
    if u.shape != (n,):
        raise ValueError(f"initial guess has shape {u.shape}, expected ({n},)")

    u, fnorm, iterations = _damped_newton(
        lambda x: _stationary_system(model, r, x), u,
        lambda x: 1e-12 * (1.0 + _sup(x)), max_iter)
    # floor of evaluation noise reached: good enough if within contract
    if fnorm <= 1e-10 * (1.0 + _sup(u)):
        return StationaryValue(r, u, fnorm, iterations)
    u, fnorm = _integrate_to_stationary(model, r, u)
    return StationaryValue(r, u, fnorm, iterations)


class ErgodicMethod(enum.Enum):
    VANISHING_DISCOUNT = "vanishing-discount"
    DIRECT_LONG_TIME = "direct-long-time"


@dataclass(frozen=True)
class ErgodicSolution:
    """Ergodic constant gamma and corrector xi with xi[0] = 0 exactly.

    diagnostics holds per-stage convergence evidence: (discount,
    max_i |r u_i - gamma|) rows for the vanishing-discount route,
    (t, q(t)) rows for the direct route. q_infinity is only available
    from the direct route, and only when its tail has stabilized.
    non_unique_corrector flags models whose Hamiltonian is not strictly
    increasing, where xi is meaningful but not unique up to constants.
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


def _refine_ergodic(model: CostModel, gamma0: float, xi0: np.ndarray,
                    trust: float = 1e-3) -> tuple[float, np.ndarray, float]:
    """Newton-polish an ergodic estimate onto the equation.

    The seed must already be consistent: a polish that moves gamma or
    xi by more than the trust radius means the estimator had not
    converged, which is reported as NoConvergence rather than silently
    accepting the polished root.
    """
    gamma0 = float(gamma0)
    xi0 = np.asarray(xi0, dtype=float)
    z, fnorm, _ = _damped_newton(
        lambda x: _ergodic_system(model, x), np.concatenate([[gamma0], xi0[1:]]),
        lambda x: 1e-12 * (1.0 + abs(x[0])), 60)
    if fnorm > 1e-8:
        raise NoConvergence(f"ergodic refinement stalled at residual {fnorm}")
    gamma, xi = float(z[0]), np.concatenate([[0.0], z[1:]])
    moved = max(abs(gamma - gamma0), _sup(xi - xi0))
    if moved > trust * (1.0 + abs(gamma0)):
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


def _long_time_grid(t_max: float) -> np.ndarray:
    """Output grid of the long-time integrations: max(256, ceil(8 t_max)) intervals."""
    if not (t_max >= MIN_T_MAX and math.isfinite(t_max)):
        raise ValueError(f"t_max must be at least {MIN_T_MAX:g}, got {t_max}")
    return np.linspace(0.0, t_max, max(256, math.ceil(8.0 * t_max)) + 1)


def _settled_limit(grid: np.ndarray, q: np.ndarray) -> float | None:
    """The final q, or None while the tail from half the window on moves by 1e-6 or more."""
    mid = int(np.searchsorted(grid, 0.5 * grid[-1]))
    return float(q[-1]) if abs(q[-1] - q[mid]) < 1e-6 else None


def solve_ergodic_direct(model: CostModel, t_max: float = 200.0,
                         rtol: float = 1e-10, atol: float = 1e-12) -> ErgodicSolution:
    """Ergodic pair from one long undiscounted integration.

    Integrates the forward flow started from zero terminal data and
    estimates gamma from the growth of node 0 over the second half of
    the window, cross-checked against the first half; xi from the final
    spread. To keep error control on the right scale the integration
    is performed on the de-drifted variable (a cheap preliminary sweep
    supplies the drift to subtract; the substitution is exact). The
    de-drifted trajectory also yields the decreasing gap q(t) and its
    limit, recorded as diagnostics.
    """
    grid = _long_time_grid(t_max)
    n = model.n_nodes

    def drifting(_t, y):
        return model.hamiltonian_vector(y)

    pre = np.array([0.0, 10.0, 20.0])
    rows, _ = integrate_grid(drifting, pre, np.zeros(n), 1e-8, 1e-10)
    gamma0 = float(rows[2, 0] - rows[1, 0]) / 10.0

    def dedrifted(_t, y):
        return model.hamiltonian_vector(y) - gamma0

    ys, _ = integrate_grid(dedrifted, grid, np.zeros(n), rtol, atol)

    mid = int(np.searchsorted(grid, 0.5 * t_max))
    quarter = int(np.searchsorted(grid, 0.25 * t_max))
    gamma_est = gamma0 + float(ys[-1, 0] - ys[mid, 0]) / float(grid[-1] - grid[mid])
    gamma_prev = gamma0 + float(ys[mid, 0] - ys[quarter, 0]) / float(grid[mid] - grid[quarter])
    if abs(gamma_est - gamma_prev) > 1e-6:
        raise NoConvergence(
            f"drift estimate not stabilized: {gamma_prev} at half window, {gamma_est} at full"
        )
    xi_est = ys[-1] - ys[-1, 0]
    gamma, xi, resid = _refine_ergodic(model, gamma_est, xi_est)

    vhat = ys + (gamma0 - gamma) * grid[:, None]
    q = np.max(vhat - xi, axis=1)
    diags = np.column_stack([grid, q])
    return ErgodicSolution(gamma, xi, ErgodicMethod.DIRECT_LONG_TIME, diags,
                           _settled_limit(grid, q), not model.strict_monotone, resid)


def limit_deviation_offset(model: CostModel, gamma: float, xi: np.ndarray,
                           payoff: np.ndarray, t_max: float = 200.0) -> float:
    """q-limit of the de-drifted flow started from a terminal payoff.

    Integrates dz/dt = H(z) - gamma from z(0) = payoff on the direct
    route's grid and returns the settled limit of q(t) = max_i (z_i(t)
    - xi_i), the offset in V(T) ~ gamma T + xi + q. Raises NoConvergence
    when the tail has not settled.
    """
    grid = _long_time_grid(t_max)

    def rhs(_t, z):
        return model.hamiltonian_vector(z) - gamma

    rows, _ = integrate_grid(rhs, grid, np.asarray(payoff, dtype=float), 1e-10, 1e-12)
    q_inf = _settled_limit(grid, np.max(rows - xi, axis=1))
    if q_inf is None:
        raise NoConvergence(f"deviation offset not stabilized over [0, {t_max}]")
    return q_inf


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


def q_diagnostic(series: DedriftedSeries, xi: np.ndarray,
                 step_slack: float = 1e-9) -> QDiagnostic:
    """q(t) = max_i (vhat_i(t) - xi_i), checked to be nonincreasing.

    Any increase beyond step_slack between successive grid points
    raises MonotonicityViolation: along the exact flow q only decreases,
    so growth signals solver inaccuracy or a wrong (gamma, xi) pair.
    The reported limit is the final value, flagged unconverged when the
    tail (from half the window on) still moves by 1e-6 or more.
    """
    xi = np.asarray(xi, dtype=float)
    q = np.max(series.values - xi, axis=1)
    rises = np.diff(q)
    worst = int(np.argmax(rises))
    if rises[worst] > step_slack:
        raise MonotonicityViolation(
            f"q rose by {rises[worst]:.3e} between t = {series.grid[worst]} and its successor"
        )
    q_inf = _settled_limit(series.grid, q)
    return QDiagnostic(series.grid.copy(), q, q_inf, q_inf is not None)


def semigroup_apply(model: CostModel, gamma: float, y: np.ndarray, t: float,
                    rtol: float = 1e-10, atol: float = 1e-12) -> np.ndarray:
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

    rows, _ = integrate_grid(rhs, np.array([0.0, t]), y.reshape(-1), rtol, atol)
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
