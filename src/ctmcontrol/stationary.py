"""Stationary values, the ergodic constant, and long-run diagnostics.

Three related objects live here:

* one system for every discount r >= 0, H(v) - r v - c = 0 in
  z = (c, v[1:]) with v[0] = 0, solved by damped Newton: for r > 0 its
  root gives the stationary value u = c / r + v of -r u + H(u) = 0, and
  at r = 0 the ergodic pair (gamma, xi), the growth rate of the
  undiscounted flow and its corrector;
* two independent routes to the ergodic pair, a sweep down the discount
  ladder to r = 0 and a direct long-time integration whose estimate
  seeds the r = 0 solve (which rejects a seed it would move far); the
  ladder's rungs down to r_min and the window t_max are set here alone;
* diagnostics of the long-run behaviour: the limit of the sup-gap
  q(t) of the de-drifted flow to the corrector, the finite-horizon
  deviations from given terminal data, and a semigroup evaluator for
  the de-drifted equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .costs import CostModel
from .errors import NoConvergence, NumericOverflow
from .krylov import gmres
from .ode import integrate_grid

# the vanishing-discount sweep's rungs, 2^-3 down to 2^-20; it stops at r_min
DISCOUNT_LADDER = tuple(2.0 ** -n for n in range(3, 21))

# shortest and default window of the long-time integrations
MIN_T_MAX = 10.0
DEFAULT_T_MAX = 200.0

# tolerances of the long-time flows and of semigroup_apply; the drift
# pre-pass over [0, 20] only centres the flow, and runs looser
_RTOL, _ATOL = 1e-10, 1e-12
_PRE_RTOL, _PRE_ATOL = 1e-8, 1e-10


@dataclass(frozen=True)
class StationaryValue:
    """Solution of the discounted stationary equation at one discount.

    iterations counts the accepted Newton steps of every restart stage,
    and krylov_iterations the GMRES iterations of their linear solves.
    """

    discount: float
    u: np.ndarray = field(repr=False)
    residual: float
    iterations: int
    krylov_iterations: int


def _sup(x: np.ndarray) -> float:
    return float(np.max(np.abs(x)))


def _damped_newton(system, x: np.ndarray, tol, max_iter: int):
    """Damped inexact Newton on system(x) -> (F, apply, diag), in the sup norm.

    apply(d) is J d for the Jacobian J at x, and diag its diagonal. Each
    step solves J d = -F by GMRES to the forcing tolerance min(0.1,
    |F|) |F|, and never tighter than half of tol(x), then halves the
    step length from 1 down to 2^-30 until the residual drops; a trial
    that overflows the kernels counts as one where it does not. Where J
    is singular GMRES returns its minimum-residual step and the line
    search decides. Stops when the residual is within tol(x), when no
    step length lowers it, or after max_iter accepted steps. Returns the
    last iterate, its residual, the number of accepted steps and the
    number of GMRES iterations.
    """
    f, apply, diag = system(x)
    fnorm = _sup(f)
    steps = krylov = 0
    while steps < max_iter and fnorm > tol(x):
        delta, _, its = gmres(apply, -f, diag, max(min(0.1, fnorm) * fnorm, 0.5 * tol(x)))
        krylov += its
        alpha = 1.0
        while alpha >= 2.0 ** -30:
            cand = x + alpha * delta
            try:
                fc, ac, dc = system(cand)
            except NumericOverflow:
                alpha *= 0.5
                continue
            fcn = _sup(fc)
            if np.isfinite(fcn) and fcn < fnorm:
                break
            alpha *= 0.5
        else:
            break
        x, f, apply, diag, fnorm = cand, fc, ac, dc, fcn
        steps += 1
    return x, fnorm, steps, krylov


def _pinned(z: np.ndarray) -> np.ndarray:
    """v = (0, z[1:]): the spread that z = (c, v[1:]) carries."""
    v = z.copy()
    v[0] = 0.0
    return v


def _system(model: CostModel, r: float, z: np.ndarray):
    """Residual F = H(v) - r v - c in z = (c, v[1:]), v[0] = 0, and its Jacobian.

    H reads only differences, so for u = c / r + v, F = -r u + H(u). v[0]
    is pinned, so the generator's column 0 is free to carry the
    derivative in c: the Jacobian is Q(lam*(v)) - r I with column 0
    replaced by -1, applied as (Q - r I)(0, d[1:]) - d[0] in O(edges).
    """
    v = _pinned(z)
    lam = model.intensity_vector(v)

    def apply(d):
        e = _pinned(d)
        return model.generator_apply(lam, e) - r * e - d[0]

    diag = -model.exit_rates(lam) - r
    diag[0] = -1.0
    return model.hamiltonian_vector(v) - r * v - z[0], apply, diag


def _start(model: CostModel, r: float, initial_guess: np.ndarray | None) -> np.ndarray:
    """A checked guess g for u (zero by default) as z = (r g[0], g[1:] - g[0])."""
    n = model.n_nodes
    guess = np.zeros(n) if initial_guess is None else np.array(initial_guess, dtype=float)
    if guess.shape != (n,):
        raise ValueError(f"initial guess has shape {guess.shape}, expected ({n},)")
    if not np.all(np.isfinite(guess)):
        raise ValueError("initial guess must be finite")
    return np.concatenate([[r * guess[0]], guess[1:] - guess[0]])


def _discounted(model: CostModel, r: float, z0: np.ndarray):
    """(z, residual, Newton steps, GMRES iterations) at discount r > 0, from z0.

    Newton stops within 1e-12 (1 + |z|), or after 80 steps; a tolerance
    on the scale of u, which grows like 1 / r, would leave c short of its
    root at small r. A residual above 1e-10 (1 + |u|) restarts it from z0
    at the discount r 2^K, K = max(1, ceil(-log2 r)), halved back to r
    stage by stage from the last answer: at a larger discount Newton
    converges from farther away. A final miss raises NoConvergence.
    """
    def newton(rate, z):
        return _damped_newton(lambda y: _system(model, rate, y), z,
                              lambda y: 1e-12 * (1.0 + _sup(y)), 80)

    def missed(z, fnorm):
        return fnorm > 1e-10 * (1.0 + _sup(z[0] / r + _pinned(z)))

    z, fnorm, iterations, krylov = newton(r, z0)
    if missed(z, fnorm):
        z = z0
        for stage in range(max(1, math.ceil(-math.log2(r))), -1, -1):
            z, fnorm, steps, its = newton(math.ldexp(r, stage), z)
            iterations += steps
            krylov += its
        if missed(z, fnorm):
            raise NoConvergence(f"stationary Newton stalled at discount {r}")
    return z, fnorm, iterations, krylov


def solve_stationary(model: CostModel, r: float,
                     initial_guess: np.ndarray | None = None) -> StationaryValue:
    """Solve -r u_i + H(i, (u_j - u_i)_j) = 0 for the stationary value.

    Solves the system for z = (c, v[1:]) from the initial guess (zero
    by default), each Newton step by GMRES with no n x n array built,
    and returns u = c / r + v. The residual is below 1e-10 (1 + |u|),
    else NoConvergence. That contract is relative, and below the
    ladder's floor 2^-20 it certifies nothing (u grows like 1 / r), so a
    smaller discount raises ValueError.
    """
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError(f"discount must be positive and finite, got {r}")
    if r < DISCOUNT_LADDER[-1]:
        raise ValueError(f"discount {r} is below the floor {DISCOUNT_LADDER[-1]} (2^-20), "
                         "where the residual contract certifies nothing")
    z, fnorm, iterations, krylov = _discounted(model, r, _start(model, r, initial_guess))
    return StationaryValue(r, z[0] / r + _pinned(z), fnorm, iterations, krylov)


@dataclass(frozen=True)
class ErgodicSolution:
    """Ergodic constant gamma and corrector xi with xi[0] = 0 exactly.

    diagnostics holds per-stage convergence evidence: (discount,
    max_i |r u_i - gamma|) rows, one per rung, for the vanishing-discount
    route (r u = c + r v, against the final gamma), (t, q(t)) rows at
    t = 0, t_max / 4, t_max / 2 and t_max for the direct route.
    q_infinity is only available from the direct route, and only when
    its tail has stabilized. non_unique_corrector flags models whose
    Hamiltonian is not strictly increasing, where xi is meaningful but
    not unique up to constants.
    """

    gamma: float
    xi: np.ndarray = field(repr=False)
    diagnostics: np.ndarray = field(repr=False)
    q_infinity: float | None = None
    non_unique_corrector: bool = False
    residual: float = float("nan")


def _refine_ergodic(model: CostModel, gamma0: float,
                    xi0: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Solve the system at r = 0, the ergodic equation, from (gamma0, xi0).

    The seed must already be consistent: a solve that moves gamma or xi
    by more than 1e-3 (1 + |gamma0|) means the estimator had not
    converged, reported as NoConvergence rather than accepting the root.
    Without strict monotonicity xi is not unique and may slide along
    its solution set, so only the move in gamma is checked there.
    """
    z, fnorm, _, _ = _damped_newton(
        lambda x: _system(model, 0.0, x), np.concatenate([[gamma0], xi0[1:]]),
        lambda x: 1e-12 * (1.0 + abs(x[0])), 60)
    if fnorm > 1e-8:
        raise NoConvergence(f"ergodic refinement stalled at residual {fnorm}")
    gamma, xi = float(z[0]), _pinned(z)
    moved = max(abs(gamma - gamma0), _sup(xi - xi0) if model.strict_monotone else 0.0)
    if moved > 1e-3 * (1.0 + abs(gamma0)):
        raise NoConvergence(
            f"ergodic estimate moved {moved:.2e} under refinement; estimator had not converged"
        )
    return gamma, xi, fnorm


def solve_ergodic_vanishing_discount(
    model: CostModel,
    r_min: float = DISCOUNT_LADDER[-1],
    initial_guess: np.ndarray | None = None,
) -> ErgodicSolution:
    """Ergodic pair by walking the discount down the ladder to r = 0.

    c = r u[0] tends to gamma and v = u - u[0] to xi as r -> 0 (the
    Laurent expansion u = gamma / r + h + O(r)), so r = 0 is one more
    rung of the system. The walk solves the rungs of DISCOUNT_LADDER at
    or above r_min (1 - 1e-12) as solve_stationary does, each from the
    last, the first from initial_guess, then r = 0 (_refine_ergodic);
    fewer than two rungs raise ValueError. Rung r gives the row
    (r, max_i |c + r v_i - gamma|). The sweep counts as converged when
    the last row is below 1e-6 scaled by the corrector size and shrank
    geometrically in the last step (factor 0.75, with 1e-7 slack).
    """
    rs = tuple(r for r in DISCOUNT_LADDER if r >= r_min * (1.0 - 1e-12))
    if len(rs) < 2:
        raise ValueError(f"r_min {r_min} leaves fewer than two discounts in the sweep")

    z = _start(model, rs[0], initial_guess)
    walked = []
    for r in rs:
        z = _discounted(model, r, z)[0]
        walked.append(z)
    gamma, xi, resid = _refine_ergodic(model, z[0], _pinned(z))

    diags = np.array([[r, _sup(w[0] + r * _pinned(w) - gamma)] for r, w in zip(rs, walked)])
    d_prev, d_last = diags[-2, 1], diags[-1, 1]
    # the diagnostic decays like r times the corrector spread, so the
    # settledness threshold scales with that spread
    settle = 1e-6 * (1.0 + _sup(xi))
    if not (d_last <= settle and d_last <= 0.75 * d_prev + 1e-7):
        raise NoConvergence(
            f"vanishing-discount diagnostics not settled: last two are {d_prev:.3e}, {d_last:.3e}"
        )
    return ErgodicSolution(gamma, xi, diags, None, not model.strict_monotone, resid)


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
    horizons. A looser pre-pass over [0, 20] supplies a drift gamma0,
    and the flow is integrated as y = z - gamma0 t, which keeps error
    control on the right scale; H reads only differences, so the
    substitution is exact. gamma is the growth of node 0 over the second
    half of [0, t_max], which must be within 1e-6 of its growth over the
    second quarter, and xi is the spread at t_max; both seed the r = 0
    solve. Returns the grid, gamma, xi, the residual of that solve and
    the rows vhat = z - gamma t on the grid.
    """
    if not (t_max >= MIN_T_MAX and math.isfinite(t_max)):
        raise ValueError(f"t_max must be at least {MIN_T_MAX:g}, got {t_max}")
    # np.sort and a mask of repeats, not np.unique, which imports numpy.ma
    grid = np.sort(np.concatenate([[0.0, 0.25 * t_max, 0.5 * t_max, t_max], horizons]))
    grid = grid[np.concatenate([[True], grid[1:] != grid[:-1]])]
    if not (grid[0] == 0.0 and grid[-1] < math.inf):  # np.sort puts NaN last
        raise ValueError(f"horizons must be finite and nonnegative, got {horizons}")

    def drifting(_t, y, out):
        out[...] = model.hamiltonian_vector(y)

    pre, _ = integrate_grid(drifting, np.array([0.0, 10.0, 20.0]), z0, _PRE_RTOL, _PRE_ATOL)
    gamma0 = float(pre[2, 0] - pre[1, 0]) / 10.0

    def dedrifted(_t, y, out):
        np.subtract(model.hamiltonian_vector(y), gamma0, out=out)

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


def solve_ergodic_direct(model: CostModel, t_max: float = DEFAULT_T_MAX) -> ErgodicSolution:
    """Ergodic pair from one long undiscounted integration.

    Integrates the flow from zero terminal data, landing only on 0,
    t_max / 4, t_max / 2 and t_max; gamma comes from the growth of node
    0 and xi from the final spread (see _ergodic_flow). The diagnostics
    are the (t, q(t)) rows at those four times, and q(t_max) is the
    limit of the decreasing gap q once it has settled.
    """
    grid, gamma, xi, resid, vhat = _ergodic_flow(model, np.zeros(model.n_nodes), (), t_max)
    q, q_inf = _q_series(grid, vhat, xi, t_max)
    return ErgodicSolution(gamma, xi, np.column_stack([grid, q]), q_inf,
                           not model.strict_monotone, resid)


def deviation_profile(model: CostModel, payoff: np.ndarray, horizons,
                      t_max: float = DEFAULT_T_MAX) -> tuple[float, np.ndarray]:
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
    if not 0.0 <= t < math.inf:
        raise ValueError(f"time must be nonnegative and finite, got {t}")
    if t == 0.0:
        return y.copy()

    def rhs(_t, z, out):
        np.subtract(model.hamiltonian_vector(z.reshape(y.shape)), gamma, out=out.reshape(y.shape))

    rows, _ = integrate_grid(rhs, (0.0, t), y.reshape(-1), rtol, atol)
    return rows[-1].reshape(y.shape)

