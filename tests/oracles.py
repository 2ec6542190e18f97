"""Independent oracles: brute-force and exact routes that share no solver code.

These routes cross-check the library: a lambda-grid maximizer that
never touches the closed-form conjugates, the closed forms evaluated
on every edge in both families and picked per edge by np.where beside
the family-major kernels, node sums added one Python float at a time
in the kernels' order, a fixed-step classical RK4 backward march
that never touches the adaptive integrator, the Dormand-Prince driver
as first written (fresh arrays for every step, stages as
y + h * (a @ k)) beside the lean one, a scalar bisection for the
stationary values of an entropic pair, the exact Cole-Hopf solution
of all-entropic undiscounted models, a one-path-at-a-time exact
sampler beside the batched one, the dense n x n generator beside the
matrix-free one, and the residual, policy table and CSV text built
whole beside the blocked and streamed ones. Tests freeze expected
values from these, or call them directly where the instance is random.
"""

import math

import numpy as np
from numpy.random import Generator, Philox

from ctmcontrol import NoConvergence, NumericOverflow, StepSizeUnderflow


def grid_max_hamiltonian(model, node, p, lam_max=60.0, n_grid=2_000_001):
    """H(node, p) and its maximizer by brute force over a lambda grid.

    Maximizes sum_j lambda_j p_j - l_ij(lambda_j) edge by edge (the
    objective separates), evaluating the per-edge costs from their
    definitions. Resolution is lam_max / (n_grid - 1) per edge.
    """
    sl = model.node_slice(node)
    scale = model.scale[sl]
    shift = model.shift[sl]
    entropic = model.entropic[sl]
    p = np.asarray(p, dtype=float)
    lam = np.linspace(0.0, lam_max, n_grid)
    best_val = np.empty(len(scale))
    best_lam = np.empty(len(scale))
    for j in range(len(scale)):
        if entropic[j]:
            with np.errstate(divide="ignore", invalid="ignore"):
                logs = np.log(np.where(lam > 0, lam, 1.0) / scale[j])
            cost = np.where(lam > 0, lam * (logs - 1.0), 0.0) - shift[j] * lam
        else:
            cost = np.square(lam) / (2.0 * scale[j]) - shift[j] * lam
        gain = lam * p[j] - cost
        k = int(np.argmax(gain))
        best_val[j] = gain[k]
        best_lam[j] = lam[k]
    return float(np.sum(best_val)), best_lam


def where_edge_terms(model, p, edges=slice(None)):
    """Edge conjugates and maximizers at flat slopes p, two families at once.

    Evaluates both families' closed forms on every edge of the slice
    and picks one per edge with np.where, with no overflow guard;
    returns (conjugates, maximizers).
    """
    scale, shift, entropic = model.scale[edges], model.shift[edges], model.entropic[edges]
    q = p + shift
    ent = scale * np.exp(np.where(entropic, q, 0.0))
    conj = np.where(entropic, ent, 0.5 * scale * np.square(np.maximum(q, 0.0)))
    return conj, np.where(entropic, ent, scale * np.maximum(q, 0.0))


def family_major_node_sums(model, terms):
    """Node sums of flat edge terms (..., edges), in the kernels' order.

    Adds each node's terms from 0.0, left to right: first its entropic
    edges, then its quadratic ones, each in flat order, one Python
    float at a time.
    """
    terms = np.asarray(terms, dtype=float)
    out = np.empty(terms.shape[:-1] + (model.n_nodes,))
    for i in range(model.n_nodes):
        own = range(model.offsets[i], model.offsets[i + 1])
        order = [k for k in own if model.entropic[k]] + [k for k in own if not model.entropic[k]]
        for row in np.ndindex(terms.shape[:-1]):
            total = 0.0
            for k in order:
                total += float(terms[row + (k,)])
            out[row + (i,)] = total
    return out


def rk4_backward(problem, n_steps=1000):
    """Fixed-step classical RK4 for the backward value equation.

    Marches W(s) for s = T - t from W(0) = g with step T/n_steps using
    dW/ds = H(W) - r W, and returns the value vector at s = T (that is,
    V at time 0). Fourth-order accurate; with 1000 steps on desk-scale
    instances it is within about 1e-10 of a tight adaptive solve.
    """
    model = problem.costs
    r = problem.discount

    def f(w):
        return model.hamiltonian_vector(w) - r * w

    h = problem.horizon / n_steps
    w = np.asarray(problem.terminal_payoff, dtype=float).copy()
    for _ in range(n_steps):
        k1 = f(w)
        k2 = f(w + 0.5 * h * k1)
        k3 = f(w + 0.5 * h * k2)
        k4 = f(w + h * k3)
        w = w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return w


_DP5_A = (
    np.array([], dtype=float),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
)
_DP5_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP5_E = (np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
          - np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                      187 / 2100, 1 / 40]))
_DP5_BETA = 0.04
_DP5_EXPO = 0.2 - 0.75 * _DP5_BETA


def _dp5_initial_step(f, t0, y0, f0, span, rtol, atol):
    with np.errstate(invalid="ignore", over="ignore"):
        if not np.all(np.isfinite(f0)):
            return span * 1e-3
        scale = atol + rtol * np.abs(y0)
        d0 = float(np.sqrt(np.mean(np.square(y0 / scale))))
        d1 = float(np.sqrt(np.mean(np.square(f0 / scale))))
        h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
        h0 = min(h0, span)
        y1 = y0 + h0 * f0
        f1 = f(t0 + h0, y1)
        if not np.all(np.isfinite(f1)):
            return span * 1e-3
        d2 = float(np.sqrt(np.mean(np.square((f1 - f0) / scale)))) / h0
        if max(d1, d2) <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** 0.2
        return min(100.0 * h0, h1, span)


def _dp5_step(f, t, y, k1, h, rtol, atol):
    k = np.empty((7, y.shape[0]))
    k[0] = k1
    for s in range(1, 6):
        ys = y + h * (_DP5_A[s] @ k[:s])
        k[s] = f(t + _DP5_C[s] * h, ys)
    y5 = y + h * (_DP5_A[6] @ k[:6])
    k[6] = f(t + h, y5)
    err = h * (_DP5_E @ k)
    scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
    if not np.isfinite(y5).all():
        return y5, k[6], math.inf
    return y5, k[6], math.sqrt(float(np.square(err / scale).sum()) / err.shape[0])


def dp5_integrate_grid(f, grid, y0, rtol, atol):
    """Dormand-Prince 5(4) with grid landing, as the library first wrote it.

    The same pair, PI controller, step floor and grid landing as
    ode.integrate_grid, with a fresh stage array per step, each stage
    as y + h * (A[s] @ k[:s]) and numpy-float stage times. Returns the
    rows and (accepted, rejected).
    """
    grid = np.asarray(grid, dtype=float)
    out = np.empty((grid.shape[0], np.asarray(y0).shape[0]))
    out[0] = y0
    t = float(grid[0])
    y = np.asarray(y0, dtype=float).copy()
    span = float(grid[-1]) - t
    k1 = f(t, y)
    h_ctrl = _dp5_initial_step(f, t, y, k1, span, rtol, atol)
    facold = 1e-4
    accepted = rejected = 0
    nonfinite_last = False
    with np.errstate(invalid="ignore", over="ignore"):
        for idx in range(1, grid.shape[0]):
            target = float(grid[idx])
            while t < target:
                remaining = target - t
                h = min(h_ctrl, remaining)
                if 0.0 < target - (t + h) < 1e-14 * span:
                    h = remaining
                landing = h == remaining
                clamped = h < h_ctrl
                if h < 1e-14 * span:
                    if nonfinite_last:
                        raise NumericOverflow(f"right-hand side non-finite near t = {t}")
                    raise StepSizeUnderflow(f"step {h} below 1e-14 of span {span} at t = {t}")
                if accepted + rejected >= 10_000_000:
                    raise NoConvergence(f"step budget exhausted at t = {t}")
                y_new, k_last, err = _dp5_step(f, t, y, k1, h, rtol, atol)
                if not math.isfinite(err):
                    nonfinite_last = True
                    rejected += 1
                    h_ctrl = h * 0.2
                    continue
                nonfinite_last = False
                if err <= 1.0:
                    fac = (max(err, 1e-10) ** _DP5_EXPO) / (facold ** _DP5_BETA)
                    fac = max(1.0 / 10.0, min(1.0 / 0.2, fac / 0.9))
                    h_next = h / fac
                    facold = max(err, 1e-4)
                    t = target if landing else t + h
                    y = y_new
                    k1 = k_last
                    accepted += 1
                    h_ctrl = max(h_next, h_ctrl) if clamped else h_next
                else:
                    rejected += 1
                    fac = (err ** _DP5_EXPO) / (facold ** _DP5_BETA)
                    h_ctrl = h / min(1.0 / 0.2, fac / 0.9)
            out[idx] = y
    return out, (accepted, rejected)


def whole_residual(problem, trajectory):
    """The finite-horizon residual as first written, over all rows at once.

    The nine-point stencils of every interior row and H(V) on the
    whole (K - 2, n) block in one kernel call; the blocked library
    version must give the same bits.
    """
    from ctmcontrol.finite_horizon import _CENTER9, _OFFSET1, _OFFSET2, _OFFSET3

    grid, v = trajectory.grid, trajectory.values
    dt = float(grid[1] - grid[0])
    m = v.shape[0] - 1
    d = np.empty((m - 1, v.shape[1]))
    center = sum(w * v[4 + s: m - 3 + s] for s, w in zip(range(-4, 5), _CENTER9))
    d[3:-3] = center / dt
    d[0] = (_OFFSET1 @ v[:9]) / dt
    d[1] = (_OFFSET2 @ v[:9]) / dt
    d[2] = (_OFFSET3 @ v[:9]) / dt
    d[-3] = -(_OFFSET3 @ v[:-10:-1]) / dt
    d[-2] = -(_OFFSET2 @ v[:-10:-1]) / dt
    d[-1] = -(_OFFSET1 @ v[:-10:-1]) / dt
    interior = v[1:-1]
    ham = problem.costs.hamiltonian_vector(interior)
    res = d - problem.discount * interior + ham
    return float(np.max(np.abs(res)))


def whole_policy_table(problem, trajectory):
    """The (K, edges) optimal intensity table as first written: one kernel call."""
    return problem.costs.intensity_vector(trajectory.values)


def joined_csv(header, rows):
    """A CSV table as first written: every line built, then one joined string."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format(float(x), ".17g") for x in row))
    return "\n".join(lines) + "\n"


def dense_generator(model, lam):
    """The generator Q of the chain run at flat intensities, as a dense n x n array.

    Q[i, j] sums the intensities of the edges i -> j and Q[i, i] is
    minus node i's total rate, both written entry by entry from the
    edge list.
    """
    n = model.n_nodes
    q = np.zeros((n, n))
    for i, j, rate in zip(model.edge_src.tolist(), model.edge_dst.tolist(),
                          np.asarray(lam, dtype=float).tolist()):
        q[i, j] += rate
        q[i, i] -= rate
    return q


def two_node_stationary(a01, a10, r):
    """Stationary value of the entropic pair with scales a01 (0 -> 1), a10 (1 -> 0).

    With zero shifts the equations read r u_0 = a01 e^d and
    r u_1 = a10 e^-d for d = u_1 - u_0, so d solves
    r d = a10 e^-d - a01 e^d. The difference of the two sides is
    strictly increasing in d, and bisection halves its bracket until the
    midpoint is one of the ends.
    """
    def g(d):
        return r * d + a01 * math.exp(d) - a10 * math.exp(-d)

    lo, hi = -1.0, 1.0
    while g(lo) > 0.0:
        lo *= 2.0
    while g(hi) < 0.0:
        hi *= 2.0
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    d = lo if abs(g(lo)) <= abs(g(hi)) else hi
    return np.array([a01 * math.exp(d), a10 * math.exp(-d)]) / r


def symmetric_discounted_value(r, t, horizon):
    """V_i(t) for the symmetric unit entropic pair, zero payoff."""
    if r == 0.0:
        return horizon - np.asarray(t, dtype=float)
    return -np.expm1(-r * (horizon - np.asarray(t, dtype=float))) / r


def _log_expm_apply(a, v, terms=30):
    """log(exp(a) v) for a nonnegative matrix a and positive vector v.

    Scaling and squaring: every Taylor term and every product is
    nonnegative, so nothing cancels; each square is divided by its
    largest entry and the scale is carried in log space, so a large a
    cannot overflow.
    """
    squarings = max(0, math.ceil(math.log2(max(np.max(np.sum(a, axis=1)), 1e-300) / 0.5)))
    a = a / 2.0 ** squarings
    x = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for j in range(1, terms):
        term = term @ a / j
        x = x + term
    log_scale = 0.0
    for _ in range(squarings):
        x = x @ x
        top = np.max(x)
        x = x / top
        log_scale = 2.0 * log_scale + math.log(top)
    return np.log(x @ v) + log_scale


def cole_hopf(model, payoff, horizons):
    """Exact long-run expansion of an all-entropic undiscounted model.

    With K_ij = a_ij e^{b_ij} on the edges, H(i, V) = sum_j K_ij
    e^{V_j - V_i}, so phi = e^V solves the linear system phi' = K phi
    and V(0; T) = log(exp(T K) e^g). K is irreducible, so its Perron
    root is gamma; with r and l its right and left Perron vectors,
    xi = log r - log r_0 and q_inf = log(r_0 (l . e^g) / (l . r)).
    Returns (gamma, xi, q_inf, [V(0; T) for T in horizons]).
    """
    if not np.all(model.entropic):
        raise ValueError("the Cole-Hopf transform needs every edge entropic")
    n = model.n_nodes
    k = np.zeros((n, n))
    k[model.edge_src, model.edge_dst] = model.scale * np.exp(model.shift)
    roots, right = np.linalg.eig(k)
    top = int(np.argmax(roots.real))
    gamma = float(roots[top].real)
    r = np.abs(right[:, top].real)
    roots_t, left = np.linalg.eig(k.T)
    ell = np.abs(left[:, int(np.argmax(roots_t.real))].real)
    eg = np.exp(np.asarray(payoff, dtype=float))
    xi = np.log(r) - math.log(r[0])
    q_inf = math.log(r[0] * float(ell @ eg) / float(ell @ r))
    return gamma, xi, q_inf, [_log_expm_apply(t * k, eg) for t in horizons]


def _node_tables(problem, policy, i):
    """Node i's tables over the policy grid, as a dict of arrays."""
    model = problem.costs
    horizon = problem.horizon
    if policy.grid is None:
        times, rows = np.array([0.0, horizon]), policy.intensities[None]
    else:
        times, rows = policy.grid, policy.intensities[1:]
    sl = model.node_slice(i)
    lam = rows[:, sl]
    cumlam = np.cumsum(lam, axis=1)
    rate = cumlam[:, -1].copy()
    reward = -np.sum(model.cost_terms(lam, sl), axis=1)
    spans = np.diff(times)
    r = problem.discount
    phi = np.array([_phi(x) for x in (r * spans).tolist()])
    pieces = reward * (np.exp(-r * times[:-1]) * spans * phi)
    return {"times": times, "cumlam": cumlam, "rate": rate, "reward": reward,
            "cumhaz": np.concatenate([[0.0], np.cumsum(rate * spans)]),
            "cumrew": np.concatenate([[0.0], np.cumsum(pieces)]),
            "dst": model.edge_dst[sl]}


def _phi(x):
    """(1 - e^{-x}) / x, and 1 at x = 0."""
    return -math.expm1(-x) / x if x else 1.0


def _weight(r, a, b):
    """The integral of e^{-r t} over [a, b], as e^{-r a} (b - a) phi(r (b - a))."""
    if r == 0.0:
        return b - a
    return math.exp(-r * a) * (b - a) * _phi(r * (b - a))


def _path_value(problem, tables, start, rng):
    r = problem.discount
    horizon = problem.horizon
    node, t, total = start, 0.0, 0.0
    while True:
        tab = tables[node]
        times, cumhaz, rate = tab["times"], tab["cumhaz"], tab["rate"]
        p = max(int(np.searchsorted(times, t, side="left")) - 1, 0)
        target = float(cumhaz[p] + rate[p] * (t - times[p])) - math.log1p(-rng.random())
        q = int(np.searchsorted(cumhaz, target, side="right")) - 1
        if q >= len(rate) or target >= cumhaz[-1]:
            t_jump, kb = horizon, len(rate) - 1
        else:
            t_jump, kb = min(times[q] + (target - cumhaz[q]) / rate[q], horizon), q
        head = tab["reward"][p] * _weight(r, float(times[p]), t)
        tail = tab["reward"][kb] * _weight(r, t_jump, float(times[kb + 1]))
        total += float(tab["cumrew"][kb + 1] - tab["cumrew"][p]) - head - tail
        if t_jump >= horizon:
            break
        u = rng.random() * rate[q]
        edge = min(int(np.searchsorted(tab["cumlam"][q], u, side="right")),
                   len(tab["dst"]) - 1)
        node, t = int(tab["dst"][edge]), t_jump
    return total + math.exp(-r * horizon) * float(problem.terminal_payoff[node])


def scalar_path_values(problem, policy, start, n_paths, seed):
    """Path values of the exact sampler, one path and one Generator at a time.

    Path p draws from Generator(Philox(key=seed, counter=[0, p, 0, 0])):
    per jump one uniform inverts the piecewise-linear cumulative hazard
    of the current node's tables over the policy grid and one picks the
    edge, and the sojourn that reaches the horizon takes one. The tables
    are built here per node, without the library's flat schedule.
    """
    tables = [_node_tables(problem, policy, i) for i in range(problem.costs.n_nodes)]
    return np.array([
        _path_value(problem, tables, start,
                    Generator(Philox(key=seed, counter=[0, p, 0, 0])))
        for p in range(n_paths)
    ])
