"""Property-based checks on random strongly connected graphs.

Graphs are drawn by hypothesis as a directed ring through every node
plus drawn chords, which keeps each instance strongly connected. The
settings are derandomized and keep no example database, so every run
draws the same instances and no failing example is saved. The
Cole-Hopf checks draw all-entropic graphs, which that oracle needs; the
others draw each edge from every cost family.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmcontrol import (
    CostFamily,
    CostModel,
    EdgeCost,
    Policy,
    PolicyMode,
    Problem,
    build_graph,
    evaluate_stationary_policy,
    semigroup_apply,
    solve_ergodic_vanishing_discount,
    solve_finite_horizon,
    solve_stationary,
)
from ctmcontrol.stationary import DISCOUNT_LADDER, deviation_profile, solve_ergodic_direct

from oracles import cole_hopf

HORIZONS = (10.0, 20.0, 40.0)
ENTROPIC = (CostFamily.ENTROPIC,)


@st.composite
def rings(draw, families=tuple(CostFamily)):
    """A ring with chords and a terminal payoff in [-1, 1].

    Each edge draws its family from families.
    """
    n = draw(st.integers(2, 8))
    ring = [(i, (i + 1) % n) for i in range(n)]
    chords = [(i, j) for i in range(n) for j in range(n) if i != j and (i, j) not in ring]
    edges = sorted(ring + (draw(st.lists(st.sampled_from(chords), unique=True))
                           if chords else []))
    costs = {e: EdgeCost(draw(st.sampled_from(families)), draw(st.floats(0.5, 2.0)),
                         draw(st.floats(-0.5, 0.5))) for e in edges}
    return CostModel(build_graph(n, edges), costs), drawn_vector(draw, n)


def drawn_vector(draw, n, low=-1.0):
    """A vector of n entries in [low, 1], drawn with draw."""
    return np.array(draw(st.lists(st.floats(low, 1.0), min_size=n, max_size=n)))


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(rings(ENTROPIC))
def test_deviation_profile_matches_cole_hopf(instance):
    model, payoff = instance
    gamma, xi, q_exact, values = cole_hopf(model, payoff, HORIZONS)
    q_inf, deviations = deviation_profile(model, payoff, HORIZONS)
    exact = [np.max(np.abs(v - gamma * t - xi - q_exact)) for v, t in zip(values, HORIZONS)]
    assert abs(q_inf - q_exact) <= 1e-10
    assert np.max(np.abs(deviations - exact)) <= 1e-10


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(rings(ENTROPIC))
def test_direct_route_matches_cole_hopf(instance):
    model, _ = instance
    gamma, xi, q_exact, _ = cole_hopf(model, np.zeros(model.n_nodes), ())
    sol = solve_ergodic_direct(model)
    assert abs(sol.gamma - gamma) <= 1e-10
    assert np.max(np.abs(sol.xi - xi)) <= 1e-10
    assert abs(sol.q_infinity - q_exact) <= 1e-10
    # the diagnostics are the window rows the growth and settle checks read,
    # and q does not rise along them by more than 1e-9
    assert sol.diagnostics[:, 0].tolist() == [0.0, 50.0, 100.0, 200.0]
    assert np.max(np.diff(sol.diagnostics[:, 1])) <= 1e-9


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(rings(ENTROPIC))
def test_vanishing_route_matches_cole_hopf(instance):
    model, _ = instance
    gamma, xi, _, _ = cole_hopf(model, np.zeros(model.n_nodes), ())
    sol = solve_ergodic_vanishing_discount(model)
    assert abs(sol.gamma - gamma) <= 1e-10
    assert np.max(np.abs(sol.xi - xi)) <= 1e-10
    assert sol.diagnostics[:, 0].tolist() == list(DISCOUNT_LADDER)


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(rings())
def test_vanishing_route_solves_the_ergodic_equation(instance):
    model, _ = instance
    sol = solve_ergodic_vanishing_discount(model)
    gamma, xi = sol.gamma, sol.xi
    assert np.max(np.abs(model.hamiltonian_vector(xi) - gamma)) <= 1e-8 * (1.0 + abs(gamma))
    # the last row passes the sweep's own settle test
    d_prev, d_last = sol.diagnostics[-2:, 1]
    assert d_last <= 1e-6 * (1.0 + np.max(np.abs(xi))) and d_last <= 0.75 * d_prev + 1e-7


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(rings(), st.data())
def test_comparison_principle(instance, data):
    model, payoff = instance
    gap = drawn_vector(data.draw, model.n_nodes, low=0.0)
    low = solve_finite_horizon(Problem(model, payoff, horizon=1.0)).values
    high = solve_finite_horizon(Problem(model, payoff + gap, horizon=1.0)).values
    assert np.max(low - high) <= 1e-8


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(rings(), st.data())
def test_semigroup_nonexpansive_and_law(instance, data):
    model, x = instance
    y = drawn_vector(data.draw, model.n_nodes)
    gamma = solve_ergodic_vanishing_discount(model).gamma
    sx = semigroup_apply(model, gamma, x, 1.0)
    sy = semigroup_apply(model, gamma, y, 1.0)
    assert np.max(np.abs(sx - sy)) <= np.max(np.abs(x - y)) + 1e-8
    again = semigroup_apply(model, gamma, semigroup_apply(model, gamma, y, 0.5), 0.5)
    assert np.max(np.abs(again - sy)) <= 1e-8


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(rings())
def test_cold_stationary_solve(instance):
    # the residual contract, carried through ||(rI - Q)^-1|| <= 1/r,
    # bounds the gap to the evaluation of the solve's own policy
    model, _ = instance
    for r in (2.0 ** -3, 2.0 ** -10, 2.0 ** -20):
        sol = solve_stationary(model, r)
        scale = 1.0 + np.max(np.abs(sol.u))
        assert sol.residual <= 1e-10 * scale
        policy = Policy(PolicyMode.STATIONARY, model.intensity_vector(sol.u))
        evaluated = evaluate_stationary_policy(model, policy, r)
        assert np.max(np.abs(evaluated - sol.u)) <= 1e-10 * scale / r
