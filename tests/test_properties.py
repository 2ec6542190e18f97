"""Property-based checks on random strongly connected graphs.

Graphs are drawn by hypothesis as a directed ring through every node
plus drawn chords, which keeps each instance strongly connected. The
settings are derandomized and keep no example database, so every run
draws the same instances and no failing example is saved.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmcontrol import CostFamily, CostModel, EdgeCost, build_graph
from ctmcontrol.stationary import deviation_profile, solve_ergodic_direct

from oracles import cole_hopf

HORIZONS = (10.0, 20.0, 40.0)


@st.composite
def entropic_rings(draw):
    """An all-entropic ring with chords and a terminal payoff in [-1, 1]."""
    n = draw(st.integers(2, 8))
    ring = [(i, (i + 1) % n) for i in range(n)]
    chords = [(i, j) for i in range(n) for j in range(n) if i != j and (i, j) not in ring]
    edges = sorted(ring + (draw(st.lists(st.sampled_from(chords), unique=True))
                           if chords else []))
    costs = {e: EdgeCost(CostFamily.ENTROPIC, draw(st.floats(0.5, 2.0)),
                         draw(st.floats(-0.5, 0.5))) for e in edges}
    payoff = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    return CostModel(build_graph(n, edges), costs), payoff


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(entropic_rings())
def test_deviation_profile_matches_cole_hopf(instance):
    model, payoff = instance
    gamma, xi, q_exact, values = cole_hopf(model, payoff, HORIZONS)
    q_inf, deviations = deviation_profile(model, payoff, HORIZONS)
    exact = [np.max(np.abs(v - gamma * t - xi - q_exact)) for v, t in zip(values, HORIZONS)]
    assert abs(q_inf - q_exact) <= 1e-10
    assert np.max(np.abs(deviations - exact)) <= 1e-10


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(entropic_rings())
def test_direct_route_matches_cole_hopf(instance):
    model, _ = instance
    gamma, xi, q_exact, _ = cole_hopf(model, np.zeros(model.n_nodes), ())
    sol = solve_ergodic_direct(model)
    assert abs(sol.gamma - gamma) <= 1e-10
    assert np.max(np.abs(sol.xi - xi)) <= 1e-10
    assert abs(sol.q_infinity - q_exact) <= 1e-10
    # the diagnostics are the window rows the growth and settle checks read,
    # and q does not rise along them beyond q_diagnostic's default slack
    assert sol.diagnostics[:, 0].tolist() == [0.0, 50.0, 100.0, 200.0]
    assert np.max(np.diff(sol.diagnostics[:, 1])) <= 1e-9
