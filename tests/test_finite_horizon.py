"""Backward value equation: closed forms, oracles, invariants."""

import math
import tracemalloc

import numpy as np
import pytest

from ctmcontrol import (
    CostFamily,
    CostModel,
    EdgeCost,
    NumericOverflow,
    Policy,
    PolicyMode,
    Problem,
    ValueTrajectory,
    build_graph,
    extract_policy,
    output_grid,
    residual,
    solve_finite_horizon,
)
from ctmcontrol import finite_horizon
from ctmcontrol.fixtures import random_model

from conftest import random_models, same_bits, two_node_model
from oracles import cole_hopf, symmetric_discounted_value, whole_policy_table, whole_residual


def test_output_grid_sizes():
    assert output_grid(1.0).shape == (257,)
    assert output_grid(10.0).shape == (641,)
    # short horizons keep the 256-interval floor
    assert output_grid(0.5).shape == (257,)
    g = output_grid(3.0)
    assert g[0] == 0.0 and g[-1] == 3.0
    assert np.allclose(np.diff(g), g[1] - g[0])


def test_symmetric_value_is_time_to_go(symmetric2):
    problem = Problem(symmetric2, np.zeros(2), horizon=1.0)
    traj = solve_finite_horizon(problem)
    expected = (problem.horizon - traj.grid)[:, None]
    assert np.max(np.abs(traj.values - expected)) < 1e-8


def test_symmetric_discounted_closed_form(symmetric2):
    problem = Problem(symmetric2, np.zeros(2), horizon=1.0, discount=1.0)
    traj = solve_finite_horizon(problem)
    expected = symmetric_discounted_value(1.0, traj.grid, 1.0)[:, None]
    assert np.max(np.abs(traj.values - expected)) < 1e-8


def test_solve_matches_cole_hopf():
    model = two_node_model(scale_12=2.0, scale_21=1.0)
    g = np.array([0.0, 1.0])
    traj = solve_finite_horizon(Problem(model, g, horizon=1.0))
    _, _, _, (exact,) = cole_hopf(model, g, (1.0,))
    assert np.max(np.abs(traj.values[0] - exact)) <= 1e-10


def test_terminal_row_bitwise():
    rng = np.random.default_rng(7)
    model = random_model(rng, n_nodes=4, family="mixed")
    g = rng.uniform(-1.0, 1.0, size=4)
    traj = solve_finite_horizon(Problem(model, g, horizon=1.0))
    assert np.array_equal(traj.values[-1], g)
    assert traj.grid[-1] == 1.0


def test_residual_below_contract_on_random_instance():
    rng = np.random.default_rng(11)
    model = random_model(rng, n_nodes=5, family="entropic")
    g = rng.uniform(-1.0, 1.0, size=5)
    traj = solve_finite_horizon(Problem(model, g, horizon=1.0))
    assert traj.max_residual <= 1e-6
    assert traj.max_residual == residual(Problem(model, g, horizon=1.0), traj)


def test_residual_stays_small_with_clamped_rates():
    # a quadratic edge whose rate touches zero leaves a kink in time, so
    # finite differences lose their formal order there; the measured
    # residual still stays modest
    rng = np.random.default_rng(11)
    model = random_model(rng, n_nodes=5, family="mixed")
    g = rng.uniform(-1.0, 1.0, size=5)
    traj = solve_finite_horizon(Problem(model, g, horizon=1.0))
    assert traj.max_residual <= 1e-4


def test_shift_equivariance_without_discount():
    rng = np.random.default_rng(13)
    model = random_model(rng, n_nodes=4, family="entropic")
    g = rng.uniform(-1.0, 1.0, size=4)
    base = solve_finite_horizon(Problem(model, g, horizon=1.0))
    shifted = solve_finite_horizon(Problem(model, g + 2.5, horizon=1.0))
    # the equation only sees value differences, so constants ride along
    assert np.max(np.abs(shifted.values - base.values - 2.5)) < 1e-9


def test_tighter_tolerance_does_not_hurt_residual():
    rng = np.random.default_rng(17)
    model = random_model(rng, n_nodes=4, family="mixed")
    problem = Problem(model, rng.uniform(-1.0, 1.0, size=4), horizon=1.0)
    loose = solve_finite_horizon(problem, rtol=1e-6, atol=1e-8)
    tight = solve_finite_horizon(problem, rtol=1e-10, atol=1e-12)
    assert tight.max_residual <= loose.max_residual + 1e-9
    assert np.max(np.abs(tight.values - loose.values)) < 1e-5


def test_overflowing_terminal_data_raises():
    model = two_node_model()
    with pytest.raises(NumericOverflow):
        solve_finite_horizon(Problem(model, np.array([0.0, 800.0]), horizon=1.0))


def test_policy_symmetric_is_unit_rate(symmetric2):
    problem = Problem(symmetric2, np.zeros(2), horizon=1.0)
    policy = extract_policy(problem, solve_finite_horizon(problem))
    assert policy.mode is PolicyMode.TIME_VARYING
    assert policy.intensities.shape == (257, 2)
    assert np.max(np.abs(policy.intensities - 1.0)) < 1e-8


def test_policy_matches_closed_form_rates():
    model = two_node_model(scale_12=4.0, scale_21=1.0)
    problem = Problem(model, np.array([0.3, -0.2]), horizon=1.0)
    traj = solve_finite_horizon(problem)
    policy = extract_policy(problem, traj)
    slope_12 = traj.values[:, 1] - traj.values[:, 0]
    slope_21 = -slope_12
    assert np.max(np.abs(policy.intensities[:, 0] - 4.0 * np.exp(slope_12))) < 1e-10
    assert np.max(np.abs(policy.intensities[:, 1] - 1.0 * np.exp(slope_21))) < 1e-10


def test_policy_quadratic_clamps_at_zero(quadratic2):
    problem = Problem(quadratic2, np.array([0.0, -5.0]), horizon=1.0)
    policy = extract_policy(problem, solve_finite_horizon(problem))
    # at the terminal time the slope toward node 1 is -5, well below the
    # shift of 1, so the optimal rate saturates at zero
    assert policy.intensities[-1, 0] == 0.0
    assert abs(policy.intensities[-1, 1] - 6.0) < 1e-12


def test_policy_approaches_turnpike_rate(asymmetric2):
    problem = Problem(asymmetric2, np.zeros(2), horizon=10.0)
    policy = extract_policy(problem, solve_finite_horizon(problem))
    # far from the terminal time both rates settle at sqrt(4 * 1) = 2
    assert abs(policy.intensities[0, 0] - 2.0) < 1e-3
    assert abs(policy.intensities[0, 1] - 2.0) < 1e-3


def test_residual_vanishes_on_exact_solution(symmetric2):
    problem = Problem(symmetric2, np.zeros(2), horizon=1.0)
    grid = output_grid(1.0)
    values = np.repeat((1.0 - grid)[:, None], 2, axis=1)
    traj = ValueTrajectory(grid, values, float("nan"), 0, 0)
    assert residual(problem, traj) < 1e-8


def test_residual_flags_corrupted_row(symmetric2):
    problem = Problem(symmetric2, np.zeros(2), horizon=1.0)
    grid = output_grid(1.0)
    values = np.repeat((1.0 - grid)[:, None], 2, axis=1)
    values[128, 0] += 0.1
    traj = ValueTrajectory(grid, values, float("nan"), 0, 0)
    assert residual(problem, traj) > 1.0


def test_comparison_equal_data(symmetric2):
    problem = Problem(symmetric2, np.zeros(2), horizon=1.0)
    low = solve_finite_horizon(problem).values
    high = solve_finite_horizon(problem).values
    assert np.max(low - high) == 0.0


def test_comparison_uniform_gap_is_preserved():
    rng = np.random.default_rng(19)
    model = random_model(rng, n_nodes=3, family="entropic")
    g = rng.uniform(-1.0, 1.0, size=3)
    low = solve_finite_horizon(Problem(model, g, horizon=1.0)).values
    high = solve_finite_horizon(Problem(model, g + 1.0, horizon=1.0)).values
    violation = np.max(low - high)
    assert violation <= 1e-8
    assert abs(violation + 1.0) < 1e-9


def test_comparison_random_instance():
    rng = np.random.default_rng(23)
    model = random_model(rng, n_nodes=4, family="mixed")
    g_low = rng.uniform(-1.0, 1.0, size=4)
    g_high = g_low + rng.uniform(0.0, 1.0, size=4)
    low = solve_finite_horizon(Problem(model, g_low, horizon=1.0)).values
    high = solve_finite_horizon(Problem(model, g_high, horizon=1.0)).values
    assert np.max(low - high) <= 1e-8


def test_problem_validation(symmetric2):
    with pytest.raises(ValueError):
        Problem(symmetric2, np.zeros(3), horizon=1.0)
    with pytest.raises(ValueError):
        Problem(symmetric2, np.zeros(2), horizon=0.0)
    with pytest.raises(ValueError):
        Problem(symmetric2, np.zeros(2), horizon=1.0, discount=-0.5)
    with pytest.raises(ValueError):
        Problem(symmetric2, np.array([0.0, math.inf]), horizon=1.0)


def test_quadratic_value_solves_closed_form(quadratic2):
    # both rates stay at 1 by symmetry, running cost 1/2 - 1 at rate 1,
    # so the undiscounted value grows linearly with time to go
    problem = Problem(quadratic2, np.zeros(2), horizon=2.0)
    traj = solve_finite_horizon(problem)
    expected = 0.5 * (problem.horizon - traj.grid)[:, None]
    assert np.max(np.abs(traj.values - expected)) < 1e-8


def test_policy_rejects_negative_and_nonfinite_intensities():
    grid = np.linspace(0.0, 1.0, 3)
    for bad in (-1e-300, -math.inf, math.inf, math.nan):
        table = np.ones((3, 2))
        table[1, 0] = bad
        with pytest.raises(ValueError):
            Policy(PolicyMode.TIME_VARYING, table, grid)
        with pytest.raises(ValueError):
            Policy(PolicyMode.STATIONARY, table[1])
    # a zero rate is valid with either sign
    Policy(PolicyMode.STATIONARY, np.array([0.0, -0.0]))


# row blocks of the trajectory consumers


def test_row_blocks_match_whole_array_oracle_bit_for_bit(monkeypatch):
    # rows per block: 1 and 2 put the three offset-stencil rows at each
    # end into different blocks; 2, 3 and 64 leave a ragged last block on
    # the 257- and 321-row grids; K - 2 and K rows take one call each
    default = finite_horizon._BLOCK_ENTRIES
    single = multiple = False
    for rng, model in random_models(131):
        edges = model.n_edges
        problem = Problem(model, rng.uniform(-1.0, 1.0, model.n_nodes),
                          float(rng.choice([1.0, 5.0])), float(rng.choice([0.0, 0.3])))
        traj = solve_finite_horizon(problem)
        k = traj.values.shape[0]
        assert traj.max_residual == whole_residual(problem, traj)
        table = whole_policy_table(problem, traj)
        shorts = [ValueTrajectory(traj.grid[:m], traj.values[:m], math.nan, 0, 0)
                  for m in (9, 10, 12, 16)]
        for entries in (edges, 2 * edges, 3 * edges, 64 * edges, (k - 2) * edges,
                        k * edges, default):
            monkeypatch.setattr(finite_horizon, "_BLOCK_ENTRIES", entries)
            assert residual(problem, traj) == whole_residual(problem, traj)
            assert same_bits(extract_policy(problem, traj).intensities, table)
            for short in shorts:
                assert residual(problem, short) == whole_residual(problem, short)
        blocks = len(finite_horizon._row_blocks(k, edges))
        single |= blocks == 1
        multiple |= blocks > 1
    assert single and multiple


def ring_with_chords(rng, n):
    """Ring i -> i + 1 plus chords i -> i + near_i and i -> i + far_i, built in O(edges).

    near_i in [2, n / 2) and far_i in [n / 2, n - 1) never collide with
    each other or the ring. Mixed families, scales U(0.5, 2), shifts
    U(-0.5, 0.5).
    """
    src = np.tile(np.arange(n), 3)
    offset = np.concatenate([np.ones(n, dtype=int), rng.integers(2, n // 2, n),
                             rng.integers(n // 2, n - 1, n)])
    edges = list(zip(src.tolist(), ((src + offset) % n).tolist()))
    families = np.where(rng.random(len(edges)) < 0.5, "entropic", "quadratic")
    scales, shifts = rng.uniform(0.5, 2.0, len(edges)), rng.uniform(-0.5, 0.5, len(edges))
    return CostModel(build_graph(n, edges), {
        e: EdgeCost(CostFamily(f), float(a), float(b))
        for e, f, a, b in zip(edges, families.tolist(), scales, shifts)})


def test_rows_reverse_in_place_as_a_reversed_copy(monkeypatch):
    # odd and even row counts; 1, 2 and 5 row pairs per block leave
    # ragged last blocks, and 1000 takes one block
    rng = np.random.default_rng(17)
    for per_block in (1, 2, 5, 1000):
        monkeypatch.setattr(finite_horizon, "_BLOCK_ENTRIES", 3 * per_block)
        for rows in (1, 2, 3, 257, 258):
            a = rng.uniform(size=(rows, 3))
            want = a[::-1].copy()
            finite_horizon._reverse_rows(a)
            assert same_bits(a, want) and a.flags.c_contiguous


def test_solve_and_policy_hold_values_and_table_plus_blocks():
    # a row block maps at most _BLOCK_ENTRIES float64 entries, and a
    # kernel call holds a few arrays of that size; 16 of them (4 MiB)
    # also cover the O(edges) layout and the O(n) integrator state.
    # The solve alone holds one copy of the value rows: they are
    # reversed in place, not copied
    rng = np.random.default_rng(2024)
    n = 3000
    model = ring_with_chords(rng, n)
    problem = Problem(model, rng.uniform(-1.0, 1.0, n), horizon=1.0)
    k = output_grid(problem.horizon).shape[0]
    margin = 16 * 8 * finite_horizon._BLOCK_ENTRIES
    tracemalloc.start()
    try:
        traj = solve_finite_horizon(problem)
        solve_peak = tracemalloc.get_traced_memory()[1]
        policy = extract_policy(problem, traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert solve_peak <= 8 * k * n + margin
    assert peak <= 8 * k * (n + model.n_edges) + margin
    assert traj.max_residual == whole_residual(problem, traj)
    assert same_bits(policy.intensities, whole_policy_table(problem, traj))
