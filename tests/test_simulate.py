"""Exact path sampling, policy evaluation, z-score bookkeeping."""

import importlib
import math

import numpy as np
import pytest
from numpy.random import Generator, Philox

from ctmcontrol import (
    CostFamily,
    Policy,
    PolicyGridMismatch,
    PolicyMode,
    Problem,
    ZeroVariance,
    estimate_value_gap,
    evaluate_stationary_policy,
    extract_policy,
    simulate,
    solve_finite_horizon,
    solve_stationary,
)
from ctmcontrol.simulate import _CHUNK, _uniforms

from conftest import random_models, two_node_model
from oracles import scalar_path_values


def unit_policy():
    return Policy(PolicyMode.STATIONARY, np.ones(2))


def test_constant_reward_is_exact(symmetric2):
    # both nodes run identical costs at rate one, so every path pays
    # the running reward deterministically regardless of its jumps; the
    # optimal policy is that same row at every point of its grid
    problem = Problem(symmetric2, np.zeros(2), horizon=1.0)
    varying = extract_policy(problem, solve_finite_horizon(problem))
    assert varying.mode is PolicyMode.TIME_VARYING
    for policy in (unit_policy(), varying):
        report = simulate(problem, policy, 0, 200, seed=3)
        assert report.mean_objective == pytest.approx(1.0, abs=1e-12)
        assert report.std_error < 1e-12
        assert report.n_paths == 200 and report.start_node == 0


def test_estimate_agrees_with_solver(asymmetric2):
    problem = Problem(asymmetric2, np.array([0.0, 1.0]), horizon=1.0)
    traj = solve_finite_horizon(problem)
    policy = extract_policy(problem, traj)
    report = simulate(problem, policy, 0, 10_000, seed=11)
    gap = abs(report.mean_objective - traj.values[0, 0])
    assert gap <= 3.0 * report.std_error


def test_frozen_chain_pays_discounted_terminal():
    model = two_node_model(family=CostFamily.QUADRATIC)
    problem = Problem(model, np.array([3.0, 0.0]), horizon=2.0, discount=1.0)
    still = Policy(PolicyMode.STATIONARY, np.zeros(2))
    report = simulate(problem, still, 0, 50, seed=1)
    expected = 3.0 * math.exp(-2.0)
    assert report.mean_objective == pytest.approx(expected, abs=1e-15)
    assert report.std_error == 0.0
    assert estimate_value_gap(report, expected) == 0.0
    with pytest.raises(ZeroVariance):
        estimate_value_gap(report, expected + 1.0)


def test_tiny_discounts_keep_the_undiscounted_path_values(asymmetric2):
    # e^{-rt} >= 1 - r t, and every reward of this model has one sign, so
    # a path's value moves by at most r T |v| from its r = 0 value, where
    # weights of the form (e^{-ra} - e^{-rb}) / r would cancel, and read 0
    # at r = 1e-300
    undiscounted = Problem(asymmetric2, np.zeros(2), horizon=1.0)
    policy = extract_policy(undiscounted, solve_finite_horizon(undiscounted))
    base = simulate(undiscounted, policy, 0, 20_000, seed=3).path_values
    size = np.max(np.abs(base))
    assert size > 0.1
    for r in (1e-12, 1e-14, 1e-300, 5e-324):
        problem = Problem(asymmetric2, np.zeros(2), horizon=1.0, discount=r)
        values = simulate(problem, policy, 0, 20_000, seed=3).path_values
        assert np.max(np.abs(values - base)) <= r * 1.0 * size + 4.0 * np.spacing(size), r


def test_simulation_is_reproducible(asymmetric2):
    problem = Problem(asymmetric2, np.array([0.0, 1.0]), horizon=1.0)
    a = simulate(problem, unit_policy(), 0, 500, seed=9)
    b = simulate(problem, unit_policy(), 0, 500, seed=9)
    assert a.mean_objective == b.mean_objective
    assert a.std_error == b.std_error
    assert np.array_equal(a.path_values, b.path_values)
    c = simulate(problem, unit_policy(), 0, 500, seed=10)
    assert c.mean_objective != a.mean_objective


def test_path_prefix_independent_of_count(symmetric2):
    problem = Problem(symmetric2, np.array([0.0, 1.0]), horizon=1.0)
    short = simulate(problem, unit_policy(), 0, 50, seed=4)
    long = simulate(problem, unit_policy(), 0, 100, seed=4)
    assert np.array_equal(short.path_values, long.path_values[:50])
    # a prefix that ends inside the second chunk of paths
    crossing = simulate(problem, unit_policy(), 0, _CHUNK + 50, seed=4)
    longer = simulate(problem, unit_policy(), 0, 2 * _CHUNK + 7, seed=4)
    assert np.array_equal(crossing.path_values, longer.path_values[:_CHUNK + 50])
    assert np.array_equal(crossing.path_values[:100], long.path_values)


def test_holding_times_are_exponential():
    # node 0 earns reward 1 per unit time until its Exp(1) jump to node
    # 1, which never leaves and earns nothing: each value is min(tau, 20)
    problem = Problem(two_node_model(), np.zeros(2), horizon=20.0)
    policy = Policy(PolicyMode.STATIONARY, np.array([1.0, 0.0]))
    n = 8000
    values = simulate(problem, policy, 0, n, seed=5).path_values
    mean = np.mean(values)
    se = np.std(values, ddof=1) / math.sqrt(n)
    assert abs(mean - (1.0 - math.exp(-20.0))) <= 3.0 * se
    # Kolmogorov-Smirnov distance to the Exp(1) law (1% critical value)
    cdf = -np.expm1(-np.sort(values))
    ranks = np.arange(1, n + 1) / n
    distance = max(np.max(ranks - cdf), np.max(cdf - (ranks - 1.0 / n)))
    assert distance <= 1.63 / math.sqrt(n)


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 1, 2**64 + 5, 2**128 - 1])
def test_uniforms_match_numpy_philox(seed):
    # 13 draws cross three four-word blocks of each path's stream
    paths = np.array([0, 1, 1023, 1024, 2**33], dtype=np.uint64)
    draws = _uniforms(seed, paths, 0, 13)
    for p, row in zip(paths, draws):
        stream = Generator(Philox(key=seed, counter=[0, int(p), 0, 0]))
        assert np.array_equal(row, stream.random(13))
    assert np.array_equal(_uniforms(seed, paths, 6, 7), draws[:, 6:])


@pytest.mark.parametrize("r", [0.0, 0.7])
def test_batched_paths_match_scalar_oracle(r):
    n_paths = _CHUNK + 3
    for k, (rng, model) in enumerate(random_models(17)):
        n_edges = model.n_edges
        problem = Problem(model, rng.normal(size=model.n_nodes), horizon=1.0, discount=r)
        # tables with zero intensities, repeated rows and repeated grid
        # times exercise absorbing nodes, zero-rate intervals and
        # zero-length intervals
        stationary = Policy(PolicyMode.STATIONARY,
                            rng.uniform(0.0, 2.0, n_edges) * (rng.random(n_edges) > 0.25))
        table = rng.uniform(0.0, 2.0, (17, n_edges)) * (rng.random((17, n_edges)) > 0.25)
        table[5:9] = table[5]
        varying = Policy(PolicyMode.TIME_VARYING, table, np.linspace(0.0, 1.0, 17))
        # its own generator, so the models drawn after it stay the same
        spare = np.random.default_rng(k)
        short = spare.uniform(0.0, 2.0, (8, n_edges)) * (spare.random((8, n_edges)) > 0.25)
        repeated = Policy(PolicyMode.TIME_VARYING, short,
                          np.array([0.0, 0.25, 0.25, 0.5, 0.5, 0.5, 0.75, 1.0]))
        for policy in (stationary, varying, repeated):
            batched = simulate(problem, policy, 0, n_paths, seed=k)
            expected = scalar_path_values(problem, policy, 0, n_paths, k)
            assert np.array_equal(batched.path_values, expected)
    # about twenty jumps a path, so every path refills its draws
    problem = Problem(two_node_model(scale_12=4.0), np.array([0.0, 1.0]), horizon=20.0,
                      discount=r)
    busy = simulate(problem, unit_policy(), 1, n_paths, seed=3)
    assert np.array_equal(busy.path_values,
                          scalar_path_values(problem, unit_policy(), 1, n_paths, 3))


def test_z_scores_cover_at_three_sigma(asymmetric2):
    problem = Problem(asymmetric2, np.array([0.0, 1.0]), horizon=1.0)
    traj = solve_finite_horizon(problem)
    policy = extract_policy(problem, traj)
    reference = float(traj.values[0, 0])
    inside = 0
    for rep in range(100):
        report = simulate(problem, policy, 0, 2000, seed=1000 + rep)
        if abs(estimate_value_gap(report, reference)) <= 3.0:
            inside += 1
    assert inside >= 97


def test_time_varying_policy_grid_checks(symmetric2):
    problem = Problem(symmetric2, np.zeros(2), horizon=1.0)
    grid = np.linspace(0.0, 0.5, 33)
    short_span = Policy(PolicyMode.TIME_VARYING, np.ones((33, 2)), grid)
    with pytest.raises(PolicyGridMismatch):
        simulate(problem, short_span, 0, 10, seed=0)
    wrong_cols = Policy(PolicyMode.STATIONARY, np.ones(3))
    with pytest.raises(PolicyGridMismatch):
        simulate(problem, wrong_cols, 0, 10, seed=0)
    backwards = Policy(PolicyMode.TIME_VARYING, np.ones((4, 2)), np.array([0.0, 0.8, 0.3, 1.0]))
    with pytest.raises(PolicyGridMismatch, match="decrease"):
        simulate(problem, backwards, 0, 10, seed=0)


def test_simulate_argument_validation(symmetric2, monkeypatch):
    # the package's simulate function shadows its module of that name
    sampling = importlib.import_module("ctmcontrol.simulate")

    def no_work(*_args):
        raise AssertionError("arguments accepted")

    # every case is rejected before the schedule is built; 2^63 paths
    # would walk about 9e15 empty chunks
    monkeypatch.setattr(sampling, "_build_schedule", no_work)
    problem = Problem(symmetric2, np.zeros(2), horizon=1.0)
    with pytest.raises(ValueError):
        simulate(problem, unit_policy(), 2, 10, seed=0)
    for n_paths in (0, 1, 10.0, True, 2 ** 53 + 1, 2 ** 60, 2 ** 63):
        with pytest.raises(ValueError, match="n_paths"):
            simulate(problem, unit_policy(), 0, n_paths, seed=0)
    for seed in (-1, 1.5, True):
        with pytest.raises(ValueError, match="seed"):
            simulate(problem, unit_policy(), 0, 10, seed=seed)
    with pytest.raises(ValueError, match=r"2\^128"):
        simulate(problem, unit_policy(), 0, 10, seed=1 << 128)


def test_stationary_evaluation_closed_form(symmetric2):
    value = evaluate_stationary_policy(symmetric2, unit_policy(), 0.5)
    assert np.max(np.abs(value - 2.0)) < 1e-12


def test_stationary_evaluation_never_beats_optimum(symmetric2):
    optimal = solve_stationary(symmetric2, 0.5).u
    for lam in ((1.3, 0.8), (0.5, 0.5), (2.0, 2.0)):
        policy = Policy(PolicyMode.STATIONARY, np.array(lam))
        value = evaluate_stationary_policy(symmetric2, policy, 0.5)
        assert np.all(value <= optimal + 1e-9)


def test_stationary_evaluation_of_optimal_policy_is_the_optimum():
    # the verification theorem at equality: the optimal intensities
    # earn exactly the stationary value they were read off
    for _, model in random_models(108):
        sol = solve_stationary(model, 0.5)
        policy = Policy(PolicyMode.STATIONARY, model.intensity_vector(sol.u))
        value = evaluate_stationary_policy(model, policy, 0.5)
        assert np.max(np.abs(value - sol.u)) <= 1e-9 * (1.0 + np.max(np.abs(sol.u)))


def test_stationary_evaluation_at_extreme_rates_matches_closed_form(symmetric2):
    # (r I - Q) u = b for the unit entropic pair, solved by Cramer's rule;
    # a rate of 1e6 or 1e8 puts the rounding floor eps (r + 2 rate) |u| of
    # the residual far above 1e-12 (1 + |u|), and the evaluator must
    # still answer within its documented bound
    r = 0.5
    eps = np.finfo(float).eps
    for a in (1e6, 1e8):
        lam = np.array([a, 1.0])
        value = evaluate_stationary_policy(symmetric2, Policy(PolicyMode.STATIONARY, lam), r)
        b = -symmetric2.running_cost_vector(lam)
        det = r * (r + a + 1.0)
        exact = np.array([((r + 1.0) * b[0] + a * b[1]) / det,
                          (b[0] + (r + a) * b[1]) / det])
        size = np.max(np.abs(exact))
        # the residual bound, times |(r I - Q)^-1| <= 1 / r, plus the
        # rounding of the closed form itself
        bound = (1e-12 * (1.0 + size) + 8.0 * eps * (r + 2.0 * a) * size) / r
        assert np.max(np.abs(value - exact)) <= bound + 1e-14 * size


def test_stationary_evaluation_of_idle_policy(symmetric2):
    idle = Policy(PolicyMode.STATIONARY, np.zeros(2))
    value = evaluate_stationary_policy(symmetric2, idle, 0.5)
    assert np.max(np.abs(value)) < 1e-12


def test_stationary_evaluation_validation(symmetric2):
    problem_policy = Policy(PolicyMode.TIME_VARYING, np.ones((2, 2)),
                            np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        evaluate_stationary_policy(symmetric2, problem_policy, 0.5)
    for r in (0.0, math.inf):
        with pytest.raises(ValueError):
            evaluate_stationary_policy(symmetric2, unit_policy(), r)
    with pytest.raises(PolicyGridMismatch):
        evaluate_stationary_policy(symmetric2, Policy(PolicyMode.STATIONARY, np.ones(5)), 0.5)


def test_value_gap_frozen_examples():
    from ctmcontrol import SimulationReport
    flat = SimulationReport(100, 1.0, 0.01, 0, 0)
    assert estimate_value_gap(flat, 1.0) == 0.0
    high = SimulationReport(100, 1.03, 0.01, 0, 0)
    assert abs(estimate_value_gap(high, 1.0) - 3.0) < 1e-12
