"""Exact path sampling, policy evaluation, z-score bookkeeping."""

import math

import numpy as np
import pytest

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
from ctmcontrol.simulate import _compress, _path_value

from conftest import random_models, two_node_model


def unit_policy():
    return Policy(PolicyMode.STATIONARY, np.ones(2))


def test_constant_reward_is_exact(symmetric2):
    # both nodes run identical costs at rate one, so every path pays
    # the running reward deterministically regardless of its jumps
    problem = Problem(symmetric2, np.zeros(2), horizon=1.0)
    report = simulate(problem, unit_policy(), 0, 200, seed=3)
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


def test_simulation_is_reproducible(asymmetric2):
    problem = Problem(asymmetric2, np.array([0.0, 1.0]), horizon=1.0)
    a = simulate(problem, unit_policy(), 0, 500, seed=9, keep_paths=True)
    b = simulate(problem, unit_policy(), 0, 500, seed=9, keep_paths=True)
    assert a.mean_objective == b.mean_objective
    assert a.std_error == b.std_error
    assert np.array_equal(a.path_values, b.path_values)
    c = simulate(problem, unit_policy(), 0, 500, seed=10)
    assert c.mean_objective != a.mean_objective


def test_path_prefix_independent_of_count(symmetric2):
    problem = Problem(symmetric2, np.array([0.0, 1.0]), horizon=1.0)
    short = simulate(problem, unit_policy(), 0, 50, seed=4, keep_paths=True)
    long = simulate(problem, unit_policy(), 0, 100, seed=4, keep_paths=True)
    assert np.array_equal(short.path_values, long.path_values[:50])


def test_holding_times_are_exponential(symmetric2):
    problem = Problem(symmetric2, np.zeros(2), horizon=20.0)
    tables = _compress(problem, unit_policy())
    sojourns = []
    rng = np.random.default_rng(5)
    for _ in range(8000):
        log = []
        _path_value(problem, tables, 0, rng, jump_log=log)
        if log:
            sojourns.append(log[0][0])
    mean = np.mean(sojourns)
    se = np.std(sojourns, ddof=1) / math.sqrt(len(sojourns))
    assert abs(mean - 1.0) <= 3.0 * se


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


def test_simulate_argument_validation(symmetric2):
    problem = Problem(symmetric2, np.zeros(2), horizon=1.0)
    with pytest.raises(ValueError):
        simulate(problem, unit_policy(), 2, 10, seed=0)
    with pytest.raises(ValueError):
        simulate(problem, unit_policy(), 0, 0, seed=0)
    with pytest.raises(ValueError):
        simulate(problem, unit_policy(), 0, 10, seed=-1)


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


def test_stationary_evaluation_of_idle_policy(symmetric2):
    idle = Policy(PolicyMode.STATIONARY, np.zeros(2))
    value = evaluate_stationary_policy(symmetric2, idle, 0.5)
    assert np.max(np.abs(value)) < 1e-12


def test_stationary_evaluation_validation(symmetric2):
    problem_policy = Policy(PolicyMode.TIME_VARYING, np.ones((2, 2)),
                            np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        evaluate_stationary_policy(symmetric2, problem_policy, 0.5)
    with pytest.raises(ValueError):
        evaluate_stationary_policy(symmetric2, unit_policy(), 0.0)
    with pytest.raises(PolicyGridMismatch):
        evaluate_stationary_policy(symmetric2, Policy(PolicyMode.STATIONARY, np.ones(5)), 0.5)


def test_value_gap_frozen_examples():
    from ctmcontrol import SimulationReport
    flat = SimulationReport(100, 1.0, 0.01, 0, 0)
    assert estimate_value_gap(flat, 1.0) == 0.0
    high = SimulationReport(100, 1.03, 0.01, 0, 0)
    assert abs(estimate_value_gap(high, 1.0) - 3.0) < 1e-12
