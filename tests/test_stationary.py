"""Stationary solves, ergodic constants, correctors, flow diagnostics."""

import math

import numpy as np
import pytest

from ctmcontrol import (
    ErgodicMethod,
    HypothesisUnmet,
    MonotonicityViolation,
    NoConvergence,
    Policy,
    PolicyMode,
    PreconditionUnmet,
    Problem,
    check_strong_max_principle,
    dedrift,
    evaluate_stationary_policy,
    q_diagnostic,
    semigroup_apply,
    solve_ergodic_direct,
    solve_ergodic_vanishing_discount,
    solve_finite_horizon,
    solve_stationary,
    verify_stationary_comparison,
)
from ctmcontrol.stationary import DedriftedSeries, _refine_ergodic, deviation_profile
from ctmcontrol.fixtures import random_model

from conftest import ring_model, stretched3_model, two_node_model
from oracles import cole_hopf, two_node_stationary

LOG2 = math.log(2.0)


# stationary (discounted) solves

def test_stationary_symmetric_closed_form(symmetric2):
    for r, expected in ((0.5, 2.0), (2.0, 0.5)):
        sol = solve_stationary(symmetric2, r)
        assert np.max(np.abs(sol.u - expected)) < 1e-10
        assert sol.discount == r
        assert sol.residual <= 1e-10 * (1.0 + np.max(np.abs(sol.u)))


def test_stationary_matches_two_node_oracle():
    # the residual contract 1e-10 (1 + |u|), carried through
    # ||(rI - Q)^-1|| <= 1/r, bounds the error in u
    for a01, a10, r in ((2.0, 1.0, 0.1), (4.0, 1.0, 0.5), (1.0, 3.0, 2.0 ** -10)):
        sol = solve_stationary(two_node_model(scale_12=a01, scale_21=a10), r)
        ref = two_node_stationary(a01, a10, r)
        assert np.max(np.abs(sol.u - ref)) <= 1e-10 * (1.0 + np.max(np.abs(ref))) / r


def test_stationary_residual_invariant_random():
    rng = np.random.default_rng(41)
    for _ in range(5):
        model = random_model(rng, n_nodes=int(rng.integers(2, 6)), family="mixed")
        r = float(rng.uniform(0.05, 2.0))
        sol = solve_stationary(model, r)
        assert sol.residual <= 1e-10 * (1.0 + np.max(np.abs(sol.u)))


def test_stationary_initial_guess_same_answer(asymmetric2):
    a = solve_stationary(asymmetric2, 0.3)
    b = solve_stationary(asymmetric2, 0.3, initial_guess=np.array([5.0, -7.0]))
    assert np.max(np.abs(a.u - b.u)) < 1e-9


def test_stationary_settles_where_cold_newton_stalls():
    # cold damped Newton stalls on these models at small discounts, so the
    # solve has to walk the discount down from 1; the residual contract,
    # carried through ||(rI - Q)^-1|| <= 1/r, bounds the policy evaluation gap
    for seed, n, family in ((37, 4, "quadratic"), (174, 5, "mixed")):
        model = random_model(np.random.default_rng(seed), n, family=family)
        for r in (2.0 ** -10, 2.0 ** -15, 2.0 ** -20):
            sol = solve_stationary(model, r)
            scale = 1.0 + np.max(np.abs(sol.u))
            assert sol.residual <= 1e-10 * scale
            policy = Policy(PolicyMode.STATIONARY, model.intensity_vector(sol.u))
            evaluated = evaluate_stationary_policy(model, policy, r)
            assert np.max(np.abs(evaluated - sol.u)) <= 1e-10 * scale / r


def test_stationary_survives_overflowing_newton_trial():
    # the first full Newton step from zero overflows exp; the line search
    # must halve it instead of ending the solve
    model = stretched3_model()
    for r in (2.0 ** -5, 2.0 ** -10):
        sol = solve_stationary(model, r)
        scale = 1.0 + np.max(np.abs(sol.u))
        assert sol.residual <= 1e-10 * scale
        policy = Policy(PolicyMode.STATIONARY, model.intensity_vector(sol.u))
        evaluated = evaluate_stationary_policy(model, policy, r)
        assert np.max(np.abs(evaluated - sol.u)) <= 1e-9 * scale


def test_stationary_rejects_bad_discount(symmetric2):
    with pytest.raises(ValueError):
        solve_stationary(symmetric2, 0.0)
    with pytest.raises(ValueError):
        solve_stationary(symmetric2, -1.0)
    with pytest.raises(ValueError):
        solve_stationary(symmetric2, 0.5, initial_guess=np.zeros(3))


# ergodic pair, vanishing-discount route

def test_vanishing_discount_symmetric(symmetric2):
    sol = solve_ergodic_vanishing_discount(symmetric2)
    assert abs(sol.gamma - 1.0) < 1e-8
    assert np.max(np.abs(sol.xi)) < 1e-9
    assert sol.method is ErgodicMethod.VANISHING_DISCOUNT
    assert sol.q_infinity is None
    assert not sol.non_unique_corrector
    assert sol.residual <= 1e-8
    # the discounted family obeys r u = 1 exactly at every sweep stage
    for r in sol.diagnostics[:, 0]:
        u = solve_stationary(symmetric2, float(r)).u
        assert np.max(np.abs(r * u - 1.0)) < 1e-9


def test_vanishing_discount_asymmetric_closed_form(asymmetric2):
    sol = solve_ergodic_vanishing_discount(asymmetric2)
    assert abs(sol.gamma - 2.0) < 1e-6
    assert abs(sol.xi[1] + LOG2) < 1e-6
    assert sol.xi[0] == 0.0
    assert sol.residual <= 1e-8


def test_vanishing_discount_ring():
    sol = solve_ergodic_vanishing_discount(ring_model(3))
    assert abs(sol.gamma - 1.0) < 1e-8
    assert np.max(np.abs(sol.xi)) < 1e-8
    assert sol.residual <= 1e-8


def test_vanishing_discount_rejects_bad_sequence(symmetric2):
    with pytest.raises(ValueError):
        solve_ergodic_vanishing_discount(symmetric2, r_sequence=(0.5,))
    with pytest.raises(ValueError):
        solve_ergodic_vanishing_discount(symmetric2, r_sequence=(0.25, 0.5))


def test_discounted_family_stays_bounded(asymmetric2):
    # spreads and r u settle onto the ergodic pair along the sweep
    sol = solve_ergodic_vanishing_discount(asymmetric2)
    for r in sol.diagnostics[-2:, 0]:
        sv = solve_stationary(asymmetric2, float(r))
        assert np.max(np.abs(r * sv.u - sol.gamma)) < 1e-4
        assert np.max(np.abs((sv.u - sv.u[0]) - sol.xi)) < 1e-4


# ergodic pair, direct long-time route

def test_direct_symmetric(symmetric2):
    sol = solve_ergodic_direct(symmetric2)
    assert abs(sol.gamma - 1.0) < 1e-8
    assert np.max(np.abs(sol.xi)) < 1e-8
    assert sol.method is ErgodicMethod.DIRECT_LONG_TIME
    assert sol.q_infinity is not None and abs(sol.q_infinity) < 1e-6
    assert sol.residual <= 1e-8


def test_direct_asymmetric_closed_form(asymmetric2):
    sol = solve_ergodic_direct(asymmetric2)
    assert abs(sol.gamma - 2.0) < 1e-6
    assert abs(sol.xi[1] + LOG2) < 1e-5
    assert sol.residual <= 1e-8


def test_direct_quadratic_flags_non_uniqueness(quadratic2):
    direct = solve_ergodic_direct(quadratic2)
    sweep = solve_ergodic_vanishing_discount(quadratic2)
    assert abs(direct.gamma - 0.5) < 1e-6
    assert abs(direct.gamma - sweep.gamma) < 1e-5
    assert direct.non_unique_corrector and sweep.non_unique_corrector


def test_direct_rejects_short_window(symmetric2):
    with pytest.raises(ValueError):
        solve_ergodic_direct(symmetric2, t_max=5.0)


def test_methods_agree_on_random_instances():
    rng = np.random.default_rng(43)
    for _ in range(4):
        model = random_model(rng, n_nodes=int(rng.integers(2, 6)), family="entropic")
        sweep = solve_ergodic_vanishing_discount(model)
        direct = solve_ergodic_direct(model)
        assert abs(sweep.gamma - direct.gamma) < 1e-5
        assert np.max(np.abs(sweep.xi - direct.xi)) < 1e-5
        assert sweep.residual <= 1e-8 and direct.residual <= 1e-8


def test_corrector_independent_of_newton_seed():
    rng = np.random.default_rng(47)
    model = random_model(rng, n_nodes=4, family="entropic")
    a = solve_ergodic_vanishing_discount(model)
    b = solve_ergodic_vanishing_discount(model, initial_guess=np.full(4, 3.0))
    assert abs(a.gamma - b.gamma) < 1e-7
    assert np.max(np.abs(a.xi - b.xi)) < 1e-7


def test_quadratic_routes_accept_sliding_corrector():
    # gamma = 0 and every lam* is nearly 0 at the root, so xi is not unique
    # and the polish moves it by more than 1e-3 while gamma stays put
    for seed in (3, 28):
        model = random_model(np.random.default_rng(seed), 3, family="quadratic")
        sweep = solve_ergodic_vanishing_discount(model)
        direct = solve_ergodic_direct(model)
        assert sweep.non_unique_corrector and direct.non_unique_corrector
        assert sweep.residual <= 1e-12 and direct.residual <= 1e-12
        assert abs(sweep.gamma - direct.gamma) <= 1e-10


def test_refinement_rejects_distant_seed(asymmetric2, quadratic2):
    with pytest.raises(NoConvergence):
        _refine_ergodic(asymmetric2, 2.1, np.array([0.0, -LOG2]))
    # without strict monotonicity the move in gamma is still checked
    with pytest.raises(NoConvergence):
        _refine_ergodic(quadratic2, 0.6, np.zeros(2))


# de-drifted flow diagnostics

def test_deviation_profile_keeps_horizon_order(asymmetric2):
    payoff = np.array([0.3, -0.2])
    horizons = (5.0, 1.0, 300.0)
    gamma, xi, q_exact, values = cole_hopf(asymmetric2, payoff, horizons)
    q_inf, deviations = deviation_profile(asymmetric2, payoff, horizons)
    exact = [np.max(np.abs(v - gamma * t - xi - q_exact)) for v, t in zip(values, horizons)]
    assert exact[1] > 1e-3
    assert abs(q_inf - q_exact) <= 1e-10
    assert np.max(np.abs(deviations - exact)) <= 1e-10


def test_deviation_profile_horizons_on_window_points(asymmetric2):
    # horizons equal to t_max / 4 and t_max share their grid rows
    payoff = np.array([0.3, -0.2])
    horizons = (50.0, 200.0)
    gamma, xi, q_exact, values = cole_hopf(asymmetric2, payoff, horizons)
    _, deviations = deviation_profile(asymmetric2, payoff, horizons, t_max=200.0)
    exact = [np.max(np.abs(v - gamma * t - xi - q_exact)) for v, t in zip(values, horizons)]
    assert deviations.shape == (2,)
    assert np.max(np.abs(deviations - exact)) <= 1e-10


def test_deviation_profile_rejects_bad_input(asymmetric2):
    with pytest.raises(ValueError):
        deviation_profile(asymmetric2, np.zeros(2), (10.0,), t_max=5.0)
    with pytest.raises(ValueError):
        deviation_profile(asymmetric2, np.zeros(2), (-1.0, 10.0))


def test_long_time_routes_reject_unsettled_drift():
    # rates of 0.01 and 0.02 mix too slowly for the growth rate to settle
    # by t_max = 10; unequal rates keep zero data off the stationary flow
    slow = two_node_model(scale_12=0.01, scale_21=0.02)
    with pytest.raises(NoConvergence, match="drift estimate not stabilized"):
        solve_ergodic_direct(slow, t_max=10.0)
    with pytest.raises(NoConvergence, match="drift estimate not stabilized"):
        deviation_profile(slow, np.array([0.0, 1.0]), (10.0,), t_max=10.0)


def test_deviation_profile_rejects_unsettled_offset():
    # at rates of 0.1 the growth rate settles by t_max = 10 but the gap q,
    # started 2e-5 off the corrector, still moves by more than 1e-6
    slow = two_node_model(scale_12=0.1, scale_21=0.1)
    with pytest.raises(NoConvergence, match="deviation offset not stabilized"):
        deviation_profile(slow, np.array([0.0, 2e-5]), (10.0,), t_max=10.0)


def test_dedrift_symmetric_zero_data(symmetric2):
    traj = solve_finite_horizon(Problem(symmetric2, np.zeros(2), horizon=5.0))
    series = dedrift(traj, 1.0)
    assert np.max(np.abs(series.values)) < 1e-8
    assert series.grid[0] == 0.0 and series.grid[-1] == 5.0


def test_dedrift_from_corrector_is_constant(asymmetric2):
    xi = np.array([0.0, -LOG2])
    traj = solve_finite_horizon(Problem(asymmetric2, xi, horizon=5.0))
    series = dedrift(traj, 2.0)
    assert np.max(np.abs(series.values - xi)) < 1e-7


def test_q_diagnostic_reads_off_constant_offset(asymmetric2):
    xi = np.array([0.0, -LOG2])
    traj = solve_finite_horizon(Problem(asymmetric2, xi + 3.0, horizon=20.0))
    series = dedrift(traj, 2.0)
    diag = q_diagnostic(series, xi)
    assert diag.converged
    assert abs(diag.q_infinity - 3.0) < 1e-6
    assert np.all(np.diff(diag.q) <= 1e-9)


def test_q_diagnostic_rejects_rising_gap():
    grid = np.linspace(0.0, 1.0, 11)
    values = np.stack([grid, np.zeros(11)], axis=1)
    with pytest.raises(MonotonicityViolation):
        q_diagnostic(DedriftedSeries(grid, values), np.zeros(2))


# shifted semigroup

def test_semigroup_fixes_corrector(asymmetric2):
    xi = np.array([0.0, -LOG2])
    for t in (0.1, 1.0, 10.0):
        out = semigroup_apply(asymmetric2, 2.0, xi, t)
        assert np.max(np.abs(out - xi)) < 1e-8


def test_semigroup_at_zero_copies(symmetric2):
    y = np.array([0.3, -0.4])
    out = semigroup_apply(symmetric2, 1.0, y, 0.0)
    assert np.array_equal(out, y)
    assert out is not y


def test_semigroup_rejects_negative_time(symmetric2):
    with pytest.raises(ValueError):
        semigroup_apply(symmetric2, 1.0, np.zeros(2), -1.0)


def test_semigroup_batch_matches_rows():
    rng = np.random.default_rng(57)
    model = random_model(rng, n_nodes=3, family="mixed")
    batch = rng.uniform(-1.0, 1.0, size=(6, 3))
    together = semigroup_apply(model, 0.8, batch, 0.7)
    assert together.shape == (6, 3)
    for row, out in zip(batch, together):
        single = semigroup_apply(model, 0.8, row, 0.7)
        assert np.max(np.abs(single - out)) <= 1e-9


def test_semigroup_rejects_wrong_width(symmetric2):
    with pytest.raises(ValueError):
        semigroup_apply(symmetric2, 1.0, np.zeros((4, 3)), 1.0)


def test_semigroup_nonexpansive_and_law():
    rng = np.random.default_rng(53)
    model = random_model(rng, n_nodes=4, family="entropic")
    sol = solve_ergodic_direct(model)
    for _ in range(5):
        x = rng.uniform(-1.0, 1.0, size=4)
        y = rng.uniform(-1.0, 1.0, size=4)
        sx = semigroup_apply(model, sol.gamma, x, 1.0)
        sy = semigroup_apply(model, sol.gamma, y, 1.0)
        assert np.max(np.abs(sx - sy)) <= np.max(np.abs(x - y)) + 1e-8
        half = semigroup_apply(model, sol.gamma, y, 0.5)
        again = semigroup_apply(model, sol.gamma, half, 0.5)
        assert np.max(np.abs(again - sy)) <= 1e-8


# strong maximum principle

def test_max_principle_strict_gap(symmetric2):
    report = check_strong_max_principle(
        symmetric2, 1.0, np.array([0.0, 0.0]), np.array([0.0, 1.0]), 0.5)
    assert report.min_gap > 0.0
    assert report.time == 0.5


def test_max_principle_preconditions(symmetric2, quadratic2):
    lo, hi = np.array([0.0, 0.0]), np.array([0.0, 1.0])
    with pytest.raises(PreconditionUnmet):
        check_strong_max_principle(quadratic2, 0.5, lo, hi, 0.5)
    with pytest.raises(PreconditionUnmet):
        check_strong_max_principle(symmetric2, 1.0, lo, lo, 0.5)
    with pytest.raises(PreconditionUnmet):
        check_strong_max_principle(symmetric2, 1.0, lo, lo + 1.0, 0.5)
    with pytest.raises(PreconditionUnmet):
        check_strong_max_principle(symmetric2, 1.0, hi, lo, 0.5)
    with pytest.raises(ValueError):
        check_strong_max_principle(symmetric2, 1.0, lo, hi, 0.0)


# discounted comparison check

def test_stationary_comparison_equal(symmetric2):
    report = verify_stationary_comparison(symmetric2, 0.5, np.zeros(2), np.zeros(2))
    assert report.satisfied
    assert report.max_violation == 0.0


def test_stationary_comparison_constant_shift():
    rng = np.random.default_rng(59)
    model = random_model(rng, n_nodes=4, family="mixed")
    w = solve_stationary(model, 0.5).u
    report = verify_stationary_comparison(model, 0.5, w - 1.0, w)
    assert report.satisfied
    assert abs(report.max_violation + 1.0) < 1e-12
    assert report.hypothesis_margin > 0.0


def test_stationary_comparison_hypothesis_violation(symmetric2):
    with pytest.raises(HypothesisUnmet):
        verify_stationary_comparison(symmetric2, 0.5, np.ones(2), np.zeros(2))
    with pytest.raises(ValueError):
        verify_stationary_comparison(symmetric2, 0.0, np.zeros(2), np.zeros(2))
