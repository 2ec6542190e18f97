"""Acceptance gate: ten end-to-end checks at their stated tolerances.

Each test covers one numbered criterion and prints a single summary
line (visible with -s) on success; pytest's own PASS/FAIL line is the
verdict. Tolerances are asserted exactly as stated, never loosened.
"""

import math

import numpy as np
import pytest

from ctmcontrol import (
    Policy,
    PolicyMode,
    Problem,
    estimate_value_gap,
    evaluate_stationary_policy,
    extract_policy,
    semigroup_apply,
    simulate,
    solve_ergodic_direct,
    solve_ergodic_vanishing_discount,
    solve_finite_horizon,
    solve_stationary,
)
from ctmcontrol.ode import integrate_grid
from ctmcontrol.fixtures import random_model

from conftest import into, two_node_model
from oracles import rk4_backward

LOG2 = math.log(2.0)


def test_criterion_01_closed_form_ergodic_constant(asymmetric2):
    sweep = solve_ergodic_vanishing_discount(asymmetric2)
    direct = solve_ergodic_direct(asymmetric2)
    for sol in (sweep, direct):
        assert abs(sol.gamma - 2.0) <= 1e-5
        assert abs(sol.xi[1] - (-LOG2)) <= 1e-5
    assert abs(sweep.gamma - direct.gamma) <= 1e-5
    assert np.max(np.abs(sweep.xi - direct.xi)) <= 1e-5
    print(f"ACCEPTANCE 1: PASS (gamma err {max(abs(sweep.gamma - 2), abs(direct.gamma - 2)):.2e}, "
          f"method gap {abs(sweep.gamma - direct.gamma):.2e})")


def test_criterion_02_symmetric_exactness(symmetric2):
    worst_v = 0.0
    for horizon in (1.0, 10.0):
        traj = solve_finite_horizon(Problem(symmetric2, np.zeros(2), horizon=horizon))
        expected = (horizon - traj.grid)[:, None]
        worst_v = max(worst_v, float(np.max(np.abs(traj.values - expected))))
    assert worst_v <= 1e-8
    sol = solve_ergodic_vanishing_discount(symmetric2)
    assert abs(sol.gamma - 1.0) <= 1e-8
    worst_r = 0.0
    for r in sol.diagnostics[:, 0]:
        u = solve_stationary(symmetric2, float(r)).u
        worst_r = max(worst_r, float(np.max(np.abs(r * u - 1.0))))
    assert worst_r <= 1e-9
    print(f"ACCEPTANCE 2: PASS (value err {worst_v:.2e}, gamma err "
          f"{abs(sol.gamma - 1):.2e}, r*u err {worst_r:.2e})")


def test_criterion_03_comparison_principle_suite():
    rng = np.random.default_rng(301)
    worst = -np.inf
    for _ in range(50):
        n = int(rng.integers(2, 7))
        model = random_model(rng, n_nodes=n, family="mixed")
        g_low = rng.uniform(-1.0, 1.0, size=n)
        g_high = g_low + rng.uniform(0.0, 1.0, size=n)
        low = solve_finite_horizon(Problem(model, g_low, horizon=1.0)).values
        high = solve_finite_horizon(Problem(model, g_high, horizon=1.0)).values
        worst = max(worst, float(np.max(low - high)))
    assert worst <= 1e-8
    print(f"ACCEPTANCE 3: PASS (max violation {worst:.2e} over 50 instances)")


def test_criterion_04_nonexpansiveness_suite():
    rng = np.random.default_rng(401)
    worst_contract = -np.inf
    worst_law = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        model = random_model(rng, n_nodes=n, family="mixed")
        gamma = solve_ergodic_vanishing_discount(model).gamma
        x = rng.uniform(-1.0, 1.0, size=(100, n))
        y = rng.uniform(-1.0, 1.0, size=(100, n))
        sx = semigroup_apply(model, gamma, x, 1.0, 1e-12, 1e-14)
        sy = semigroup_apply(model, gamma, y, 1.0, 1e-12, 1e-14)
        contract = np.max(np.abs(sx - sy), axis=1) - np.max(np.abs(x - y), axis=1)
        worst_contract = max(worst_contract, float(np.max(contract)))
        half = semigroup_apply(model, gamma, y, 0.5, 1e-12, 1e-14)
        again = semigroup_apply(model, gamma, half, 0.5, 1e-12, 1e-14)
        worst_law = max(worst_law, float(np.max(np.abs(again - sy))))
    assert worst_contract <= 1e-8
    assert worst_law <= 1e-8
    print(f"ACCEPTANCE 4: PASS (contraction excess {worst_contract:.2e}, "
          f"law gap {worst_law:.2e} over 2000 pairs)")


def test_criterion_05_q_monotone_convergence():
    rng = np.random.default_rng(501)
    worst_rise = -np.inf
    worst_gap = 0.0
    t_max = 200.0
    grid = np.linspace(0.0, t_max, 1601)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        model = random_model(rng, n_nodes=n, family="entropic")
        g = rng.uniform(-1.0, 1.0, size=n)
        sol = solve_ergodic_direct(model, t_max)

        def flow(_t, z, model=model, gamma=sol.gamma):
            return model.hamiltonian_vector(z) - gamma

        rows, _ = integrate_grid(into(flow), grid, g, 1e-10, 1e-12)
        q = np.max(rows - sol.xi, axis=1)
        worst_rise = max(worst_rise, float(np.max(np.diff(q))))
        # settled: q moves by less than 1e-6 from t_max / 2 (index 800) on
        assert abs(q[-1] - q[800]) < 1e-6
        worst_gap = max(worst_gap, float(np.max(np.abs(rows[-1] - (sol.xi + q[-1])))))
    assert worst_rise <= 1e-9
    assert worst_gap <= 1e-4
    print(f"ACCEPTANCE 5: PASS (max q rise {worst_rise:.2e}, "
          f"limit gap {worst_gap:.2e} over 20 instances)")


def test_criterion_06_finite_horizon_asymptotics(asymmetric2):
    sol = solve_ergodic_direct(asymmetric2)
    assert sol.q_infinity is not None
    deviations = []
    final_policy = None
    for horizon in (10.0, 20.0, 40.0):
        problem = Problem(asymmetric2, np.zeros(2), horizon=horizon)
        traj = solve_finite_horizon(problem, rtol=1e-10, atol=1e-12)
        predicted = sol.gamma * horizon + sol.xi + sol.q_infinity
        deviations.append(float(np.max(np.abs(traj.values[0] - predicted))))
        final_policy = extract_policy(problem, traj).intensities[0]
    assert deviations[1] <= deviations[0] + 1e-12
    assert deviations[2] <= deviations[1] + 1e-12
    assert deviations[2] <= 1e-4
    assert np.max(np.abs(final_policy - 2.0)) <= 1e-3
    print(f"ACCEPTANCE 6: PASS (deviations {deviations[0]:.2e}, "
          f"{deviations[1]:.2e}, {deviations[2]:.2e} nonincreasing to roundoff, "
          f"policy err {np.max(np.abs(final_policy - 2.0)):.2e})")


def test_criterion_07_verification_theorem():
    rng = np.random.default_rng(701)
    worst_z = 0.0
    for k in range(10):
        n = int(rng.integers(2, 7))
        model = random_model(rng, n_nodes=n, family="mixed")
        g = rng.uniform(-1.0, 1.0, size=n)
        problem = Problem(model, g, horizon=1.0)
        traj = solve_finite_horizon(problem)
        policy = extract_policy(problem, traj)
        report = simulate(problem, policy, 0, 10_000, seed=700 + k)
        z = estimate_value_gap(report, float(traj.values[0, 0]))
        worst_z = max(worst_z, abs(z))
    assert worst_z <= 3.0
    worst_excess = -np.inf
    for _ in range(10):
        n = int(rng.integers(2, 7))
        model = random_model(rng, n_nodes=n, family="mixed")
        sol = solve_stationary(model, 0.5)
        lam = model.intensity_vector(sol.u)
        perturbed = lam * rng.uniform(0.7, 1.3, size=lam.shape)
        value = evaluate_stationary_policy(
            model, Policy(PolicyMode.STATIONARY, perturbed), 0.5)
        worst_excess = max(worst_excess, float(np.max(value - sol.u)))
    assert worst_excess <= 1e-9
    print(f"ACCEPTANCE 7: PASS (worst |z| {worst_z:.2f} at 1e4 paths, "
          f"suboptimality excess {worst_excess:.2e})")


def test_criterion_08_oracle_equivalence():
    rng = np.random.default_rng(801)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 7))
        model = random_model(rng, n_nodes=n, family="mixed")
        g = rng.uniform(-1.0, 1.0, size=n)
        problem = Problem(model, g, horizon=1.0,
                          discount=float(rng.uniform(0.0, 1.0)))
        traj = solve_finite_horizon(problem)
        ref = rk4_backward(problem, n_steps=1000)
        worst = max(worst, float(np.max(np.abs(traj.values[0] - ref))))
    assert worst <= 1e-8
    print(f"ACCEPTANCE 8: PASS (worst oracle gap {worst:.2e} over 10 instances)")


def test_criterion_09_strong_maximum_principle(quadratic2):
    rng = np.random.default_rng(901)
    worst_gap = np.inf
    for _ in range(5):
        n = int(rng.integers(2, 7))
        model = random_model(rng, n_nodes=n, family="entropic")
        gamma = solve_ergodic_vanishing_discount(model).gamma
        lo = rng.uniform(-1.0, 1.0, size=n)
        bump = rng.uniform(0.2, 1.0, size=n)
        bump[rng.integers(n)] = 0.0
        hi = lo + bump
        gap = float(np.min(semigroup_apply(model, gamma, hi, 0.5)
                           - semigroup_apply(model, gamma, lo, 0.5)))
        assert gap > 0.0
        worst_gap = min(worst_gap, gap)
    # strict ordering needs strict monotonicity: on the quadratic model of
    # problems/quadratic2.json node 0 sits far above node 1, every slope it
    # sees is below -shift, and its value never learns of node 1's gap
    lo, hi = np.array([5.0, 0.0]), np.array([5.0, 1.0])
    gap = semigroup_apply(quadratic2, 0.5, hi, 0.5) - semigroup_apply(quadratic2, 0.5, lo, 0.5)
    assert abs(gap[0]) <= 1e-12
    assert gap[1] > 0.0
    print(f"ACCEPTANCE 9: PASS (min strict gap {worst_gap:.2e}, "
          f"quadratic gap {gap[0]:.1e} at the upper node)")


def test_criterion_10_corrector_uniqueness():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(5):
        n = int(rng.integers(2, 7))
        model = random_model(rng, n_nodes=n, family="entropic")
        a = solve_ergodic_vanishing_discount(model)
        b = solve_ergodic_vanishing_discount(
            model, initial_guess=rng.uniform(-3.0, 3.0, size=n))
        assert a.xi[0] == 0.0 and b.xi[0] == 0.0
        worst = max(worst, float(np.max(np.abs(a.xi - b.xi))))
    assert worst <= 1e-7
    print(f"ACCEPTANCE 10: PASS (corrector spread {worst:.2e} across seeds)")
