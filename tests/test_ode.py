"""Adaptive Runge-Kutta integrator: accuracy, stepping, failure modes."""

import math

import numpy as np
import pytest

from ctmcontrol import (
    NoConvergence,
    NumericOverflow,
    Problem,
    StepSizeUnderflow,
    output_grid,
    semigroup_apply,
    solve_ergodic_direct,
    solve_finite_horizon,
)
from ctmcontrol import stationary
from ctmcontrol.finite_horizon import DEFAULT_ATOL, DEFAULT_RTOL, _row_blocks
from ctmcontrol.fixtures import random_model
from ctmcontrol.ode import _error_norm, integrate_grid

from conftest import into, random_models, same_bits
from oracles import dp5_integrate_grid


def test_exponential_decay_accuracy():
    rows, stats = integrate_grid(into(lambda t, y: -2.0 * y), (0.0, 1.0),
                                 np.array([1.0]), 1e-8, 1e-10)
    y = rows[-1]
    assert abs(y[0] - math.exp(-2.0)) < 1e-8
    assert stats.accepted < 300


def test_harmonic_oscillator_round_trip():
    def f(t, y):
        return np.array([y[1], -y[0]])

    rows, stats = integrate_grid(into(f), (0.0, 2.0 * math.pi), np.array([1.0, 0.0]),
                                 1e-9, 1e-11)
    y = rows[-1]
    assert abs(y[0] - 1.0) < 1e-8
    assert abs(y[1]) < 1e-8


def test_tighter_tolerance_reduces_error():
    f = lambda t, y: np.array([math.cos(t) * y[0]])
    errors = []
    for rtol in (1e-5, 1e-8, 1e-11):
        rows, _ = integrate_grid(into(f), (0.0, 3.0), np.array([1.0]), rtol, rtol * 1e-2)
        y = rows[-1]
        errors.append(abs(y[0] - math.exp(math.sin(3.0))))
    assert errors[0] > errors[1] > errors[2]


def test_grid_output_rows_and_start():
    grid = np.linspace(0.0, 1.0, 33)
    y0 = np.array([1.0, -0.5])
    rows, _ = integrate_grid(into(lambda t, y: -y), grid, y0, 1e-9, 1e-11)
    assert rows.shape == (33, 2)
    assert rows[0] is not y0
    assert np.array_equal(rows[0], y0)
    expected = np.exp(-grid)[:, None] * y0[None, :]
    assert np.max(np.abs(rows - expected)) < 1e-9


def test_grid_landing_is_exact():
    # awkward irrational-ish spacing must still be hit exactly
    grid = np.array([0.0, 0.1, 1.0 / 3.0, math.sqrt(0.5), 1.0])
    rows, _ = integrate_grid(into(lambda t, y: np.array([2.0 * t])), grid,
                             np.array([0.0]), 1e-10, 1e-12)
    assert np.max(np.abs(rows[:, 0] - grid ** 2)) < 1e-12


def test_grid_must_strictly_increase():
    with pytest.raises(ValueError):
        integrate_grid(into(lambda t, y: -y), np.array([0.0, 0.5, 0.5]),
                       np.array([1.0]), 1e-8, 1e-10)
    # a NaN point compares false, so it passes the ordering check alone
    for grid in ([0.0, math.nan], [math.nan, 1.0], [0.0, 1.0, math.inf], [-math.inf, 0.0]):
        with pytest.raises(ValueError, match="finite"):
            integrate_grid(into(lambda t, y: -y), np.array(grid), np.array([1.0]), 1e-8, 1e-10)


def test_blowup_stops_with_diagnosis():
    # y' = y^2 from y(0) = 1 blows up at t = 1; the controller must halt
    # with one of the two failure diagnoses instead of looping forever
    with pytest.raises((NumericOverflow, StepSizeUnderflow)):
        integrate_grid(into(lambda t, y: y * y), (0.0, 2.0), np.array([1.0]),
                       1e-8, 1e-10)


def test_overflowing_rhs_reports_overflow():
    # exp(y) overflows float range immediately from y = 710, so every
    # trial step is nonfinite and the failure is a numeric overflow
    with np.errstate(over="ignore"), pytest.raises(NumericOverflow):
        integrate_grid(into(lambda t, y: np.exp(y)), (0.0, 1.0),
                       np.array([710.0]), 1e-8, 1e-10)


def test_integrable_singularity_underflows_step():
    # derivative unbounded near t = 0.5; controller shrinks h to the floor
    def f(t, y):
        return np.array([1.0 / max(0.5 - t, 1e-300)])

    with pytest.raises((StepSizeUnderflow, NumericOverflow)):
        integrate_grid(into(f), (0.0, 1.0), np.array([0.0]), 1e-10, 1e-12)


def test_huge_derivative_starts_at_the_step_floor():
    # y' = 1e280 scales the first proposal to about 1e-59, below the
    # floor of 1e-14 of the span; the first trial step is the floor,
    # and the controller grows it from there
    grid = np.linspace(0.0, 1.0, 5)
    rows, stats = integrate_grid(into(lambda t, y: np.full_like(y, 1e280)), grid, np.zeros(1),
                                 1e-8, 1e-12)
    assert np.array_equal(rows[:, 0], 1e280 * grid)
    assert stats.rejected == 0


def test_stats_count_rejections():
    # a kink forces at least one rejected step at tight tolerance
    def f(t, y):
        return np.array([1.0 if t < 0.3 else -50.0])

    rows, stats = integrate_grid(into(f), (0.0, 1.0), np.array([0.0]), 1e-10, 1e-12)
    y = rows[-1]
    assert stats.rejected >= 1
    assert abs(y[0] - (0.3 - 0.7 * 50.0)) < 1e-6


def test_backward_time_span_rejected():
    with pytest.raises(ValueError):
        integrate_grid(into(lambda t, y: -y), (1.0, 0.0), np.array([1.0]), 1e-8, 1e-10)


def test_error_norm_has_the_bits_of_numpy_mean():
    # sizes below, at and above the 8-wide unrolled and 128-wide blocked
    # stretches of numpy's pairwise sum
    rng = np.random.default_rng(12)
    for n in (1, 2, 7, 9, 128, 131, 1000, 3005):
        for _ in range(20):
            err = rng.standard_normal(n) * 10.0 ** rng.uniform(-12, 3, size=n)
            scale = 1e-12 + 1e-10 * np.abs(rng.standard_normal(n))
            want = float(np.sqrt(np.mean(np.square(err / scale))))
            assert _error_norm(err, scale) == want
        for bad in (np.inf, -np.inf, np.nan):
            err[rng.integers(n)] = bad
            with np.errstate(invalid="ignore"):
                want = float(np.sqrt(np.mean(np.square(err / scale))))
                got = _error_norm(err, scale)
            assert got == want or (math.isnan(got) and math.isnan(want))
            assert not math.isfinite(got)


@pytest.mark.parametrize("blowup", [lambda y: np.exp(y + 1000.0), lambda y: np.log(y - 2.0)],
                         ids=["overflow", "invalid"])
def test_rhs_turning_nonfinite_is_rejected_without_warnings(blowup):
    # finite up to t = 0.5, then exp overflows (inf) or log goes invalid
    # (nan): the steps across are rejected and shrink to the floor, and
    # the suite's warning filter turns any RuntimeWarning into an error
    def f(t, y):
        return np.ones_like(y) if t < 0.5 else blowup(y)

    with pytest.raises(NumericOverflow):
        integrate_grid(into(f), (0.0, 1.0), np.zeros(3), 1e-8, 1e-10)


def test_state_overflowing_to_inf_is_rejected():
    # y = 1e308 t leaves the float range near t = 1.8; a step that makes
    # it inf has an infinite error scale, so its error norm is 0, and
    # only the test of the state itself keeps it from being accepted
    with pytest.raises(NumericOverflow):
        integrate_grid(into(lambda t, y: np.full_like(y, 1e308)), (0.0, 3.0), np.zeros(2),
                       1e-8, 1e290)


def test_driver_matches_reference_dp5_bit_for_bit(monkeypatch):
    # the lean driver reuses its arrays and takes stages as a.dot(k)
    # scaled by h and shifted by y in place, so its rows and step counts
    # must be those of the driver as first written, on every solver route
    checked = []

    def against_reference(f, grid, y0, rtol, atol):
        def returning(t, y):
            out = np.empty_like(y)
            f(t, y, out)
            return out

        rows, stats = integrate_grid(f, grid, y0, rtol, atol)
        ref_rows, ref_stats = dp5_integrate_grid(returning, grid, y0, rtol, atol)
        assert same_bits(rows, ref_rows)
        assert (stats.accepted, stats.rejected) == ref_stats
        checked.append(np.shape(y0))
        return rows, stats

    monkeypatch.setattr(stationary, "integrate_grid", against_reference)
    for rng, model in random_models(111):
        n = model.n_nodes
        g = rng.uniform(-1.0, 1.0, size=n)
        for r in (0.3, 0.0):
            # the solver's own right-hand side against the plain H(w) - r w
            traj = solve_finite_horizon(Problem(model, g, 1.0, r))
            rows, (accepted, rejected) = dp5_integrate_grid(
                lambda _s, w: model.hamiltonian_vector(w) - r * w, output_grid(1.0), g,
                DEFAULT_RTOL, DEFAULT_ATOL)
            assert same_bits(traj.values[:-1], rows[:0:-1])
            assert (traj.step_count, traj.rejected_steps) == (accepted, rejected)
        try:
            solve_ergodic_direct(model)
        except NoConvergence:
            pass  # slowly mixing quadratic models; both flows were checked
        semigroup_apply(model, 0.5, rng.uniform(-1.0, 1.0, size=(3, n)), 1.0)
    # per model: the drifting sweep, the de-drifted flow and the batch
    assert len(checked) == 3 * 18
    assert checked[2::3] == [(3 * model.n_nodes,) for _, model in random_models(111)]


def counting_kernel(model):
    """Replace model.hamiltonian_vector on the instance, as a tracer does; returns the call shapes."""
    kernel, shapes = model.hamiltonian_vector, []

    def counted(values):
        shapes.append(values.shape)
        return kernel(values)

    model.hamiltonian_vector = counted
    return shapes


def test_every_hamiltonian_call_reads_the_instance_attribute(monkeypatch):
    # a tracer counts Hamiltonian evaluations by rebinding this instance
    # attribute, so every route must look the kernel up on the model: a
    # solve makes two calls to start (the first stage and the initial
    # step's probe), six per trial step and one per residual row block
    model = random_model(np.random.default_rng(115), 12, family="mixed")
    g = np.random.default_rng(116).uniform(-1.0, 1.0, size=12)
    shapes = counting_kernel(model)
    traj = solve_finite_horizon(Problem(model, g, 1.0, 0.2))
    blocks = len(_row_blocks(traj.values.shape[0] - 2, model.n_edges))
    assert len(shapes) == 2 + 6 * (traj.step_count + traj.rejected_steps) + blocks
    assert sum(len(s) == 2 for s in shapes) == blocks
    steps = []

    def recording(f, grid, y0, rtol, atol):
        rows, stats = integrate_grid(f, grid, y0, rtol, atol)
        steps.append(stats.accepted + stats.rejected)
        return rows, stats

    monkeypatch.setattr(stationary, "integrate_grid", recording)
    for route in (lambda: semigroup_apply(model, 0.5, np.zeros((3, 12)), 1.0),
                  lambda: solve_ergodic_direct(model)):
        shapes.clear()
        steps.clear()
        route()
        assert steps and len(shapes) >= sum(2 + 6 * s for s in steps)
