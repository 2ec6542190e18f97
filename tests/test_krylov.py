"""GMRES on the bordered generator systems, against dense solves of the oracle matrices."""

import numpy as np

from ctmcontrol import solve_ergodic_vanishing_discount
from ctmcontrol.fixtures import random_model
from ctmcontrol.krylov import gmres
from ctmcontrol.stationary import _system

from conftest import random_models
from oracles import dense_generator


def _sup(x):
    return float(np.max(np.abs(x)))


def _dense_jacobian(apply, n):
    return np.column_stack([apply(e) for e in np.eye(n)])


def _check_against_dense(jac, apply, diag, b):
    """GMRES against np.linalg.solve, both bounded through ||J^-1||.

    The tolerance is the evaluator's contract 1e-12 (1 + |x|): a residual
    far below eps (r + 2 rate) |x| is under the rounding of J x itself.
    """
    ref = np.linalg.solve(jac, b)
    tol = 1e-12 * (1.0 + _sup(ref))
    x, resid, its = gmres(apply, b, diag, tol)
    assert 0 < its and resid <= tol
    assert resid == _sup(b - apply(x))
    # |x - ref| <= ||J^-1|| (|J x - b| + |J ref - b|), with J^-1 itself
    # computed densely, hence the factor 2
    bound = np.linalg.norm(np.linalg.inv(jac), np.inf) * (_sup(jac @ x - b) + _sup(jac @ ref - b))
    assert _sup(x - ref) <= 2.0 * bound + 1e-15 * _sup(ref)


def _bordered_jacobian(model, r, z):
    """Q(lam*(v)) - r I with column 0 set to -1, for v = (0, z[1:]), densely."""
    v = np.concatenate([[0.0], z[1:]])
    jac = dense_generator(model, model.intensity_vector(v)) - r * np.eye(model.n_nodes)
    jac[:, 0] = -1.0
    return jac


def test_gmres_matches_dense_solve_on_discounted_jacobian():
    for rng, model in random_models(109):
        n = model.n_nodes
        z = rng.uniform(-1.0, 1.0, size=n)
        for r in (0.5, 2.0 ** -20):
            f, apply, diag = _system(model, r, z)
            jac = _bordered_jacobian(model, r, z)
            assert np.allclose(_dense_jacobian(apply, n), jac, rtol=1e-13, atol=1e-15)
            assert np.allclose(diag, np.diag(jac), rtol=1e-14, atol=0.0)
            _check_against_dense(jac, apply, diag, -f)


def test_ergodic_system_applies_the_bordered_jacobian():
    for rng, model in random_models(110):
        n = model.n_nodes
        z = rng.uniform(-1.0, 1.0, size=n)
        _, apply, diag = _system(model, 0.0, z)
        jac = _bordered_jacobian(model, 0.0, z)
        assert np.allclose(_dense_jacobian(apply, n), jac, rtol=1e-13, atol=1e-15)
        assert np.allclose(diag, np.diag(jac), rtol=1e-14, atol=0.0)


def test_gmres_matches_dense_solve_on_bordered_ergodic_jacobian():
    # with every intensity positive the chain is irreducible, and Q with
    # column 0 replaced by -1 is nonsingular
    for rng, model in random_models(111):
        n = model.n_nodes
        lam = rng.uniform(0.1, 3.0, size=model.n_edges)
        jac = dense_generator(model, lam)
        jac[:, 0] = -1.0
        diag = -model.exit_rates(lam)
        diag[0] = -1.0

        def apply(d):
            return model.generator_apply(lam, np.concatenate([[0.0], d[1:]])) - d[0]

        _check_against_dense(jac, apply, diag, rng.uniform(-1.0, 1.0, size=n))


def test_gmres_returns_minimum_residual_on_singular_jacobian():
    # the optimal intensities of this quadratic model vanish on most
    # edges at its ergodic root, so two rows of the bordered Jacobian
    # are (-1, 0, 0): the case the dense Newton solved in least squares
    model = random_model(np.random.default_rng(3), 3, family="quadratic")
    sol = solve_ergodic_vanishing_discount(model)
    lam = model.intensity_vector(sol.xi)
    assert np.any(lam == 0.0)
    _, apply, diag = _system(model, 0.0, np.concatenate([[sol.gamma], sol.xi[1:]]))
    jac = _dense_jacobian(apply, 3)
    assert np.linalg.matrix_rank(jac) < 3
    for b in (np.array([1.0, -2.0, 0.5]), np.array([0.3, 0.0, 0.0])):
        x, resid, _ = gmres(apply, b, diag, 1e-14)
        assert np.all(np.isfinite(x)) and resid > 1e-3
        least = np.linalg.lstsq(jac, b, rcond=None)[0]
        floor = np.linalg.norm(jac @ least - b)
        assert np.linalg.norm(jac @ x - b) <= floor * (1.0 + 1e-9) + 1e-12

