"""Cost families, Hamiltonians, maximizers, and assumption checks."""

import math
import tracemalloc

import numpy as np
import pytest

from ctmcontrol import (
    CostFamily,
    CostModel,
    EdgeCost,
    NegativeIntensity,
    NumericOverflow,
    build_graph,
    cost,
    hamiltonian,
    optimal_intensities,
    validate_assumptions,
)
from ctmcontrol.fixtures import random_model

from conftest import random_models, two_node_model
from oracles import grid_max_hamiltonian


def fan_model(edge_costs):
    """Node 0 with out-edges to 1..k, plus return edges to close the graph."""
    k = len(edge_costs)
    edges = [(0, j + 1) for j in range(k)] + [(j + 1, 0) for j in range(k)]
    graph = build_graph(k + 1, edges)
    table = {(0, j + 1): ec for j, ec in enumerate(edge_costs)}
    for j in range(k):
        table[(j + 1, 0)] = EdgeCost(CostFamily.ENTROPIC, 1.0)
    return CostModel(graph, table)


# cost: frozen arithmetic examples


def test_cost_entropic_unit():
    model = two_node_model()
    assert cost(model, 0, np.array([1.0])) == pytest.approx(-1.0, abs=1e-15)


def test_cost_quadratic():
    model = fan_model([EdgeCost(CostFamily.QUADRATIC, 2.0)])
    assert cost(model, 0, np.array([4.0])) == pytest.approx(4.0, abs=1e-15)


def test_cost_entropic_scaled_shifted():
    # 2 (ln(2/2) - 1) - 1 * 2 = -4
    model = fan_model([EdgeCost(CostFamily.ENTROPIC, 2.0, 1.0)])
    assert cost(model, 0, np.array([2.0])) == pytest.approx(-4.0, abs=1e-15)


def test_cost_zero_intensity_is_zero():
    model = two_node_model(shift_12=0.7)
    assert cost(model, 0, np.array([0.0])) == 0.0


def test_cost_rejects_negative_intensity():
    model = two_node_model()
    with pytest.raises(NegativeIntensity):
        cost(model, 0, np.array([-0.5]))


# hamiltonian: frozen examples and the grid oracle


def test_hamiltonian_entropic_unit():
    model = two_node_model()
    assert hamiltonian(model, 0, np.array([0.0])) == pytest.approx(1.0, abs=1e-15)


def test_hamiltonian_quadratic_clamps():
    model = fan_model([EdgeCost(CostFamily.QUADRATIC, 1.0)])
    assert hamiltonian(model, 0, np.array([-5.0])) == 0.0


def test_hamiltonian_entropic_against_grid_oracle():
    model = fan_model([EdgeCost(CostFamily.ENTROPIC, 2.0)])
    p = np.array([math.log(3.0)])
    h = hamiltonian(model, 0, p)
    assert h == pytest.approx(6.0, abs=1e-12)
    h_grid, _ = grid_max_hamiltonian(model, 0, p)
    assert h == pytest.approx(h_grid, abs=1e-4)


def test_hamiltonian_accepts_list():
    model = two_node_model()
    assert hamiltonian(model, 0, [0.0]) == pytest.approx(1.0)


def test_hamiltonian_overflow_reported():
    model = two_node_model()
    with pytest.raises(NumericOverflow):
        hamiltonian(model, 0, np.array([800.0]))


# optimal_intensities: frozen examples and the grid oracle


def test_maximizer_entropic_unit():
    model = two_node_model()
    lam = optimal_intensities(model, 0, np.array([0.0]))
    assert lam == pytest.approx([1.0], abs=1e-15)


def test_maximizer_quadratic_two_edges():
    model = fan_model([EdgeCost(CostFamily.QUADRATIC, 2.0),
                       EdgeCost(CostFamily.QUADRATIC, 2.0)])
    p = np.array([3.0, -1.0])
    lam = optimal_intensities(model, 0, p)
    assert lam == pytest.approx([6.0, 0.0], abs=1e-12)
    assert hamiltonian(model, 0, p) == pytest.approx(9.0, abs=1e-12)
    h_grid, lam_grid = grid_max_hamiltonian(model, 0, p, lam_max=20.0)
    assert lam == pytest.approx(lam_grid, abs=1e-4)
    assert hamiltonian(model, 0, p) == pytest.approx(h_grid, abs=1e-4)


def test_maximizer_entropic_two_edges():
    model = fan_model([EdgeCost(CostFamily.ENTROPIC, 1.0),
                       EdgeCost(CostFamily.ENTROPIC, 1.0)])
    p = np.array([math.log(2.0), math.log(5.0)])
    lam = optimal_intensities(model, 0, p)
    assert lam == pytest.approx([2.0, 5.0], abs=1e-12)
    assert hamiltonian(model, 0, p) == pytest.approx(7.0, abs=1e-12)
    h_grid, lam_grid = grid_max_hamiltonian(model, 0, p, lam_max=20.0)
    assert lam == pytest.approx(lam_grid, abs=1e-4)


# module invariants


def random_mixed_model(rng):
    fams = [CostFamily.ENTROPIC if rng.random() < 0.5 else CostFamily.QUADRATIC
            for _ in range(3)]
    return fan_model([EdgeCost(f, rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5))
                      for f in fams])


def test_supremum_property_sampled():
    rng = np.random.default_rng(101)
    for _ in range(20):
        model = random_mixed_model(rng)
        p = rng.uniform(-1.5, 1.5, size=3)
        h = hamiltonian(model, 0, p)
        lam_star = optimal_intensities(model, 0, p)
        attained = float(lam_star @ p) - cost(model, 0, lam_star)
        assert attained <= h + 1e-10
        assert attained == pytest.approx(h, abs=1e-10)
        for _ in range(50):
            lam = rng.uniform(0.0, 6.0, size=3)
            assert float(lam @ p) - cost(model, 0, lam) <= h + 1e-10


def test_monotone_in_each_coordinate():
    rng = np.random.default_rng(102)
    for _ in range(20):
        model = random_mixed_model(rng)
        p = rng.uniform(-1.5, 1.5, size=3)
        bump = rng.uniform(0.0, 1.0, size=3)
        assert hamiltonian(model, 0, p) <= hamiltonian(model, 0, p + bump) + 1e-12


def test_strictly_monotone_for_entropic():
    model = two_node_model()
    assert model.strict_monotone
    p = np.array([-3.0])
    assert hamiltonian(model, 0, p) < hamiltonian(model, 0, p + 1e-6)


def test_midpoint_convexity():
    rng = np.random.default_rng(103)
    for _ in range(20):
        model = random_mixed_model(rng)
        p, q = rng.uniform(-1.5, 1.5, size=(2, 3))
        hm = hamiltonian(model, 0, 0.5 * (p + q))
        assert hm <= 0.5 * hamiltonian(model, 0, p) + 0.5 * hamiltonian(model, 0, q) + 1e-10


def test_cost_bounded_below_by_floor():
    rng = np.random.default_rng(104)
    for _ in range(10):
        model = random_mixed_model(rng)
        floor = model.cost_floor[0]
        for _ in range(200):
            lam = rng.uniform(0.0, 8.0, size=3)
            assert cost(model, 0, lam) >= floor - 1e-12


def test_entropic_floor_attained():
    # min over lambda of lambda(ln(lambda/a) - 1) - b lambda is -a e^b
    model = fan_model([EdgeCost(CostFamily.ENTROPIC, 1.5, 0.4)])
    floor = model.cost_floor[0]
    assert floor == pytest.approx(-1.5 * math.exp(0.4), rel=1e-14)
    lam_best = 1.5 * math.exp(0.4)
    assert cost(model, 0, np.array([lam_best])) == pytest.approx(floor, rel=1e-12)
    eps = 1e-4
    for lam in (lam_best - eps, lam_best + eps):
        assert cost(model, 0, np.array([lam])) >= floor


def test_quadratic_floor_attained():
    model = fan_model([EdgeCost(CostFamily.QUADRATIC, 2.0, 0.5)])
    # minimum of x^2/(2a) - b x at x = ab is -a b^2 / 2
    assert model.cost_floor[0] == pytest.approx(-2.0 * 0.25 / 2.0, rel=1e-14)
    assert cost(model, 0, np.array([1.0])) == pytest.approx(-0.25, rel=1e-12)


def test_maximizer_is_gradient_of_hamiltonian():
    rng = np.random.default_rng(105)
    for _ in range(10):
        model = random_mixed_model(rng)
        p = rng.uniform(-1.0, 1.5, size=3)
        lam_star = optimal_intensities(model, 0, p)
        d = 1e-6
        for j in range(3):
            e = np.zeros(3)
            e[j] = d
            fd = (hamiltonian(model, 0, p + e) - hamiltonian(model, 0, p - e)) / (2 * d)
            assert abs(fd - lam_star[j]) <= 1e-6 * (1.0 + abs(lam_star[j]))


# node sums and the generator on random strongly connected graphs


def test_node_sum_matches_edge_loop():
    for rng, model in random_models(106):
        n, e = model.n_nodes, model.n_edges
        own = [np.flatnonzero(model.edge_src == i) for i in range(n)]
        for shape in ((e,), (4, e), (3, 2, e)):
            terms = rng.uniform(-5.0, 5.0, size=shape)
            ref = np.stack([terms[..., k].sum(axis=-1) for k in own], axis=-1)
            size = np.stack([np.abs(terms[..., k]).sum(axis=-1) for k in own], axis=-1)
            got = model._node_sum(terms)
            assert got.shape == shape[:-1] + (n,)
            # only the summation order differs: float64 reordering error is
            # below degree * eps * sum|t| < 1e-14 sum|t| at degree <= 40
            assert np.all(np.abs(got - ref) <= 1e-13 * size)
        values = rng.uniform(-1.0, 1.0, size=(3, 2, n))
        slopes = model.slopes(values)
        ham = model.hamiltonian_vector(values)
        for i in range(n):
            sl = model.node_slice(i)
            expected = [hamiltonian(model, i, p[sl]) for p in slopes.reshape(-1, e)]
            assert ham[..., i].reshape(-1) == pytest.approx(expected, rel=1e-13, abs=1e-13)


def test_generator_has_zero_row_sums_and_graph_support():
    for rng, model in random_models(107):
        n = model.n_nodes
        lam = rng.uniform(0.1, 3.0, size=model.n_edges)
        q = model.generator(lam)
        assert q.shape == (n, n)
        assert np.max(np.abs(q.sum(axis=1))) <= 1e-13 * (1.0 + np.max(np.abs(q)))
        on_edge = np.zeros((n, n), dtype=bool)
        on_edge[model.edge_src, model.edge_dst] = True
        # boolean indexing walks rows then columns: the canonical edge order
        assert np.array_equal(q[on_edge], lam)
        assert np.all(q[~on_edge & ~np.eye(n, dtype=bool)] == 0.0)
        assert np.all(np.diag(q) < 0.0)


# validate_assumptions


def test_validation_entropic_all_pass():
    report = validate_assumptions(two_node_model())
    assert report.passed
    assert report["strict_monotone"].passed is True


def test_validation_quadratic_strictness_fails_with_witness():
    shifts = {(0, 1): 0.3, (1, 0): -0.2}
    model = two_node_model(family=CostFamily.QUADRATIC, shift_12=0.3, shift_21=-0.2)
    report = validate_assumptions(model)
    check = report["strict_monotone"]
    assert check.passed is False
    # a raise of at least 0.1 leaves H flat only where slope + shift <= -0.1
    assert check.witness["slope"] + shifts[check.witness["edge"]] <= -0.1
    assert report["monotone"].passed is True


def test_validation_mixed_strictness_not_asserted():
    graph = build_graph(2, [(0, 1), (1, 0)])
    model = CostModel(graph, {
        (0, 1): EdgeCost(CostFamily.ENTROPIC, 1.0),
        (1, 0): EdgeCost(CostFamily.QUADRATIC, 1.0),
    })
    assert not model.strict_monotone
    report = validate_assumptions(model)
    assert report["strict_monotone"].passed is None


def test_validation_memory_stays_bounded():
    # samples are drawn in blocks, so peak memory does not grow with
    # samples x edges (2,928 edges here)
    model = random_model(np.random.default_rng(0), 300, extra_edge_prob=0.03, family="mixed")
    tracemalloc.start()
    try:
        validate_assumptions(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32e6


# constructors


def test_edge_cost_rejects_bad_scale():
    with pytest.raises(ValueError):
        EdgeCost(CostFamily.ENTROPIC, 0.0)
    with pytest.raises(ValueError):
        EdgeCost(CostFamily.ENTROPIC, -1.0)


def test_cost_model_requires_exact_edge_cover():
    graph = build_graph(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        CostModel(graph, {(0, 1): EdgeCost(CostFamily.ENTROPIC, 1.0)})
    with pytest.raises(ValueError):
        CostModel(graph, {
            (0, 1): EdgeCost(CostFamily.ENTROPIC, 1.0),
            (1, 0): EdgeCost(CostFamily.ENTROPIC, 1.0),
            (0, 0): EdgeCost(CostFamily.ENTROPIC, 1.0),
        })
