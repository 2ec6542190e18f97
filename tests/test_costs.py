"""Cost families, Hamiltonians, maximizers, and their convexity, monotonicity and floor."""

import math

import numpy as np
import pytest

import ctmcontrol
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
)
from ctmcontrol import costs, errors, finite_horizon, stationary
from ctmcontrol.fixtures import random_model

from conftest import random_models, same_bits, two_node_model
from oracles import dense_generator, family_major_node_sums, grid_max_hamiltonian, where_edge_terms


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
        floor = -hamiltonian(model, 0, np.zeros(3))
        for _ in range(200):
            lam = rng.uniform(0.0, 8.0, size=3)
            assert cost(model, 0, lam) >= floor - 1e-12


def test_entropic_floor_attained():
    # min over lambda of lambda(ln(lambda/a) - 1) - b lambda is -a e^b
    model = fan_model([EdgeCost(CostFamily.ENTROPIC, 1.5, 0.4)])
    floor = -hamiltonian(model, 0, np.zeros(1))
    assert floor == pytest.approx(-1.5 * math.exp(0.4), rel=1e-14)
    lam_best = 1.5 * math.exp(0.4)
    assert cost(model, 0, np.array([lam_best])) == pytest.approx(floor, rel=1e-12)
    eps = 1e-4
    for lam in (lam_best - eps, lam_best + eps):
        assert cost(model, 0, np.array([lam])) >= floor


def test_quadratic_floor_attained():
    model = fan_model([EdgeCost(CostFamily.QUADRATIC, 2.0, 0.5)])
    # minimum of x^2/(2a) - b x at x = ab is -a b^2 / 2
    assert -hamiltonian(model, 0, np.zeros(1)) == pytest.approx(-2.0 * 0.25 / 2.0, rel=1e-14)
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


# the per-family kernels against the two-family np.where formulation


def test_family_kernels_match_where_oracle_bit_for_bit():
    # the last model has nodes of out-degree 16 and more, whose sums
    # move in their last bits under any other order than the kernels'
    wide = random_model(np.random.default_rng(112), 24, extra_edge_prob=0.9, family="mixed")
    assert np.max(np.diff(wide.offsets)) >= 16
    for rng, model in [*random_models(109), (np.random.default_rng(113), wide)]:
        n = model.n_nodes
        # one family: the layout is the flat order itself
        one_family = model.strict_monotone or not model.entropic.any()
        assert (model._layout.order is None) == one_family
        for shape in ((n,), (6, n), (3, 2, n)):
            # slopes in [-6, 6] cross 0, where the quadratic kernels kink
            values = rng.uniform(-3.0, 3.0, size=shape)
            slopes = values[..., model.edge_dst] - values[..., model.edge_src]
            conj, lam = where_edge_terms(model, slopes)
            assert same_bits(model.hamiltonian_vector(values), family_major_node_sums(model, conj))
            assert same_bits(model.intensity_vector(values), lam)
            assert same_bits(model.slopes(values), slopes)
        for i in range(n):
            sl = model.node_slice(i)
            p = rng.uniform(-6.0, 6.0, size=sl.stop - sl.start)
            conj, lam = where_edge_terms(model, p, sl)
            assert same_bits(hamiltonian(model, i, p), float(np.sum(conj)))
            assert same_bits(optimal_intensities(model, i, p), lam)


def test_family_kernels_overflow_guard_and_empty_input():
    mixed = CostModel(build_graph(2, [(0, 1), (1, 0)]), {
        (0, 1): EdgeCost(CostFamily.ENTROPIC, 1.0),
        (1, 0): EdgeCost(CostFamily.QUADRATIC, 1.0),
    })
    # an entropic slope above 709 overflows exp
    for kernel in (mixed.hamiltonian_vector, mixed.intensity_vector):
        with pytest.raises(NumericOverflow):
            kernel(np.array([0.0, 710.0]))
    with pytest.raises(NumericOverflow):
        hamiltonian(mixed, 0, [710.0])
    # a quadratic slope above 709 is finite, and the entropic slope -710 too
    assert np.all(np.isfinite(mixed.hamiltonian_vector(np.array([710.0, 0.0]))))
    assert hamiltonian(mixed, 1, [710.0]) == 0.5 * 710.0 ** 2
    # NaN is not an overflow
    assert np.all(np.isnan(mixed.intensity_vector(np.array([np.nan, 0.0]))))
    # a NaN slope beside an overflowing one hides nothing, in one state or a
    # batch row, and all-NaN entropic slopes do not raise
    wide = CostModel(build_graph(3, [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0)]), {
        (0, 1): EdgeCost(CostFamily.ENTROPIC, 1.0),
        (0, 2): EdgeCost(CostFamily.ENTROPIC, 1.0),
        (1, 0): EdgeCost(CostFamily.QUADRATIC, 1.0),
        (1, 2): EdgeCost(CostFamily.ENTROPIC, 1.0),
        (2, 0): EdgeCost(CostFamily.ENTROPIC, 1.0),
    })
    overflowing = np.array([0.0, 800.0, np.nan])
    batch = np.zeros((4, 3))
    batch[2] = overflowing
    for kernel in (wide.hamiltonian_vector, wide.intensity_vector):
        for values in (overflowing, batch):
            with pytest.raises(NumericOverflow):
                kernel(values)
        assert np.all(np.isnan(kernel(np.full(3, np.nan))))
    with pytest.raises(NumericOverflow):
        hamiltonian(wide, 0, [800.0, np.nan])
    # no rows in, no rows out
    assert mixed.intensity_vector(np.zeros((0, 2))).shape == (0, 2)
    assert mixed.hamiltonian_vector(np.zeros((0, 2))).shape == (0, 2)
    for rng, model in random_models(110):
        n = model.n_nodes
        assert model.intensity_vector(np.zeros((0, n))).shape == (0, model.n_edges)
        assert model.hamiltonian_vector(np.zeros((0, n))).shape == (0, n)


# node sums and the generator operator on random strongly connected graphs


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


def ring_with_one_chord(rng, n):
    """Ring plus at most one chord per node, families mixed: out-degree 1 or 2."""
    edges = {(i, (i + 1) % n) for i in range(n)} | {(i, int(rng.integers(n))) for i in range(n)}
    edges = sorted((i, j) for i, j in edges if i != j)
    return CostModel(build_graph(n, edges), {
        e: EdgeCost(CostFamily(rng.choice(["entropic", "quadratic"])),
                    rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5))
        for e in edges})


def test_batch_node_sums_match_row_sums_bit_for_bit():
    # the residual's row blocks and semigroup_apply's batch rely on each
    # row of a batch summing to the bits of that row alone
    rng = np.random.default_rng(114)
    low = [(rng, ring_with_one_chord(rng, n)) for n in (2, 10, 40, 200)]
    assert all(np.max(np.diff(m.offsets)) == 2 for _, m in low[1:])
    for rng, model in [*random_models(114), *low]:
        n, e = model.n_nodes, model.n_edges
        for lead in ((6,), (3, 2)):
            values = rng.uniform(-3.0, 3.0, size=lead + (n,))
            terms = rng.uniform(-5.0, 5.0, size=lead + (e,))
            ham, sums = model.hamiltonian_vector(values), model._node_sum(terms)
            for row in np.ndindex(lead):
                assert same_bits(ham[row], model.hamiltonian_vector(values[row]))
                assert same_bits(sums[row], model._node_sum(terms[row]))
            if np.max(np.diff(model.offsets)) <= 2:
                # one or two terms add to the same bits in any order, so the
                # flat-order segment sums of np.add.reduceat agree too
                conj, _ = where_edge_terms(model, model.slopes(values))
                assert same_bits(ham, np.add.reduceat(conj, model.offsets[:-1], axis=-1))
                assert same_bits(sums, np.add.reduceat(terms, model.offsets[:-1], axis=-1))


def test_generator_apply_matches_dense_oracle():
    for rng, model in random_models(107):
        n = model.n_nodes
        lam = rng.uniform(0.1, 3.0, size=model.n_edges)
        q = dense_generator(model, lam)
        for x in (rng.uniform(-5.0, 5.0, size=n), rng.uniform(-1e3, 1e3, size=n)):
            want = q @ x
            got = model.generator_apply(lam, x)
            # each entry sums at most 40 products of size |lam| |x|
            assert np.all(np.abs(got - want) <= 1e-13 * (np.abs(q) @ np.abs(x)))
        assert np.all(model.generator_apply(lam, np.ones(n)) == 0.0)
        assert np.allclose(model.exit_rates(lam), -np.diag(q), rtol=1e-13, atol=0.0)


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


# package surface


def test_public_names_resolve_and_removed_names_are_gone():
    for name in ctmcontrol.__all__:
        getattr(ctmcontrol, name)
    for name in ("validate_assumptions", "PropertyCheck", "ValidationReport",
                 "DedriftedSeries", "dedrift", "verify_comparison", "ComparisonReport",
                 "check_strong_max_principle", "MaxPrincipleReport",
                 "verify_stationary_comparison", "StationaryComparisonReport",
                 "StrictnessViolation", "PreconditionUnmet", "HypothesisUnmet",
                 "q_diagnostic", "QDiagnostic", "MonotonicityViolation", "ErgodicMethod"):
        assert name not in ctmcontrol.__all__
        for module in (ctmcontrol, costs, errors, finite_horizon, stationary):
            assert not hasattr(module, name)
    for name in ("cost_floor", "conjugate_terms", "maximizer_terms"):
        assert not hasattr(CostModel, name)
