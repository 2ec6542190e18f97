"""Shared instance builders for the test suite."""

import numpy as np
import pytest

from ctmcontrol import CostFamily, CostModel, EdgeCost, build_graph
from ctmcontrol.fixtures import random_model


def two_node_model(scale_12=1.0, scale_21=1.0, shift_12=0.0, shift_21=0.0,
                   family=CostFamily.ENTROPIC):
    graph = build_graph(2, [(0, 1), (1, 0)])
    return CostModel(graph, {
        (0, 1): EdgeCost(family, scale_12, shift_12),
        (1, 0): EdgeCost(family, scale_21, shift_21),
    })


def ring_model(n_nodes=3, scale=1.0, family=CostFamily.ENTROPIC):
    edges = [(i, (i + 1) % n_nodes) for i in range(n_nodes)]
    graph = build_graph(n_nodes, edges)
    return CostModel(graph, {e: EdgeCost(family, scale) for e in edges})


def random_models(seed):
    """Strongly connected random models: every family, n from 2 to 40."""
    rng = np.random.default_rng(seed)
    for family in ("entropic", "quadratic", "mixed"):
        for n in (2, 3, 5, 10, 20, 40):
            yield rng, random_model(rng, n_nodes=n, family=family)


@pytest.fixture
def symmetric2():
    return two_node_model()


@pytest.fixture
def asymmetric2():
    return two_node_model(scale_12=4.0, scale_21=1.0)


@pytest.fixture
def quadratic2():
    return two_node_model(family=CostFamily.QUADRATIC, shift_12=1.0, shift_21=1.0)
