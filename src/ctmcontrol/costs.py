"""Edge running costs and the per-node jump Hamiltonian.

Each directed edge carries a convex running cost l(lam) of its jump
intensity lam >= 0, from one of two families with scale a > 0 and
shift b:

  entropic:   l(lam) = lam * (log(lam / a) - 1) - b * lam,  l(0) = 0
  quadratic:  l(lam) = lam**2 / (2 * a) - b * lam

The node Hamiltonian is the conjugate sup over intensities of
sum_j lam_j * p_j - l_ij(lam_j), which splits per edge:

  entropic:   h(p) = a * exp(p + b),        argmax a * exp(p + b)
  quadratic:  h(p) = a * max(p + b, 0)**2 / 2,  argmax a * max(p + b, 0)

Entropic edges make the Hamiltonian strictly increasing in each slope;
quadratic edges are flat below -b, which is what the strict_monotone
flag records for the model as a whole.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import NegativeIntensity, NumericOverflow
from .graph import Graph

# exp overflows past this; used to fail loudly instead of returning inf
_EXP_LIMIT = 709.0


class CostFamily(enum.Enum):
    ENTROPIC = "entropic"
    QUADRATIC = "quadratic"


@dataclass(frozen=True)
class EdgeCost:
    """Running-cost description of a single edge, evaluated by CostModel."""

    family: CostFamily
    scale: float
    shift: float = 0.0

    def __post_init__(self):
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        if not math.isfinite(self.shift):
            raise ValueError(f"shift must be finite, got {self.shift}")


class CostModel:
    """Graph plus one EdgeCost per edge, with vectorized evaluation.

    Edges are stored flat in canonical order (by source node, then
    target), split per node by ``offsets``: node i's edges occupy
    ``slice(offsets[i], offsets[i+1])`` of the flat arrays. This is the
    ordering used everywhere an intensity or slope vector appears.
    """

    def __init__(self, graph: Graph, edge_costs: Mapping[tuple[int, int], EdgeCost]):
        expected = graph.edges()
        missing = [e for e in expected if e not in edge_costs]
        if missing:
            raise ValueError(f"missing cost for edges {missing[:4]}")
        expected_set = set(expected)
        extra = [e for e in edge_costs if e not in expected_set]
        if extra:
            raise ValueError(f"costs given for edges not in the graph: {extra[:4]}")

        self.graph = graph
        costs = [edge_costs[e] for e in expected]
        self.edge_src = np.array([i for i, _ in expected], dtype=np.intp)
        self.edge_dst = np.array([j for _, j in expected], dtype=np.intp)
        self.scale = np.array([c.scale for c in costs], dtype=float)
        self.shift = np.array([c.shift for c in costs], dtype=float)
        self.entropic = np.array([c.family is CostFamily.ENTROPIC for c in costs], dtype=bool)
        self.offsets = np.searchsorted(self.edge_src, np.arange(graph.n_nodes + 1))
        self.strict_monotone = bool(self.entropic.all())

    @property
    def n_nodes(self) -> int:
        return self.graph.n_nodes

    @property
    def n_edges(self) -> int:
        return len(self.edge_src)

    @functools.cached_property
    def cost_floor(self) -> np.ndarray:
        """Per-node additive lower bound on the running cost.

        For both families min_lam l(lam) = -h(0), so the floor is -H(i, 0).
        Computed on first use, so building a model runs no edge kernel.
        """
        return -self._node_sum(self.conjugate_terms(np.zeros(self.n_edges)))

    def node_slice(self, i: int) -> slice:
        return slice(int(self.offsets[i]), int(self.offsets[i + 1]))

    @classmethod
    def uniform(cls, graph: Graph, cost: EdgeCost) -> "CostModel":
        return cls(graph, {e: cost for e in graph.edges()})

    def _node_sum(self, terms: np.ndarray) -> np.ndarray:
        """Sums of per-edge terms over each node's outgoing edges.

        Maps (..., n_edges) to (..., n_nodes). Every node has an
        outgoing edge (the graph is strongly connected), so no segment
        is empty.
        """
        return np.add.reduceat(terms, self.offsets[:-1], axis=-1)

    # vectorized kernels over flat edge arrays; shapes broadcast over
    # leading axes so a whole trajectory of slopes can be mapped at once,
    # and ``edges`` restricts them to a slice (or an index array) of the
    # flat order

    def _params(self, edges: slice | np.ndarray | None):
        if edges is None:
            return self.scale, self.shift, self.entropic
        return self.scale[edges], self.shift[edges], self.entropic[edges]

    @staticmethod
    def _guard_exponent(q: np.ndarray, entropic: np.ndarray) -> None:
        if ((q > _EXP_LIMIT) & entropic).any():
            top = float(np.max(np.where(entropic, q, -np.inf)))
            raise NumericOverflow(f"exp({top}) overflows in entropic edge kernel")

    def conjugate_terms(self, p_flat: np.ndarray, edges: slice | None = None) -> np.ndarray:
        """Edge conjugates h(p) = sup_{lam >= 0} lam * p - l(lam)."""
        scale, shift, entropic = self._params(edges)
        q = p_flat + shift
        self._guard_exponent(q, entropic)
        ent = scale * np.exp(np.where(entropic, q, 0.0))
        quad = 0.5 * scale * np.square(np.maximum(q, 0.0))
        return np.where(entropic, ent, quad)

    def maximizer_terms(self, p_flat: np.ndarray, edges: slice | None = None) -> np.ndarray:
        """The intensities attaining the conjugate sups."""
        scale, shift, entropic = self._params(edges)
        q = p_flat + shift
        self._guard_exponent(q, entropic)
        ent = scale * np.exp(np.where(entropic, q, 0.0))
        quad = scale * np.maximum(q, 0.0)
        return np.where(entropic, ent, quad)

    def cost_terms(self, lam_flat: np.ndarray,
                   edges: slice | np.ndarray | None = None) -> np.ndarray:
        """Edge running costs l(lam), with l(0) = 0 for both families."""
        scale, shift, entropic = self._params(edges)
        lam = np.asarray(lam_flat, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.log(np.where(lam > 0.0, lam, 1.0) / scale)
        ent = np.where(lam > 0.0, lam * (logs - 1.0), 0.0) - shift * lam
        quad = np.square(lam) / (2.0 * scale) - shift * lam
        return np.where(entropic, ent, quad)

    def slopes(self, values: np.ndarray) -> np.ndarray:
        """Per-edge slopes V[dst] - V[src]; values may be (..., n_nodes)."""
        v = np.asarray(values, dtype=float)
        return v[..., self.edge_dst] - v[..., self.edge_src]

    def hamiltonian_vector(self, values: np.ndarray) -> np.ndarray:
        """All node Hamiltonians H(i, (V_j - V_i)_j) at once."""
        return self._node_sum(self.conjugate_terms(self.slopes(values)))

    def intensity_vector(self, values: np.ndarray) -> np.ndarray:
        """Flat per-edge optimal intensities at the given value vector."""
        return self.maximizer_terms(self.slopes(values))

    def running_cost_vector(self, lam_flat: np.ndarray) -> np.ndarray:
        """Per-node running costs L(i, lam(i, .)) from flat intensities."""
        return self._node_sum(self.cost_terms(lam_flat))

    def generator(self, lam_flat: np.ndarray) -> np.ndarray:
        """The n x n generator Q of the chain run at flat intensities.

        Q[i, j] = lam_ij on each edge and Q[i, i] = -sum_j lam_ij, so
        every row sums to zero. It is the Jacobian of hamiltonian_vector
        at values whose optimal intensities are lam, and the transition
        part of a fixed policy's evaluation system.
        """
        n = self.n_nodes
        q = np.zeros((n, n))
        np.add.at(q, (self.edge_src, self.edge_dst), lam_flat)
        q[np.diag_indices(n)] -= self._node_sum(lam_flat)
        return q


def _node_array(model: CostModel, i: int, p, name: str) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    deg = model.graph.degree(i)
    if arr.shape != (deg,):
        raise ValueError(f"{name} has shape {arr.shape}, node {i} has degree {deg}")
    return arr


def cost(model: CostModel, i: int, lambdas) -> float:
    """Running cost L(i, lam) = sum of edge costs at node i."""
    lam = _node_array(model, i, lambdas, "intensity vector")
    if np.any(lam < 0.0):
        raise NegativeIntensity(f"negative intensity at node {i}: {lam}")
    return float(np.sum(model.cost_terms(lam, model.node_slice(i))))


def hamiltonian(model: CostModel, i: int, p) -> float:
    """H(i, p) = sum over outgoing edges of the edge conjugates h_ij(p_j)."""
    arr = _node_array(model, i, p, "slope vector")
    return float(np.sum(model.conjugate_terms(arr, model.node_slice(i))))


def optimal_intensities(model: CostModel, i: int, p) -> np.ndarray:
    """The intensities attaining the sup in H(i, p), one per outgoing edge."""
    arr = _node_array(model, i, p, "slope vector")
    return model.maximizer_terms(arr, model.node_slice(i))


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    passed: bool | None  # None means not asserted for this model
    witness: dict | None = None


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[PropertyCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.passed is not None)

    def __getitem__(self, name: str) -> PropertyCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def validate_assumptions(model: CostModel) -> ValidationReport:
    """Sampled checks of the structural assumptions the solvers rely on.

    Probes, over random slope and intensity samples: finiteness of the
    costs, midpoint convexity and coordinatewise monotonicity of H, the
    additive lower bound on L, and superlinear growth of L in the
    intensities. Strict monotonicity is asserted when every edge is
    entropic; for a purely quadratic model the check runs and reports
    its failure with a witness; for mixed models it is not asserted.
    Each check draws its samples in blocks of at most 64 rows and stops
    at its first failing block, so memory is a few (64, edges) float
    arrays; its witness is the first failing sample.
    """
    rng = np.random.default_rng(20240817)
    m = model.n_edges
    checks: list[PropertyCheck] = []

    def node_h(p):
        return model._node_sum(model.conjugate_terms(p))

    def record(name: str, samples: int, probe) -> None:
        """Run probe over blocks of fresh samples until a block fails.

        probe(k) draws k samples and returns a (k, ...) mask of bad
        entries and witness(j), the evidence for sample j of the block.
        """
        for start in range(0, samples, 64):
            bad, witness = probe(min(64, samples - start))
            rows = np.flatnonzero(bad.reshape(len(bad), -1).any(axis=1))
            if rows.size:
                checks.append(PropertyCheck(name, False, witness(int(rows[0]))))
                return
        checks.append(PropertyCheck(name, True, None))

    def at_worst(score: np.ndarray, **entries: np.ndarray) -> dict:
        """The node with the highest score, and each entry there."""
        i = int(np.argmax(score))
        return {"node": i, **{key: float(row[i]) for key, row in entries.items()}}

    def finite_cost(k):
        """L is finite at positive intensities."""
        lam = rng.uniform(0.0, 10.0, size=(k, m))
        return ~np.isfinite(model.cost_terms(lam)), lambda j: {"lam": lam[j].tolist()}

    def convexity(k):
        """Each node Hamiltonian is midpoint convex in the slopes."""
        p, q = rng.uniform(-3.0, 3.0, size=(2, k, m))
        hp, hq = node_h(p), node_h(q)
        gap = node_h(0.5 * (p + q)) - 0.5 * (hp + hq)
        return (gap > 1e-10 * (1.0 + np.abs(hp) + np.abs(hq)),
                lambda j: at_worst(gap[j], gap=gap[j]))

    def monotone(k):
        """Coordinatewise monotonicity: p <= p' implies H <= H'."""
        p = rng.uniform(-3.0, 3.0, size=(k, m))
        hp, hq = node_h(p), node_h(p + rng.uniform(0.0, 2.0, size=(k, m)))
        drop = hp - hq
        return (drop > 1e-12 * (1.0 + np.abs(hq)),
                lambda j: at_worst(drop[j], drop=drop[j]))

    def strict_monotone(k):
        """Raising any single slope raises H at its source."""
        rows = np.arange(k)
        p = rng.uniform(-3.0, 3.0, size=(k, m))
        e = rng.integers(m, size=k)
        q = p.copy()
        q[rows, e] += rng.uniform(0.1, 1.0, size=k)
        src = model.edge_src[e]
        return (~(node_h(q)[rows, src] > node_h(p)[rows, src]),
                lambda j: {"edge": (int(src[j]), int(model.edge_dst[e[j]])),
                           "slope": float(p[j, e[j]])})

    def bounded_below(k):
        """The running cost is bounded below by the closed-form floor."""
        floor = model.cost_floor
        vals = model.running_cost_vector(rng.uniform(0.0, 20.0, size=(k, m)))
        return (vals < floor - 1e-12 * (1.0 + np.abs(floor)),
                lambda j: at_worst(floor - vals[j], value=vals[j], floor=floor))

    def superlinear(k):
        """L(c lam) / (c |lam|) grows without bound in c."""
        lam = rng.uniform(0.5, 2.0, size=(k, m))
        top = np.max(lam, axis=1, keepdims=True)
        r = np.stack([model.running_cost_vector(c * lam) / (c * top) for c in (1e2, 1e4, 1e6)])
        return ~((r[1] > r[0]) & (r[2] > r[1])), lambda j: {"ratios": r[:, j, 0].tolist()}

    record("finite_cost", 100, finite_cost)
    record("convexity", 1000, convexity)
    record("monotone", 1000, monotone)
    if model.strict_monotone or not model.entropic.any():
        record("strict_monotone", 1000, strict_monotone)
    else:
        checks.append(PropertyCheck("strict_monotone", None, None))
    record("bounded_below", 1000, bounded_below)
    record("superlinear", 10, superlinear)

    return ValidationReport(tuple(checks))
