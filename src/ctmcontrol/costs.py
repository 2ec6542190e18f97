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

Each conjugate and each maximizer is written once, in _edge_kernel,
which CostModel builds on first use into one closure per kernel, with
a family-major layout of the edges (entropic first, then quadratic)
bound as locals. A call gathers V[dst] - V[src] + shift into the
layout, edge-major, and runs each family's formula in place on its
contiguous slice: exp on the entropic edges, max(q, 0) and its square
on the quadratic ones, then the scale. The Hamiltonian sums the terms
where they lie: one np.bincount over each edge's source node adds a
node's terms from 0.0, left to right, its entropic edges first and
then its quadratic ones, each in flat order, so a row of a batch has
the bits of that row alone. Only the maximizers go back into the flat
edge order. An entropic slope plus shift above 709 would overflow exp,
so it raises NumericOverflow instead; the check is one np.fmax.reduce,
which skips NaN, so a NaN slope never raises and cannot hide an
overflowing one.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

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


class _Layout(NamedTuple):
    """Edges in family-major order: entropic first, then quadratic, each in flat order.

    Edge k is edge order[k] of the run of flat edges the layout covers,
    and inverse undoes order; both are None when one family covers the
    run. Each kernel ends with a factor a, or a / 2 for quadratic conjugates.
    """

    order: np.ndarray | None
    inverse: np.ndarray | None
    dst: np.ndarray
    src: np.ndarray
    shift: np.ndarray
    n_entropic: int
    conjugate_scale: np.ndarray
    maximizer_scale: np.ndarray


def _family_major(model: CostModel, idx: np.ndarray) -> _Layout:
    """The layout of the flat edges idx."""
    entropic = model.entropic[idx]
    n_entropic = int(np.count_nonzero(entropic))
    order = inverse = None
    if 0 < n_entropic < idx.shape[0]:
        order = np.argsort(~entropic, kind="stable")
        inverse = np.argsort(order)
        idx = idx[order]
    a = model.scale[idx]
    return _Layout(order, inverse, model.edge_dst[idx], model.edge_src[idx], model.shift[idx],
                   n_entropic, np.concatenate([a[:n_entropic], 0.5 * a[n_entropic:]]), a)


def _node_sums(terms: np.ndarray, src: np.ndarray, n_nodes: int) -> np.ndarray:
    """Sums of edge terms (..., edges) over each edge's source node src[k].

    One np.bincount over src + row * n_nodes, rows flattened, adds each
    node's terms from 0.0, left to right, so a row of a batch sums to
    the same bits as that row alone.
    """
    lead = terms.shape[:-1]
    rows = math.prod(lead)
    if lead:
        src = (src + n_nodes * np.arange(rows)[:, None]).reshape(-1)
    return np.bincount(src, terms.reshape(-1), minlength=n_nodes * rows).reshape(lead + (n_nodes,))


def _edge_kernel(layout: _Layout, n_nodes: int, maximizer: bool, node_sums: bool):
    """The edge conjugates, or maximizers, of the layout as one closure of values.

    The closure maps float values V, (n_nodes,) or (..., n_nodes), to
    a exp(q) on the entropic edges and (a / 2) max(q, 0)^2, or
    a max(q, 0), on the quadratic ones, at q = V[dst] - V[src] + shift:
    their node sums (..., n_nodes) if node_sums, else the terms in flat
    edge order, (..., edges). q is edge-major, (edges,) or (edges,
    rows), so each family's slice is contiguous in either shape, and
    rows of V.T gather as fast as V[idx] on 1-D values. The layout's
    arrays are bound here, so a call on 1-D values is one Python frame.
    """
    dst, src, shift, ne, inverse = (layout.dst, layout.src, layout.shift,
                                    layout.n_entropic, layout.inverse)
    scale = layout.maximizer_scale if maximizer else layout.conjugate_scale
    n_edges = dst.shape[0]
    # numpy's functions bound as locals too: the 1-D call is the DP5 stage's inner loop
    fmax, exp, maximum, square = np.fmax.reduce, np.exp, np.maximum, np.square
    bincount = np.bincount

    def kernel(values: np.ndarray) -> np.ndarray:
        batch = values.ndim > 1
        if batch:
            lead = values.shape[:-1]
            values = values.reshape(-1, n_nodes).T
        q = values[dst]
        q -= values[src]
        # a batch's q is (edges, rows), so per-edge arrays broadcast along q.T
        qt = q.T
        qt += shift
        ent = q[:ne]
        if ent.size:
            top = fmax(ent, None)
            if top > _EXP_LIMIT:
                raise NumericOverflow(f"exp({float(top)}) overflows in entropic edge kernel")
            exp(ent, out=ent)
        quad = q[ne:]
        if quad.size:
            maximum(quad, 0.0, out=quad)
            if not maximizer:
                square(quad, out=quad)
        qt *= scale
        if node_sums:
            if batch:
                return _node_sums(q.T, src, n_nodes).reshape(lead + (n_nodes,))
            return bincount(src, q, minlength=n_nodes)
        if inverse is not None:
            q = q[inverse]
        return np.ascontiguousarray(q.T).reshape(lead + (n_edges,)) if batch else q

    return kernel


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

    def node_slice(self, i: int) -> slice:
        return slice(int(self.offsets[i]), int(self.offsets[i + 1]))

    def _node_sum(self, terms: np.ndarray) -> np.ndarray:
        """Sums of flat per-edge terms (..., n_edges) over each node's outgoing edges."""
        return _node_sums(np.asarray(terms), self.edge_src, self.n_nodes)

    # vectorized kernels over flat edge arrays; shapes broadcast over
    # leading axes so a whole trajectory of slopes can be mapped at once

    @functools.cached_property
    def _layout(self) -> _Layout:
        """The family-major layout of every edge, built on first use."""
        return _family_major(self, np.arange(self.n_edges))

    def cost_terms(self, lam_flat: np.ndarray,
                   edges: slice | np.ndarray | None = None) -> np.ndarray:
        """Edge running costs l(lam), with l(0) = 0 for both families."""
        sel = slice(None) if edges is None else edges
        scale, shift, entropic = self.scale[sel], self.shift[sel], self.entropic[sel]
        lam = np.asarray(lam_flat, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.log(np.where(lam > 0.0, lam, 1.0) / scale)
        ent = np.where(lam > 0.0, lam * (logs - 1.0), 0.0) - shift * lam
        quad = np.square(lam) / (2.0 * scale) - shift * lam
        return np.where(entropic, ent, quad)

    def slopes(self, values: np.ndarray) -> np.ndarray:
        """Per-edge slopes V[dst] - V[src]; values may be (..., n_nodes)."""
        vt = np.asarray(values, dtype=float).T
        return (vt[self.edge_dst] - vt[self.edge_src]).T

    @functools.cached_property
    def hamiltonian_vector(self):
        """All node Hamiltonians H(i, (V_j - V_i)_j) at once, from float values V.

        A closure of V, (..., n_nodes), built into the instance on first
        use (see _edge_kernel); callers look it up on the model.
        """
        return _edge_kernel(self._layout, self.n_nodes, maximizer=False, node_sums=True)

    @functools.cached_property
    def intensity_vector(self):
        """Flat per-edge optimal intensities at float values V, as hamiltonian_vector."""
        return _edge_kernel(self._layout, self.n_nodes, maximizer=True, node_sums=False)

    def running_cost_vector(self, lam_flat: np.ndarray) -> np.ndarray:
        """Per-node running costs L(i, lam(i, .)) from flat intensities."""
        return self._node_sum(self.cost_terms(lam_flat))

    def exit_rates(self, lam_flat: np.ndarray) -> np.ndarray:
        """Per-node total jump rates sum_j lam_ij: minus the generator's diagonal."""
        return self._node_sum(lam_flat)

    def generator_apply(self, lam_flat: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Q x for the generator Q of the chain run at flat intensities.

        Q[i, j] = lam_ij on each edge and Q[i, i] = -sum_j lam_ij, so
        (Q x)_i = sum_j lam_ij (x_j - x_i), in O(edges) and exactly zero
        on constants; Q itself is never formed. Q is the Jacobian of
        hamiltonian_vector at values whose optimal intensities are lam,
        and the transition part of a fixed policy's evaluation system.
        """
        return self._node_sum(lam_flat * self.slopes(x))


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


def _node_edge_terms(model: CostModel, i: int, p, maximizer: bool) -> np.ndarray:
    """Conjugates, or maximizers, of node i's outgoing edges at slopes p.

    The kernel runs on node i's star: node i is node 0 with value 0.0
    and its j-th target is node j + 1 with value p_j, so each slope
    reads p_j - 0.0, which is p_j.
    """
    arr = _node_array(model, i, p, "slope vector")
    layout = _family_major(model, np.arange(model.offsets[i], model.offsets[i + 1]))
    local = np.arange(1, arr.shape[0] + 1)
    star = layout._replace(dst=local if layout.order is None else local[layout.order],
                           src=np.zeros_like(local))
    kernel = _edge_kernel(star, arr.shape[0] + 1, maximizer, node_sums=False)
    return kernel(np.concatenate([[0.0], arr]))


def hamiltonian(model: CostModel, i: int, p) -> float:
    """H(i, p) = sum over outgoing edges of the edge conjugates h_ij(p_j)."""
    return float(np.sum(_node_edge_terms(model, i, p, False)))


def optimal_intensities(model: CostModel, i: int, p) -> np.ndarray:
    """The intensities attaining the sup in H(i, p), one per outgoing edge."""
    return _node_edge_terms(model, i, p, True)
