"""Structural graph predicates and the distance classes of Definition 5.6.

The concentration analysis (Section 5.3) partitions the state space
``V x V`` of the two-walk Q-chain by graph distance:

* ``S_0`` — both walks on the same node,
* ``S_1`` — walks on adjacent nodes,
* ``S_+`` — walks at distance two or more.

Lemma 5.7 proves the Q-chain's stationary distribution is constant on each
class.  :func:`distance_classes` computes the partition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Union

import networkx as nx
import numpy as np

from repro.exceptions import NotConnectedError, NotRegularError
from repro.graphs.adjacency import Adjacency

GraphLike = Union[nx.Graph, Adjacency]


def _as_networkx(graph: GraphLike) -> nx.Graph:
    if isinstance(graph, Adjacency):
        return graph.to_networkx()
    return nx.convert_node_labels_to_integers(graph, ordering="sorted")


def degree_vector(graph: GraphLike) -> np.ndarray:
    """Vector of node degrees indexed by node ``0..n-1``."""
    if isinstance(graph, Adjacency):
        return graph.degrees.copy()
    g = _as_networkx(graph)
    return np.array([g.degree(u) for u in range(g.number_of_nodes())], dtype=np.int64)


def is_regular(graph: GraphLike) -> bool:
    """Whether every node has the same degree."""
    degrees = degree_vector(graph)
    return bool(degrees.min() == degrees.max())


def is_bipartite(graph: GraphLike) -> bool:
    """Whether the graph is two-colourable (no odd cycle).

    Bipartiteness is the structural obstruction the synchronous-coupling
    analyses hit at ``alpha = 0`` (a parity invariant on the product
    chain), which is why the dual samplers refuse ``alpha == 0`` on
    bipartite graphs — see
    :func:`repro.sim.montecarlo.sample_meeting_times`.
    """
    return bool(nx.is_bipartite(_as_networkx(graph)))


def require_connected(graph: GraphLike) -> None:
    """Raise :class:`NotConnectedError` unless ``graph`` is connected."""
    g = _as_networkx(graph)
    if g.number_of_nodes() == 0 or not nx.is_connected(g):
        raise NotConnectedError("graph must be connected")


def require_regular(graph: GraphLike, context: str = "") -> int:
    """Return the common degree, raising :class:`NotRegularError` otherwise.

    ``context`` names the result that needs regularity (e.g. "Lemma 5.7")
    so error messages point back at the paper.
    """
    degrees = degree_vector(graph)
    if degrees.min() != degrees.max():
        suffix = f" ({context})" if context else ""
        raise NotRegularError(f"a regular graph is required{suffix}")
    return int(degrees[0])


@dataclass(frozen=True)
class DistanceClasses:
    """Partition of ``V x V`` into ``S_0``, ``S_1`` and ``S_+`` (Def. 5.6).

    ``s0``, ``s1`` and ``s_plus`` are arrays of ``(u, v)`` pairs; counts are
    exposed for the normalisation identity Eq. (56):
    ``1 = n mu_0 + 2|E| mu_1 + (n^2 - 2|E| - n) mu_+``.
    """

    s0: np.ndarray
    s1: np.ndarray
    s_plus: np.ndarray

    @property
    def counts(self) -> tuple[int, int, int]:
        """``(|S_0|, |S_1|, |S_+|)``; sums to ``n^2``."""
        return (len(self.s0), len(self.s1), len(self.s_plus))

    def class_of(self) -> np.ndarray:
        """Dense ``n x n`` matrix with entry 0, 1 or 2 for the class of (u, v)."""
        n = int(max(self.s0[:, 0].max(), self.s1.max() if len(self.s1) else 0) + 1)
        matrix = np.full((n, n), 2, dtype=np.int8)
        matrix[self.s0[:, 0], self.s0[:, 1]] = 0
        if len(self.s1):
            matrix[self.s1[:, 0], self.s1[:, 1]] = 1
        return matrix


def distance_classes(graph: GraphLike) -> DistanceClasses:
    """Compute the Definition 5.6 partition of ``V x V``.

    ``S_1`` is exactly the set of directed edges ``E^+`` of Proposition 5.8;
    ``S_+`` collects every ordered pair at distance >= 2.
    """
    g = _as_networkx(graph)
    n = g.number_of_nodes()
    s0 = np.array([(u, u) for u in range(n)], dtype=np.int64)
    s1 = np.array(
        [(u, v) for u, v in g.edges()] + [(v, u) for u, v in g.edges()],
        dtype=np.int64,
    ).reshape(-1, 2)
    adjacent = {(int(u), int(v)) for u, v in s1}
    s_plus = np.array(
        [
            (u, v)
            for u, v in itertools.product(range(n), repeat=2)
            if u != v and (u, v) not in adjacent
        ],
        dtype=np.int64,
    ).reshape(-1, 2)
    return DistanceClasses(s0=s0, s1=s1, s_plus=s_plus)
