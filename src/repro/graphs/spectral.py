"""Spectral toolkit: walk matrices, Laplacian, second eigenpairs.

Section 4 of the paper works with the *lazy* random-walk transition matrix
``P`` (``p(i,i) = 1/2``, ``p(i,j) = 1/(2 d_i)`` for edges ``(i,j)``), its
second-largest eigenvalue ``lambda_2(P)`` and eigenvector ``f_2(P)``, the
graph Laplacian ``L = D - A`` with second-smallest eigenvalue
``lambda_2(L)``, and the stationary distribution ``pi_i = d_i / 2m``.

``P`` is not symmetric for irregular graphs, but it is self-adjoint with
respect to the ``pi``-weighted inner product (Eq. 2).  We therefore compute
its spectrum via the similar symmetric matrix
``S = D^{1/2} P D^{-1/2}``, which is numerically robust and guarantees real
eigenvalues; eigenvectors are mapped back and normalised to
``<f, f>_pi = 1`` as the paper's proofs require (Appendix B).
"""

from __future__ import annotations

from typing import Tuple, Union

import networkx as nx
import numpy as np

from repro.graphs.adjacency import Adjacency

GraphLike = Union[nx.Graph, Adjacency]


def _as_networkx(graph: GraphLike) -> nx.Graph:
    if isinstance(graph, Adjacency):
        return graph.to_networkx()
    return nx.convert_node_labels_to_integers(graph, ordering="sorted")


def adjacency_matrix(graph: GraphLike) -> np.ndarray:
    """Dense adjacency matrix ``A`` with nodes ordered ``0..n-1``."""
    g = _as_networkx(graph)
    return nx.to_numpy_array(g, nodelist=sorted(g.nodes()), dtype=float)


def laplacian_matrix(graph: GraphLike) -> np.ndarray:
    """Graph Laplacian ``L = D - A`` (symmetric positive semi-definite)."""
    a = adjacency_matrix(graph)
    return np.diag(a.sum(axis=1)) - a


def simple_walk_matrix(graph: GraphLike) -> np.ndarray:
    """Non-lazy walk matrix with ``p(i,j) = 1/d_i`` for each edge ``(i,j)``."""
    a = adjacency_matrix(graph)
    degrees = a.sum(axis=1)
    if np.any(degrees == 0):
        raise ValueError("graph has an isolated node; walk matrix undefined")
    return a / degrees[:, None]


def lazy_walk_matrix(graph: GraphLike) -> np.ndarray:
    """Lazy walk matrix ``P`` of Section 4: ``P = (I + P_simple) / 2``.

    Its eigenvalues lie in ``[0, 1]``, which the paper's Appendix B proofs
    rely on (``1 >= lambda_1 > lambda_2 >= ... >= lambda_n > 0`` for
    connected graphs, up to the boundary case ``lambda_n = 0``).
    """
    n = adjacency_matrix(graph).shape[0]
    return 0.5 * (np.eye(n) + simple_walk_matrix(graph))


def stationary_distribution(graph: GraphLike) -> np.ndarray:
    """Stationary distribution ``pi_i = d_i / 2m`` of the (lazy) walk."""
    a = adjacency_matrix(graph)
    degrees = a.sum(axis=1)
    return degrees / degrees.sum()


def _pi_symmetrised_spectrum(p: np.ndarray, pi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of ``P`` via the similar symmetric matrix.

    Returns eigenvalues in descending order and eigenvectors (columns)
    normalised so that ``<f_i, f_j>_pi = delta_ij``.
    """
    sqrt_pi = np.sqrt(pi)
    symmetric = (sqrt_pi[:, None] * p) / sqrt_pi[None, :]
    # Enforce exact symmetry to shield eigh from rounding noise.
    symmetric = 0.5 * (symmetric + symmetric.T)
    eigenvalues, vectors = np.linalg.eigh(symmetric)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = eigenvalues[order]
    vectors = vectors[:, order]
    # Map back: f = D_pi^{-1/2} v ; then <f, f>_pi = v.v = 1 already.
    f = vectors / sqrt_pi[:, None]
    return eigenvalues, f


def walk_spectrum(graph: GraphLike, lazy: bool = True) -> Tuple[np.ndarray, np.ndarray]:
    """Full spectrum of the (lazy) walk matrix, ``pi``-orthonormal vectors.

    Returns ``(eigenvalues, F)`` with eigenvalues descending and column
    ``F[:, i]`` the eigenvector of ``eigenvalues[i]`` normalised to
    ``<f, f>_pi = 1``.
    """
    p = lazy_walk_matrix(graph) if lazy else simple_walk_matrix(graph)
    pi = stationary_distribution(graph)
    return _pi_symmetrised_spectrum(p, pi)


def second_walk_eigenpair(graph: GraphLike, lazy: bool = True) -> Tuple[float, np.ndarray]:
    """``(lambda_2(P), f_2(P))`` of the (lazy) walk matrix.

    ``f_2`` satisfies ``<f_2, f_2>_pi = 1`` and ``<1, f_2>_pi = 0``; it is
    the worst-case initial state of Proposition B.2.
    """
    eigenvalues, vectors = walk_spectrum(graph, lazy=lazy)
    return float(eigenvalues[1]), vectors[:, 1]


def laplacian_spectrum(graph: GraphLike) -> Tuple[np.ndarray, np.ndarray]:
    """Laplacian eigenvalues ascending and orthonormal eigenvectors."""
    eigenvalues, vectors = np.linalg.eigh(laplacian_matrix(graph))
    return eigenvalues, vectors


def second_laplacian_eigenpair(graph: GraphLike) -> Tuple[float, np.ndarray]:
    """``(lambda_2(L), f_2(L))``: algebraic connectivity and Fiedler vector.

    ``lambda_2(L) > 0`` iff the graph is connected; it drives the
    EdgeModel's convergence-time bound (Theorem 2.4(1)), and ``f_2(L)`` is
    the matching worst-case initial state (Proposition B.2).
    """
    eigenvalues, vectors = laplacian_spectrum(graph)
    return float(eigenvalues[1]), vectors[:, 1]
