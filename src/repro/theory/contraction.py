"""One-step potential contraction factors.

Proposition B.1 (NodeModel, lazy-walk matrix ``P``):

    E[phi(xi(t+1)) | xi(t)] <=
        (1 - (1-alpha)(1-lambda_2) [2 alpha + (1-alpha)(1+lambda_2)(1 - 1/k)] / n)
        * phi(xi(t)).

Proposition D.1(ii) (EdgeModel, Laplacian ``L``):

    E[phi_V(xi(t+1)) | xi(t)] <= (1 - alpha (1-alpha) lambda_2(L) / m)
        * phi_V(xi(t)).

Both factors are upper bounds on the expected one-step ratio, for every
state.  :func:`exact_one_step_phi` computes the left-hand side itself
exactly: one step draws one of finitely many selections, so
``E[phi(xi(t+1)) | xi(t)]`` is a finite average.  EXP-PB1 checks the
bounds against that exact value.  The bounds are not attained: on
``xi = f_2`` the exact factor sits strictly below them (for example
0.999261 against 0.999645 on the 24-cycle with ``k = 1``).
"""

from __future__ import annotations

import itertools
from typing import Union

import networkx as nx
import numpy as np

from repro.exceptions import ParameterError
from repro.graphs.adjacency import Adjacency

GraphLike = Union[nx.Graph, Adjacency]


def node_model_contraction_factor(
    n: int, lambda2: float, alpha: float, k: int
) -> float:
    """Proposition B.1's per-step factor for the NodeModel.

    ``lambda2`` is the second eigenvalue of the *lazy* walk matrix ``P``
    (in ``[0, 1)`` for connected graphs).
    """
    if n < 2:
        raise ParameterError(f"n must be >= 2, got {n}")
    if not 0.0 <= lambda2 < 1.0:
        raise ParameterError(f"lambda2 must be in [0, 1), got {lambda2}")
    if not 0.0 <= alpha < 1.0:
        raise ParameterError(f"alpha must be in [0, 1), got {alpha}")
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    bracket = 2.0 * alpha + (1.0 - alpha) * (1.0 + lambda2) * (1.0 - 1.0 / k)
    return 1.0 - (1.0 - alpha) * (1.0 - lambda2) * bracket / n


def node_model_contraction_rate(n: int, lambda2: float, alpha: float, k: int) -> float:
    """Per-step decay rate ``1 - factor`` (convenient for ``T ~ log / rate``)."""
    return 1.0 - node_model_contraction_factor(n, lambda2, alpha, k)


def edge_model_contraction_factor(m: int, lambda2_l: float, alpha: float) -> float:
    """Proposition D.1(ii)'s per-step factor for the EdgeModel.

    ``lambda2_l`` is the algebraic connectivity ``lambda_2(L)``.
    """
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    if lambda2_l <= 0:
        raise ParameterError(f"lambda2(L) must be positive, got {lambda2_l}")
    if not 0.0 <= alpha < 1.0:
        raise ParameterError(f"alpha must be in [0, 1), got {alpha}")
    return 1.0 - alpha * (1.0 - alpha) * lambda2_l / m


def exact_one_step_phi(
    graph: GraphLike, values: np.ndarray, alpha: float, k: int = 1,
    model: str = "node",
) -> float:
    """Exact ``E[phi(xi') | xi = values]`` after one step of ``model``.

    ``phi`` is the potential the processes track: Eq. (3) with the
    stationary weights ``pi_u = d_u / 2m`` (on regular graphs this is
    ``phi_V / n``, the potential of Proposition D.1(ii)).  The step is
    an average over every selection of the one-step law:

    * ``"node"``: node ``u`` with probability ``1/n``, then each
      ``k``-subset ``S`` of its neighbours with probability
      ``1 / C(d_u, k)`` — ``sum_u C(d_u, k)`` outcomes;
    * ``"edge"``: each of the ``2m`` directed edges ``(u, v)`` with
      probability ``1 / 2m`` (``k`` is ignored) — ``2m`` outcomes.

    A selection changes only ``xi_u``, to ``x = alpha xi_u + (1-alpha)
    mean(xi_S)``; with ``d = x - xi_u`` and ``s1 = <1, xi>_pi`` the new
    potential is ``phi + pi_u d (x + xi_u - 2 s1 - pi_u d)``, an O(1)
    update per outcome.
    """
    adjacency = graph if isinstance(graph, Adjacency) else Adjacency.from_graph(graph)
    if not 0.0 <= alpha < 1.0:
        raise ParameterError(f"alpha must be in [0, 1), got {alpha}")
    n = adjacency.n
    xi = np.asarray(values, dtype=np.float64)
    if xi.shape != (n,):
        raise ParameterError(f"values must have shape ({n},), got {xi.shape}")
    if model == "node":
        if not 1 <= k <= adjacency.d_min:
            raise ParameterError(
                f"k must be in [1, d_min = {adjacency.d_min}], got {k}"
            )
        outcomes = [
            (u, subset)
            for u in range(n)
            for subset in itertools.combinations(adjacency.neighbors_of(u), k)
        ]
        node = np.array([u for u, _ in outcomes])
        mean = xi[np.array([subset for _, subset in outcomes])].mean(axis=1)
        prob = 1.0 / (n * np.bincount(node)[node])
    elif model == "edge":
        node = adjacency.edge_tails
        mean = xi[adjacency.edge_heads]
        prob = np.full(len(node), 1.0 / adjacency.num_directed_edges)
    else:
        raise ParameterError(f"model must be 'node' or 'edge', got {model!r}")
    pi = adjacency.stationary_pi()
    s1 = float(pi @ xi)
    phi = max(float(pi @ (xi * xi)) - s1 * s1, 0.0)
    old = xi[node]
    new = alpha * old + (1.0 - alpha) * mean
    weight = pi[node]
    delta = new - old
    after = phi + weight * delta * (new + old - 2.0 * s1 - weight * delta)
    return float(prob @ np.maximum(after, 0.0))
