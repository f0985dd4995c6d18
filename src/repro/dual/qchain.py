"""The two-walk Q-chain (Section 5.3) and Lemma 5.7's stationary law.

Two of the correlated random walks of Section 5.2 form a Markov chain on
``V x V`` with transition matrix ``Q``.  On a ``d``-regular graph the
paper computes ``Q``'s entries case by case (Eqs. 14–21) and proves
(Lemma 5.7) that its unique stationary distribution takes only *three*
values, indexed by the graph distance between the two walks:

    mu_0  on S_0 = {(u, u)}                 mu_0 = 2 k (d - 1) * ell
    mu_1  on S_1 = {(u, v) : {u,v} in E}    mu_1 = (d - 1) * gamma * ell
    mu_+  on S_+ = {dis(u, v) >= 2}         mu_+ = (d gamma - 2 alpha k) * ell

with ``gamma = k (1 + alpha) - (1 - alpha)`` and
``ell = 1 / (n (n (d gamma - 2 alpha k) + 2 (1 - alpha) (d - k)))``.

This module builds ``Q`` two independent ways — from the paper's case
formulas and by exact enumeration of the model's joint one-step law — and
solves for the stationary distribution numerically, so the closed form can
be validated to machine precision (it is; see ``tests/test_qchain.py``).
Note the chain is *not* reversible for ``k > 1`` (the paper's example:
``S_0 -> S_+`` transitions exist but not their reverses), so detailed
balance is useless here and the numeric solver works with ``mu Q = mu``
directly.
"""

from __future__ import annotations

import itertools
from typing import Union

import networkx as nx
import numpy as np

from repro.exceptions import ParameterError
from repro.graphs.adjacency import Adjacency
from repro.graphs.properties import require_regular

GraphLike = Union[nx.Graph, Adjacency]


def mu_closed_form(n: int, d: int, k: int, alpha: float) -> tuple[float, float, float]:
    """Lemma 5.7's ``(mu_0, mu_1, mu_+)`` for a ``d``-regular graph.

    The normalisation constant is the Lemma 5.7 form of ``ell``; it
    satisfies Eq. (56), ``n mu_0 + n d mu_1 + n (n - d - 1) mu_+ = 1``,
    exactly (verified symbolically in the tests).
    """
    if n < 2 or d < 1 or not 1 <= k <= d:
        raise ParameterError(f"invalid (n, d, k) = ({n}, {d}, {k})")
    if not 0.0 <= alpha < 1.0:
        raise ParameterError(f"alpha must be in [0, 1), got {alpha}")
    gamma = k * (1.0 + alpha) - (1.0 - alpha)
    ell = 1.0 / (n * (n * (d * gamma - 2.0 * alpha * k) + 2.0 * (1.0 - alpha) * (d - k)))
    mu0 = 2.0 * k * (d - 1.0) * ell
    mu1 = (d - 1.0) * gamma * ell
    mu_plus = (d * gamma - 2.0 * alpha * k) * ell
    return mu0, mu1, mu_plus


class QChain:
    """Transition structure of two correlated walks on a regular graph.

    States are ordered pairs ``(x, y)`` flattened as ``x * n + y``.
    """

    def __init__(self, graph: GraphLike, alpha: float, k: int = 1) -> None:
        self.adjacency = (
            graph if isinstance(graph, Adjacency) else Adjacency.from_graph(graph)
        )
        self.d = require_regular(self.adjacency, context="Q-chain, Section 5.3")
        if not 0.0 <= alpha < 1.0:
            raise ParameterError(f"alpha must be in [0, 1), got {alpha}")
        if int(k) != k or not 1 <= k <= self.d:
            raise ParameterError(f"k must be in [1, {self.d}], got {k}")
        self.alpha = float(alpha)
        self.k = int(k)

    @property
    def n(self) -> int:
        return self.adjacency.n

    def state_index(self, x: int, y: int) -> int:
        """Flat index of state ``(x, y)``."""
        return x * self.n + y

    # ------------------------------------------------------------------
    # Construction from the paper's case formulas (Eqs. 14-21)
    # ------------------------------------------------------------------
    def transition_matrix(self) -> np.ndarray:
        """``Q`` from the closed-form cases of Section 5.3.

        Uses ``pi_x = 1/n`` (uniform node selection on a regular graph).
        """
        n, d, k, alpha = self.n, self.d, self.k, self.alpha
        size = n * n
        q = np.zeros((size, size))
        pi = 1.0 / n
        adj = self.adjacency

        for x in range(n):
            neighbours = adj.neighbors_of(x)
            # Case 1: both walks at x.
            src = self.state_index(x, x)
            # Eq. (18): self loop.
            q[src, src] += alpha**2 * pi + (1.0 - pi)
            for u in neighbours:
                # Eq. (15): both move to the same neighbour u.
                q[src, self.state_index(u, u)] += (1.0 - alpha) ** 2 * pi / (k * d)
                # Eqs. (16)-(17): exactly one walk moves.
                q[src, self.state_index(x, u)] += alpha * (1.0 - alpha) * pi / d
                q[src, self.state_index(u, x)] += alpha * (1.0 - alpha) * pi / d
            if k > 1:
                # Eq. (14): both move, to distinct neighbours u != v.
                weight = (1.0 - alpha) ** 2 * pi * (k - 1.0) / (k * d * (d - 1.0))
                for u in neighbours:
                    for v in neighbours:
                        if u != v:
                            q[src, self.state_index(u, v)] += weight

            # Case 2: walks at distinct nodes x != y.
            for y in range(n):
                if y == x:
                    continue
                src = self.state_index(x, y)
                # Eq. (21): self loop.
                q[src, src] += (1.0 - 2.0 * pi) + 2.0 * pi * alpha
                # Eq. (20): first walk moves off x.
                for u in neighbours:
                    q[src, self.state_index(u, y)] += (1.0 - alpha) * pi / d
                # Eq. (19): second walk moves off y.
                for v in adj.neighbors_of(y):
                    q[src, self.state_index(x, v)] += (1.0 - alpha) * pi / d
        return q

    # ------------------------------------------------------------------
    # Construction by brute-force enumeration of the one-step law
    # ------------------------------------------------------------------
    def transition_matrix_enumerated(self) -> np.ndarray:
        """``Q`` by enumerating every selection ``(w, S)`` and walk outcome.

        Independent of the paper's case analysis; exponential in ``k`` via
        ``C(d, k)`` subsets, so intended for the small validation graphs.
        """
        n, d, k, alpha = self.n, self.d, self.k, self.alpha
        size = n * n
        q = np.zeros((size, size))
        adj = self.adjacency
        subsets_cache = {
            w: list(itertools.combinations(adj.neighbors_of(w).tolist(), k))
            for w in range(n)
        }
        node_prob = 1.0 / n

        for x in range(n):
            for y in range(n):
                src = self.state_index(x, y)
                for w in range(n):
                    subsets = subsets_cache[w]
                    subset_prob = node_prob / len(subsets)
                    if x != w and y != w:
                        q[src, src] += node_prob
                        continue
                    for subset in subsets:
                        move_prob = (1.0 - alpha) / k
                        # Outcomes for walk 1.
                        outcomes_x = (
                            [(x, alpha)] + [(v, move_prob) for v in subset]
                            if x == w
                            else [(x, 1.0)]
                        )
                        outcomes_y = (
                            [(y, alpha)] + [(v, move_prob) for v in subset]
                            if y == w
                            else [(y, 1.0)]
                        )
                        for u, p_u in outcomes_x:
                            for v, p_v in outcomes_y:
                                q[src, self.state_index(u, v)] += (
                                    subset_prob * p_u * p_v
                                )
        return q

    # ------------------------------------------------------------------
    # Stationary distributions
    # ------------------------------------------------------------------
    def stationary_numeric(self) -> np.ndarray:
        """Solve ``mu Q = mu, sum(mu) = 1`` numerically (ground truth)."""
        return stationary_distribution_numeric(self.transition_matrix())

    def stationary_closed_form(self) -> np.ndarray:
        """Lemma 5.7's stationary vector expanded over all ``n^2`` states."""
        mu0, mu1, mu_plus = mu_closed_form(self.n, self.d, self.k, self.alpha)
        graph = self.adjacency.to_networkx()
        mu = np.full(self.n * self.n, mu_plus)
        for x in range(self.n):
            mu[self.state_index(x, x)] = mu0
        for x, y in graph.edges():
            mu[self.state_index(x, y)] = mu1
            mu[self.state_index(y, x)] = mu1
        return mu

    def is_reversible(self, atol: float = 1e-12) -> bool:
        """Whether detailed balance ``mu_i Q_ij = mu_j Q_ji`` holds.

        The paper notes the chain is not reversible for ``k > 1``; for
        ``k = 1`` on vertex-transitive graphs it can be.
        """
        q = self.transition_matrix()
        mu = stationary_distribution_numeric(q)
        flow = mu[:, None] * q
        return bool(np.allclose(flow, flow.T, atol=atol))


def stationary_distribution_numeric(q: np.ndarray, atol: float = 1e-10) -> np.ndarray:
    """Stationary distribution of a row-stochastic matrix ``q``.

    Solves the linear system ``mu (Q - I) = 0`` with the normalisation
    ``sum(mu) = 1`` appended, which is robust even for non-reversible
    chains.  Raises if ``q`` is not row-stochastic.
    """
    size = q.shape[0]
    if q.shape != (size, size):
        raise ParameterError(f"q must be square, got {q.shape}")
    if not np.allclose(q.sum(axis=1), 1.0, atol=atol) or np.any(q < -atol):
        raise ParameterError("q is not row-stochastic")
    # (Q^T - I) mu^T = 0 with sum constraint: overdetermined least squares.
    a = np.vstack([q.T - np.eye(size), np.ones((1, size))])
    b = np.zeros(size + 1)
    b[-1] = 1.0
    mu, *_ = np.linalg.lstsq(a, b, rcond=None)
    if np.any(mu < -1e-8):
        raise ParameterError("numeric stationary distribution has negative mass")
    mu = np.clip(mu, 0.0, None)
    return mu / mu.sum()
