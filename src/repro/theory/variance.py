"""Variance of the convergence value (Theorem 2.2(2), Proposition 5.8).

For a ``d``-regular graph, centered initial values (``Avg(0) = 0``) and
the NodeModel with parameters ``alpha, k`` (equivalently the EdgeModel
with ``k = 1``), Proposition 5.8 sandwiches ``Var(F)`` via the Q-chain's
stationary values:

    core(xi) = (mu_0 - mu_+) sum_u xi_u^2
               + (mu_1 - mu_+) sum_{(u,v) in E^+} xi_u xi_v
    core(xi) - 1/n^5  <=  Var(F)  <=  core(xi) + 1/n^5.

Using ``0 <= sum_{E^+} xi_u xi_v + d ||xi||^2 <= 2 d ||xi||^2`` and
``mu_1 - mu_+ <= 0``, the paper derives the graph-independent envelope

    lower_env = [ (mu_0 - mu_+) - d (mu_1 - mu_+) ] ||xi||^2
                + 2 d (mu_1 - mu_+) ||xi||^2
    upper_env = [ (mu_0 - mu_+) - d (mu_1 - mu_+) ] ||xi||^2,

both ``Theta(||xi||^2 / n^2)`` — Theorem 2.2(2).  We compute the ``mu``
differences from the Lemma 5.7 closed form, which our tests validate
against the numerically solved stationary distribution.  (The paper's
final display substitutes ``ell = 1/(n^2 (3dk + d - 3k))``, which matches
the Lemma 5.7 normalisation only up to constants; we keep the exact form
and note the discrepancy in EXPERIMENTS.md.)

Corollary E.2 gives crude but *any-time* envelopes:

    NodeModel:  Var(M(t))   <= t (d_max K / (2m))^2
    EdgeModel:  Var(Avg(t)) <= t K^2 / n^2

with ``K`` the initial discrepancy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import networkx as nx
import numpy as np

from repro.dual.qchain import mu_closed_form
from repro.exceptions import ParameterError
from repro.graphs.adjacency import Adjacency
from repro.graphs.properties import require_regular

GraphLike = Union[nx.Graph, Adjacency]


def _as_adjacency(graph: GraphLike) -> Adjacency:
    return graph if isinstance(graph, Adjacency) else Adjacency.from_graph(graph)


@dataclass(frozen=True)
class VarianceBounds:
    """Proposition 5.8 output: the core quadratic form and its envelope.

    ``lower``/``upper`` are the graph-aware bounds (core -/+ ``1/n^5``);
    ``lower_envelope``/``upper_envelope`` the graph-independent
    ``Theta(||xi||^2/n^2)`` forms of the Theorem 2.2(2) proof.
    """

    core: float
    lower: float
    upper: float
    lower_envelope: float
    upper_envelope: float
    mu0: float
    mu1: float
    mu_plus: float

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies within ``[lower, upper]``."""
        return self.lower <= value <= self.upper


def mu_differences(n: int, d: int, k: int, alpha: float) -> tuple[float, float]:
    """``(mu_0 - mu_+, mu_1 - mu_+)`` from Lemma 5.7.

    Algebraically these equal ``(1-alpha)(kd + d - 2k) ell`` and
    ``(1-alpha)(1-k) ell`` respectively; we compute them from the ``mu``
    values to stay bit-identical with :func:`mu_closed_form`.
    """
    mu0, mu1, mu_plus = mu_closed_form(n, d, k, alpha)
    return mu0 - mu_plus, mu1 - mu_plus


def edge_cross_term(graph: GraphLike, values: np.ndarray) -> float:
    """``sum_{(u,v) in E^+} xi_u xi_v`` over *directed* edges.

    Equal to ``2 sum_{{u,v} in E} xi_u xi_v``; computed via the directed
    edge arrays so irregular graphs are handled uniformly.
    """
    adjacency = _as_adjacency(graph)
    values = np.asarray(values, dtype=np.float64)
    return float(np.sum(values[adjacency.edge_tails] * values[adjacency.edge_heads]))


def variance_bounds(
    graph: GraphLike,
    initial_values: np.ndarray,
    alpha: float,
    k: int = 1,
    center_tolerance: float = 1e-9,
) -> VarianceBounds:
    """Proposition 5.8's bounds on ``Var(F)`` for a regular graph.

    ``initial_values`` must be centered (``Avg(0) = 0`` within
    ``center_tolerance``) — the proposition's standing assumption.
    """
    adjacency = _as_adjacency(graph)
    d = require_regular(adjacency, context="Proposition 5.8")
    values = np.asarray(initial_values, dtype=np.float64)
    if values.shape != (adjacency.n,):
        raise ParameterError(
            f"initial_values must have shape ({adjacency.n},), got {values.shape}"
        )
    scale = max(1.0, float(np.abs(values).max()))
    if abs(values.mean()) > center_tolerance * scale:
        raise ParameterError(
            "Proposition 5.8 assumes centered initial values (Avg(0) = 0); "
            "apply repro.core.initial.center_simple first"
        )
    n = adjacency.n
    diff0, diff1 = mu_differences(n, d, k, alpha)
    norm_sq = float(np.sum(values * values))
    cross = edge_cross_term(adjacency, values)
    core = diff0 * norm_sq + diff1 * cross
    slack = 1.0 / n**5
    upper_env = (diff0 - d * diff1) * norm_sq
    lower_env = upper_env + 2.0 * d * diff1 * norm_sq
    mu0, mu1, mu_plus = mu_closed_form(n, d, k, alpha)
    return VarianceBounds(
        core=core,
        lower=core - slack,
        upper=core + slack,
        lower_envelope=lower_env,
        upper_envelope=upper_env,
        mu0=mu0,
        mu1=mu1,
        mu_plus=mu_plus,
    )


def variance_envelope(
    n: int, d: int, k: int, alpha: float, norm_sq: float
) -> tuple[float, float]:
    """Graph-independent ``(lower, upper)`` envelope of Theorem 2.2(2).

    Depends only on ``(n, d, k, alpha)`` and ``||xi(0)||_2^2`` — this is
    the statement that the clique and the cycle have asymptotically the
    same ``Var(F)``.
    """
    if norm_sq < 0:
        raise ParameterError(f"norm_sq must be non-negative, got {norm_sq}")
    diff0, diff1 = mu_differences(n, d, k, alpha)
    upper = (diff0 - d * diff1) * norm_sq
    lower = upper + 2.0 * d * diff1 * norm_sq
    return lower, upper


def variance_quadratic_form(mu: np.ndarray, values: np.ndarray) -> float:
    """``sum_{u,v} mu(u,v) xi_u xi_v`` for a full stationary vector ``mu``.

    ``mu`` is indexed flat as ``u * n + v`` (the :class:`QChain` state
    order); this is Lemma 5.5's limit expression for
    ``E[W~(a) W~(b)]`` summed over all walk pairs, i.e. the exact
    asymptotic ``Var(Avg(t))`` before the ``1/n^5`` mixing slack.
    """
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if mu.shape != (n * n,):
        raise ParameterError(f"mu must have shape ({n * n},), got {mu.shape}")
    outer = np.outer(values, values).reshape(-1)
    return float(np.sum(mu * outer))


def variance_time_bound_weighted(
    t: int, d_max: int, m: int, discrepancy: float
) -> float:
    """Corollary E.2(ii): ``Var(M(t)) <= t (d_max K / (2m))^2`` (NodeModel)."""
    if t < 0 or m < 1 or d_max < 1:
        raise ParameterError("need t >= 0, m >= 1, d_max >= 1")
    if discrepancy < 0:
        raise ParameterError("discrepancy must be non-negative")
    return t * (d_max * discrepancy / (2.0 * m)) ** 2


def variance_time_bound_avg(t: int, n: int, discrepancy: float) -> float:
    """Corollary E.2(iii): ``Var(Avg(t)) <= t K^2 / n^2`` (EdgeModel)."""
    if t < 0 or n < 1:
        raise ParameterError("need t >= 0, n >= 1")
    if discrepancy < 0:
        raise ParameterError("discrepancy must be non-negative")
    return t * discrepancy**2 / n**2
