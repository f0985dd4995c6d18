"""Initial-value workloads ``xi(0)``.

The paper's results are stated for arbitrary initial vectors, but three
families play special roles:

* *centered* vectors — the analysis assumes w.l.o.g. that the relevant
  average (simple for the EdgeModel, degree-weighted for the NodeModel)
  is zero; :func:`center_simple` / :func:`center_degree_weighted` perform
  the shift;
* *eigenvector-aligned* vectors — ``xi(0) = beta * f_2(P)`` (NodeModel) and
  ``xi(0) = beta * f_2(L)`` (EdgeModel) realise the convergence-time lower
  bounds of Proposition B.2;
* *bounded* families (Rademacher, uniform, indicator) — when all initial
  values are ``o(sqrt(n))`` the variance bound gives ``Var(F) = o(1)``, so
  nodes actually *estimate* the initial average (Section 2).
"""

from __future__ import annotations

from typing import Union

import networkx as nx
import numpy as np

from repro.exceptions import ParameterError
from repro.graphs.adjacency import Adjacency
from repro.graphs.spectral import (
    second_laplacian_eigenpair,
    second_walk_eigenpair,
    stationary_distribution,
)
from repro.rng import SeedLike, as_generator

GraphLike = Union[nx.Graph, Adjacency]


# ----------------------------------------------------------------------
# Plain families
# ----------------------------------------------------------------------
def indicator_values(n: int, node: int = 0, scale: float = 1.0) -> np.ndarray:
    """``scale`` at ``node``, zero elsewhere (a single-opinion seed)."""
    if not 0 <= node < n:
        raise ParameterError(f"node must be in [0, {n}), got {node}")
    values = np.zeros(n)
    values[node] = scale
    return values


def linear_ramp(n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
    """Evenly spaced values from ``low`` to ``high`` (deterministic spread)."""
    return np.linspace(low, high, n)


def uniform_values(n: int, low: float = -1.0, high: float = 1.0, seed: SeedLike = None) -> np.ndarray:
    """I.i.d. uniform values on ``[low, high]``."""
    if high <= low:
        raise ParameterError(f"need high > low, got [{low}, {high}]")
    return as_generator(seed).uniform(low, high, size=n)


def gaussian_values(n: int, mean: float = 0.0, std: float = 1.0, seed: SeedLike = None) -> np.ndarray:
    """I.i.d. Gaussian values."""
    if std < 0:
        raise ParameterError(f"std must be non-negative, got {std}")
    return as_generator(seed).normal(mean, std, size=n)


def rademacher_values(n: int, seed: SeedLike = None) -> np.ndarray:
    """I.i.d. ``+-1`` values — ``||xi||_2^2 = n`` exactly, so
    ``Var(F) = Theta(1/n)`` by Theorem 2.2(2)."""
    return as_generator(seed).choice(np.array([-1.0, 1.0]), size=n)


# ----------------------------------------------------------------------
# Centering (Section 2's w.l.o.g.)
# ----------------------------------------------------------------------
def center_simple(values: np.ndarray) -> np.ndarray:
    """Shift so that ``Avg(0) = (1/n) sum_u xi_u(0) = 0``."""
    values = np.asarray(values, dtype=np.float64)
    return values - values.mean()


def center_degree_weighted(graph: GraphLike, values: np.ndarray) -> np.ndarray:
    """Shift so that ``M(0) = sum_u d_u/(2m) xi_u(0) = 0``.

    This is the centering the NodeModel analysis assumes on irregular
    graphs (Section 2); on regular graphs it coincides with
    :func:`center_simple`.
    """
    values = np.asarray(values, dtype=np.float64)
    pi = stationary_distribution(graph)
    return values - float(np.sum(pi * values))


# ----------------------------------------------------------------------
# Worst cases (Proposition B.2)
# ----------------------------------------------------------------------
def second_eigenvector_aligned(graph: GraphLike, scale: float | None = None) -> np.ndarray:
    """``xi(0) = scale * f_2(P)`` — NodeModel lower-bound initial state.

    Proposition B.2 uses ``scale = n``; that is the default.
    """
    _, f2 = second_walk_eigenpair(graph)
    n = len(f2)
    return (float(n) if scale is None else float(scale)) * f2


def fiedler_aligned(graph: GraphLike, scale: float | None = None) -> np.ndarray:
    """``xi(0) = scale * f_2(L)`` — EdgeModel lower-bound initial state."""
    _, f2 = second_laplacian_eigenpair(graph)
    n = len(f2)
    return (float(n) if scale is None else float(scale)) * f2
