"""Named graph families used by the paper's discussion and our experiments.

Every generator returns a connected :class:`networkx.Graph` with nodes
relabelled to ``0..n-1``.  The families mirror the graphs the paper singles
out: the clique and the cycle (whose ``Var(F)`` the paper proves to be
asymptotically identical), regular graphs in general (Theorem 2.2(2)),
the star (worst-case ``rho`` in [18]), expanders, and irregular families
for the degree-weighted martingale of Lemma 4.1.
"""

from __future__ import annotations

import math

import networkx as nx

from repro.exceptions import GraphError, ParameterError
from repro.rng import SeedLike, as_generator


def _relabel(graph: nx.Graph) -> nx.Graph:
    """Relabel nodes of ``graph`` to ``0..n-1`` preserving adjacency."""
    return nx.convert_node_labels_to_integers(graph, ordering="sorted")


def _require_at_least(n: int, minimum: int, family: str) -> None:
    if n < minimum:
        raise ParameterError(f"{family} graph requires n >= {minimum}, got {n}")


def cycle_graph(n: int) -> nx.Graph:
    """Cycle ``C_n`` — the paper's running example of a poorly mixing graph."""
    _require_at_least(n, 3, "cycle")
    return nx.cycle_graph(n)


def path_graph(n: int) -> nx.Graph:
    """Path ``P_n`` (irregular: endpoints have degree 1)."""
    _require_at_least(n, 2, "path")
    return nx.path_graph(n)


def complete_graph(n: int) -> nx.Graph:
    """Clique ``K_n`` — the paper's running example of a well mixing graph."""
    _require_at_least(n, 2, "complete")
    return nx.complete_graph(n)


def star_graph(n: int) -> nx.Graph:
    """Star on ``n`` nodes (hub + ``n-1`` leaves); maximally irregular."""
    _require_at_least(n, 2, "star")
    return nx.star_graph(n - 1)


def torus_graph(n: int) -> nx.Graph:
    """4-regular 2-D torus on an ``r x r`` grid where ``r = round(sqrt(n))``.

    ``n`` must be a perfect square with ``r >= 3`` so that wrap-around edges
    do not create multi-edges.
    """
    r = int(round(math.sqrt(n)))
    if r * r != n:
        raise ParameterError(f"torus requires a perfect-square n, got {n}")
    if r < 3:
        raise ParameterError(f"torus requires n >= 9, got {n}")
    return _relabel(nx.grid_2d_graph(r, r, periodic=True))


def hypercube_graph(n: int) -> nx.Graph:
    """Hypercube ``Q_log2(n)``; ``n`` must be a power of two, ``n >= 4``."""
    dim = int(round(math.log2(n)))
    if 2**dim != n or dim < 2:
        raise ParameterError(f"hypercube requires n = 2^dim >= 4, got {n}")
    return _relabel(nx.hypercube_graph(dim))


def random_regular_graph(n: int, d: int, seed: SeedLike = None) -> nx.Graph:
    """Connected random ``d``-regular graph (an expander w.h.p. for d >= 3).

    Retries the configuration model until the sample is connected; for
    ``d >= 3`` this succeeds almost immediately.
    """
    if d < 2:
        raise ParameterError(f"random regular graph requires d >= 2, got {d}")
    if n <= d:
        raise ParameterError(f"random regular graph requires n > d, got n={n}, d={d}")
    if (n * d) % 2 != 0:
        raise ParameterError(f"n*d must be even for a d-regular graph, got n={n}, d={d}")
    rng = as_generator(seed)
    for _ in range(100):
        graph = nx.random_regular_graph(d, n, seed=int(rng.integers(2**31)))
        if nx.is_connected(graph):
            return _relabel(graph)
    raise GraphError(
        f"failed to sample a connected {d}-regular graph on {n} nodes in 100 tries"
    )


def erdos_renyi_graph(n: int, p: float | None = None, seed: SeedLike = None) -> nx.Graph:
    """Connected Erdős–Rényi ``G(n, p)``; default ``p`` is ``3 ln n / n``.

    The default is comfortably above the ``ln n / n`` connectivity threshold,
    so rejection sampling for connectivity terminates quickly.
    """
    _require_at_least(n, 2, "erdos_renyi")
    if p is None:
        p = min(1.0, 3.0 * math.log(max(n, 2)) / n)
    if not 0.0 < p <= 1.0:
        raise ParameterError(f"edge probability must be in (0, 1], got {p}")
    rng = as_generator(seed)
    for _ in range(200):
        graph = nx.gnp_random_graph(n, p, seed=int(rng.integers(2**31)))
        if graph.number_of_nodes() and nx.is_connected(graph):
            return _relabel(graph)
    raise GraphError(f"failed to sample a connected G({n}, {p}) in 200 tries")


def barbell_graph(n: int) -> nx.Graph:
    """Barbell: two cliques of size ``n // 2`` joined by an edge (via a path).

    A classic small-conductance graph: ``lambda_2(L)`` is tiny, making both
    models' convergence-time bounds large.  ``n`` must be even and >= 6.
    """
    if n % 2 != 0 or n < 6:
        raise ParameterError(f"barbell requires even n >= 6, got {n}")
    return _relabel(nx.barbell_graph(n // 2, 0))


def lollipop_graph(n: int) -> nx.Graph:
    """Lollipop: clique of size ``ceil(n/2)`` with a path of the rest."""
    _require_at_least(n, 5, "lollipop")
    clique = (n + 1) // 2
    return _relabel(nx.lollipop_graph(clique, n - clique))


def binary_tree_graph(n: int) -> nx.Graph:
    """Balanced binary tree truncated to ``n`` nodes (irregular, diameter ~log n)."""
    _require_at_least(n, 3, "binary_tree")
    height = max(1, math.ceil(math.log2(n + 1)) - 1)
    tree = nx.balanced_tree(2, height)
    nodes = sorted(tree.nodes())[:n]
    return _relabel(tree.subgraph(nodes).copy())


def petersen_graph(n: int = 10) -> nx.Graph:
    """The Petersen graph (3-regular, 10 nodes, girth 5) — a Q-chain test case."""
    if n != 10:
        raise ParameterError("the Petersen graph has exactly 10 nodes")
    return _relabel(nx.petersen_graph())


def random_geometric_connected(
    n: int, radius: float | None = None, seed: SeedLike = None
) -> nx.Graph:
    """Connected random geometric graph in the unit square (sensor networks).

    The default radius ``sqrt(3 ln n / (pi n))`` sits above the connectivity
    threshold.  Used by the sensor-network example, mirroring the gossip
    literature's standard testbed (Boyd et al. [14]).
    """
    _require_at_least(n, 2, "random_geometric")
    if radius is None:
        radius = math.sqrt(3.0 * math.log(max(n, 2)) / (math.pi * n))
    if radius <= 0:
        raise ParameterError(f"radius must be positive, got {radius}")
    rng = as_generator(seed)
    for _ in range(200):
        graph = nx.random_geometric_graph(n, radius, seed=int(rng.integers(2**31)))
        if nx.is_connected(graph):
            return _relabel(graph)
    raise GraphError(
        f"failed to sample a connected geometric graph (n={n}, r={radius}) in 200 tries"
    )
