"""Randomized pairwise gossip averaging (Boyd, Ghosh, Prabhakar, Shah).

At each step a uniform random edge ``{u, v}`` is selected and *both*
endpoints move to their midpoint:

    xi_u, xi_v  <-  (xi_u + xi_v) / 2.

This is the "stronger communication model" of the paper's introduction:
the update matrix is doubly stochastic, so the simple average is
*invariant* (not merely a martingale) and the process converges to the
exact initial average with ``Var(F) = 0``.  The price is coordination —
two nodes must update simultaneously.  EXP-PRICE quantifies what the
paper calls the *price of simplicity* by comparing the spread of ``F``
under the NodeModel/EdgeModel against this zero-variance baseline.

EXP-PRICE samples it with :func:`gossip_to_consensus_batch`, which
steps all replicas at once.  The scalar :class:`PairwiseGossip` is the
test oracle its consensus times are checked against, and the examples
use it.
"""

from __future__ import annotations

from typing import Sequence

import networkx as nx
import numpy as np

from repro.core.potentials import PotentialTracker, discrepancy
from repro.exceptions import ConvergenceError, ParameterError
from repro.graphs.adjacency import Adjacency
from repro.rng import SeedLike, as_generator


class PairwiseGossip:
    """Coordinated pairwise averaging on a connected graph."""

    def __init__(
        self,
        graph: nx.Graph | Adjacency,
        initial_values: Sequence[float],
        seed: SeedLike = None,
    ) -> None:
        self.adjacency = (
            graph if isinstance(graph, Adjacency) else Adjacency.from_graph(graph)
        )
        values = np.asarray(initial_values, dtype=np.float64).copy()
        if values.shape != (self.adjacency.n,):
            raise ParameterError(
                f"initial_values must have shape ({self.adjacency.n},), "
                f"got {values.shape}"
            )
        self.values = values
        self.rng = as_generator(seed)
        self.t = 0
        # Uniform pi: phi tracker measures the uniform potential phi_V / n.
        self._pi = np.full(self.adjacency.n, 1.0 / self.adjacency.n)
        self._tracker = PotentialTracker(self._pi, self.values)
        # Undirected edge endpoints (one orientation suffices).
        mask = self.adjacency.edge_tails < self.adjacency.edge_heads
        self._u = self.adjacency.edge_tails[mask]
        self._v = self.adjacency.edge_heads[mask]

    @property
    def n(self) -> int:
        return self.adjacency.n

    @property
    def average(self) -> float:
        """The invariant simple average."""
        return float(self.values.mean())

    @property
    def phi(self) -> float:
        """Uniform-weight potential ``<xi,xi>_u - <1,xi>_u^2`` (= phi_V / n)."""
        return self._tracker.phi

    @property
    def discrepancy(self) -> float:
        return discrepancy(self.values)

    def step(self) -> None:
        """Average a uniform random adjacent pair."""
        self.t += 1
        index = int(self.rng.integers(len(self._u)))
        u, v = int(self._u[index]), int(self._v[index])
        old_u, old_v = float(self.values[u]), float(self.values[v])
        mid = 0.5 * (old_u + old_v)
        self.values[u] = mid
        self.values[v] = mid
        self._tracker.update(u, old_u, mid, self.values)
        self._tracker.update(v, old_v, mid, self.values)

    def run(self, steps: int) -> None:
        if steps < 0:
            raise ParameterError(f"steps must be non-negative, got {steps}")
        for _ in range(steps):
            self.step()

    def run_to_consensus(
        self, discrepancy_tol: float = 1e-9, max_steps: int = 50_000_000
    ) -> tuple[float, int]:
        """Run until spread <= tol; return ``(consensus_value, steps)``.

        The consensus value equals the initial average exactly (up to
        floating point) — that is the point of this baseline.
        """
        start = self.t
        while self.discrepancy > discrepancy_tol:
            if self.t - start >= max_steps:
                raise ConvergenceError(
                    f"discrepancy {self.discrepancy:.3e} > {discrepancy_tol:.3e} "
                    f"after {max_steps} steps"
                )
            self.run(min(64, max_steps - (self.t - start)))
        return self.average, self.t - start


def gossip_to_consensus_batch(
    adjacency: Adjacency,
    initial: Sequence[float],
    replicas: int,
    seed: SeedLike = None,
    discrepancy_tol: float = 1e-9,
    max_steps: int = 50_000_000,
) -> tuple[np.ndarray, np.ndarray]:
    """``replicas`` independent :meth:`PairwiseGossip.run_to_consensus` runs.

    Returns the per-replica ``(value, steps)`` arrays.  The law is the
    scalar one: the spread is checked before every 64-step chunk, a
    replica stops at the first check within ``discrepancy_tol`` and
    reports its mean, and :class:`ConvergenceError` is raised once a
    replica reaches ``max_steps`` unconverged.  Each chunk draws one
    C-order ``(chunk, replicas)`` block of edge indices for the whole
    batch and discards the columns of stopped replicas, so a replica's
    stream does not depend on when the others stop.
    """
    n = adjacency.n
    start = np.asarray(initial, dtype=np.float64)
    if start.shape != (n,):
        raise ParameterError(
            f"initial_values must have shape ({n},), got {start.shape}"
        )
    if int(replicas) != replicas or replicas < 1:
        raise ParameterError(f"replicas must be a positive integer, got {replicas}")
    rng = as_generator(seed)
    mask = adjacency.edge_tails < adjacency.edge_heads
    tails = adjacency.edge_tails[mask]
    heads = adjacency.edge_heads[mask]

    values = np.tile(start, (replicas, 1))
    flat = values.reshape(-1)
    value = np.empty(replicas, dtype=np.float64)
    steps = np.empty(replicas, dtype=np.int64)
    active = np.arange(replicas)
    t = 0
    while True:
        rows = values[active]
        spread = rows.max(axis=1) - rows.min(axis=1)
        done = ~(spread > discrepancy_tol)
        value[active[done]] = rows[done].mean(axis=1)
        steps[active[done]] = t
        active = active[~done]
        if active.size == 0:
            return value, steps
        if t >= max_steps:
            raise ConvergenceError(
                f"{active.size} of {replicas} replicas above discrepancy "
                f"{discrepancy_tol:.3e} after {max_steps} steps"
            )
        chunk = min(64, max_steps - t)
        edges = rng.integers(len(tails), size=(chunk, replicas))[:, active]
        base = active * n
        us = tails[edges] + base
        vs = heads[edges] + base
        for u, v in zip(us, vs):
            mid = 0.5 * (flat[u] + flat[v])
            flat[u] = mid
            flat[v] = mid
        t += chunk
