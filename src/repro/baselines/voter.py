"""The (pull) voter model.

At each step a uniform random node adopts the opinion of a uniform random
neighbour.  This is the discrete ancestor of the paper's NodeModel
(Definition 2.1 with ``k = 1, alpha = 0``); consensus lands on one of the
*initial* opinions, with P(opinion of node u wins) = ``d_u / 2m`` — the
same degree weighting that shows up as the NodeModel's ``E[F]``.

EXP-PRICE contrasts the averaging process's concentrated ``F`` with the
voter model's two-point (or worse) limit law.  It samples the voter
column on the batch engine, as the NodeModel with ``k = 1, alpha = 0``
(every value stays exactly one of the initial values); the scalar
:class:`VoterModel` here is the test oracle and the examples' version.
"""

from __future__ import annotations

from typing import Sequence

import networkx as nx
import numpy as np

from repro.exceptions import ConvergenceError, ParameterError
from repro.graphs.adjacency import Adjacency
from repro.rng import SeedLike, as_generator


class VoterModel:
    """Asynchronous pull voting with arbitrary hashable opinions.

    Opinions are stored as an integer array; callers map semantic opinions
    to integers.  :meth:`run_to_consensus` returns the winning opinion and
    the consensus time.
    """

    def __init__(
        self,
        graph: nx.Graph | Adjacency,
        opinions: Sequence[int],
        seed: SeedLike = None,
    ) -> None:
        self.adjacency = (
            graph if isinstance(graph, Adjacency) else Adjacency.from_graph(graph)
        )
        opinions = np.asarray(opinions, dtype=np.int64).copy()
        if opinions.shape != (self.adjacency.n,):
            raise ParameterError(
                f"opinions must have shape ({self.adjacency.n},), got {opinions.shape}"
            )
        self.opinions = opinions
        self.rng = as_generator(seed)
        self.t = 0
        # Count of distinct opinions, maintained incrementally.
        self._counts: dict[int, int] = {}
        for opinion in opinions.tolist():
            self._counts[opinion] = self._counts.get(opinion, 0) + 1

    @property
    def n(self) -> int:
        return self.adjacency.n

    @property
    def num_distinct(self) -> int:
        """Number of opinions still alive."""
        return len(self._counts)

    def step(self) -> None:
        """One pull-voting step: uniform node copies a uniform neighbour."""
        self.t += 1
        adj = self.adjacency
        node = int(self.rng.integers(adj.n))
        start = adj.offsets[node]
        degree = int(adj.offsets[node + 1] - start)
        neighbour = int(adj.neighbors[start + int(self.rng.integers(degree))])
        old = int(self.opinions[node])
        new = int(self.opinions[neighbour])
        if old == new:
            return
        self.opinions[node] = new
        self._counts[new] += 1
        self._counts[old] -= 1
        if self._counts[old] == 0:
            del self._counts[old]

    def has_consensus(self) -> bool:
        """Whether all nodes share one opinion."""
        return self.num_distinct == 1

    def run_to_consensus(self, max_steps: int = 50_000_000) -> tuple[int, int]:
        """Run until consensus; return ``(winning_opinion, steps_taken)``."""
        start = self.t
        while not self.has_consensus():
            if self.t - start >= max_steps:
                raise ConvergenceError(
                    f"{self.num_distinct} opinions remain after {max_steps} steps"
                )
            self.step()
        return int(self.opinions[0]), self.t - start


def win_probabilities(graph: nx.Graph | Adjacency) -> np.ndarray:
    """Exact P(node u's initial opinion wins) = ``pi_u = d_u / 2m``.

    Classic duality with coalescing random walks; mirrors the NodeModel's
    ``E[F] = sum_u pi_u xi_u(0)`` (Lemma 4.1) in the discrete world.
    """
    adjacency = graph if isinstance(graph, Adjacency) else Adjacency.from_graph(graph)
    return adjacency.stationary_pi()
