"""The Diffusion Process (Section 5.1).

``n`` commodities start with unit load on their home nodes (load matrix
``Q(0) = I``); each step a node ``u`` and a ``k``-sample ``S`` of its
neighbours are selected and, *for every commodity*, a ``(1 - alpha)``
fraction of the load at ``u`` is moved in equal parts onto ``S``:

    q(t) = B(t) q(t-1),        W(t) = c q(t) = c R(t) q(0),

with ``B(t)`` from Eq. (4) and cost vector ``c = xi(0)^T``.  Proposition
5.1 states that ``W(T)`` run on the *reversed* selection sequence has the
same distribution as ``xi(T)`` — and Lemma 5.2 makes this an exact per-
sequence identity, which :mod:`repro.dual.duality` verifies to machine
precision.

This class is a thin scalar facade over
:class:`repro.engine.dual.BatchDiffusion` — a single-replica batch —
so the diffusion runs through the same vectorized pipeline (the shared
:class:`~repro.engine.backend.SamplingBackend` over the CSR arrays and
content hash of a pre-built :class:`~repro.graphs.adjacency.Adjacency`)
as everything else, and ``B``-replica dual runs are the same code with
``replicas > 1``.
"""

from __future__ import annotations

from typing import Sequence

import networkx as nx
import numpy as np

from repro.core.schedule import (
    SelectionReplayMixin,
    SelectionStep,
    draw_node_selection,
)
from repro.engine.dual import BatchDiffusion
from repro.graphs.adjacency import Adjacency
from repro.rng import SeedLike


class DiffusionProcess(SelectionReplayMixin):
    """Multi-commodity load diffusion dual to the NodeModel.

    Parameters
    ----------
    graph:
        Connected undirected graph (``networkx.Graph`` or pre-frozen
        :class:`Adjacency`, reused as is).
    cost:
        Cost row vector ``c`` (Proposition 5.1 uses ``c = xi(0)^T``).
    alpha, k:
        Model parameters, matching the Averaging Process being dualised.
    loads:
        Initial load matrix of shape ``(n, r)`` — column ``j`` is commodity
        ``j``'s load vector ``q^(j)(0)``.  Defaults to the identity
        (one unit of commodity ``u`` on node ``u``).
    seed:
        Randomness for standalone (non-replay) stepping.
    """

    def __init__(
        self,
        graph: nx.Graph | Adjacency,
        cost: Sequence[float],
        alpha: float,
        k: int = 1,
        loads: np.ndarray | None = None,
        seed: SeedLike = None,
    ) -> None:
        if loads is not None:
            loads = np.asarray(loads, dtype=np.float64)
        self._batch = BatchDiffusion(
            graph, cost=cost, alpha=alpha, k=k, replicas=1, loads=loads,
            seed=seed,
        )
        self.rng = self._batch.rng

    # ------------------------------------------------------------------
    # Shape and state
    # ------------------------------------------------------------------
    @property
    def adjacency(self) -> Adjacency:
        return self._batch.adjacency

    @property
    def alpha(self) -> float:
        return self._batch.alpha

    @property
    def k(self) -> int:
        return self._batch.k

    @property
    def n(self) -> int:
        return self._batch.n

    @property
    def t(self) -> int:
        return self._batch.t

    @property
    def num_commodities(self) -> int:
        return self._batch.num_commodities

    @property
    def cost(self) -> np.ndarray:
        return self._batch.cost

    @property
    def loads(self) -> np.ndarray:
        """The ``(n, r)`` load matrix ``q(t)`` (a live view)."""
        return self._batch.loads[0]

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step_with(self, step: SelectionStep) -> None:
        """Apply one diffusion step for the given selection ``(u, S)``.

        Equivalent to ``loads <- B loads`` with ``B`` from Eq. (4), but in
        O(k * r) instead of O(n^2 * r).
        """
        self._batch.step_with(step)

    def step(self) -> SelectionStep:
        """Draw a fresh NodeModel-law selection, apply it, and return it."""
        selection = draw_node_selection(self.adjacency, self.k, self.rng)
        self.step_with(selection)
        return selection

    # ------------------------------------------------------------------
    # Observables
    # ------------------------------------------------------------------
    @property
    def costs(self) -> np.ndarray:
        """Cost vector ``W(t) = c q(t)``, one entry per commodity."""
        return self._batch.costs[0]

    def commodity_load(self, commodity: int) -> np.ndarray:
        """Load vector ``q^(commodity)(t)`` (a copy)."""
        return self._batch.loads[0, :, commodity].copy()

    def total_mass(self) -> np.ndarray:
        """Per-commodity total load — invariant 1 for unit commodities.

        Each ``B(t)`` is column-stochastic on column ``u`` (mass moves, it
        is never created or destroyed), so this is conserved exactly.
        """
        return self._batch.total_mass()[0]
