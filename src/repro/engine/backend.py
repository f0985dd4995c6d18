"""Batched neighbour sampling off the frozen CSR arrays.

The batch engine advances ``B`` independent replicas per vectorized round;
the only model-specific inner operation is "for each active replica ``b``
with selected node ``u_b``, average ``k`` uniformly chosen distinct
neighbours of ``u_b``".  A :class:`SamplingBackend` picks those
neighbours for a whole batch at once, gathering straight from the
adjacency's ``neighbors``/``offsets`` arrays (O(E) memory, no per-node
set-up).  The index-level primitives
(:meth:`~SamplingBackend.pick_block`, :meth:`~SamplingBackend._pick_slots`)
accept arrays of any shape, so the fused block kernels
(:mod:`repro.engine.kernels`) can precompute a whole ``(R, B)`` block
of selections through the same code paths the per-round engine uses.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ParameterError
from repro.graphs.adjacency import Adjacency

#: Largest ``d_max`` for which k-subsets are drawn with the full-key
#: strategy (one uniform key per neighbour slot).  Above it, and when
#: ``k*k <= d_min`` keeps collisions rare, rejection sampling draws only
#: ``k`` variates per row instead of ``d_max`` — the difference matters
#: on high-degree graphs where a ``(B, d_max)`` key matrix per round
#: would dwarf the actual update work.
_FULL_KEY_DMAX = 64


class SamplingBackend:
    """Batched k-neighbour sampling over one frozen :class:`Adjacency`.

    ``k`` is fixed per instance (it is a model parameter); the
    per-call inputs are the selected nodes (an array of any shape) and
    the variates that choose their neighbours.

    ``d_max`` optionally widens the neighbour-slot axis beyond this
    snapshot's own maximum degree: a graph schedule's samplers all take
    the *schedule-wide* maximum, so every snapshot shares one ``k > 2``
    key-matrix width (and hence one RNG draw shape).  Slots beyond a node's degree are never
    selected — the subset sampler masks them even on regular snapshots
    narrower than the envelope.
    """

    def __init__(
        self, adjacency: Adjacency, k: int, d_max: int | None = None
    ) -> None:
        if int(k) != k or k < 1:
            raise ParameterError(f"k must be a positive integer, got {k}")
        if k > adjacency.d_min:
            raise ParameterError(
                f"k = {k} exceeds the minimum degree {adjacency.d_min}"
            )
        self.adjacency = adjacency
        self.k = int(k)
        self._degrees = adjacency.degrees
        self._neighbors = adjacency.neighbors
        self._offsets = adjacency.offsets
        self._d_max = int(adjacency.d_max if d_max is None else d_max)
        if self._d_max < adjacency.d_max:
            raise ParameterError(
                f"d_max = {self._d_max} is below the snapshot's maximum "
                f"degree {adjacency.d_max}"
            )
        # Regular graphs skip the per-node degree gather in the hot path.
        self._common_degree = (
            float(adjacency.d_min) if adjacency.is_regular else None
        )
        # Full-neighbourhood averaging on a regular graph needs no keys.
        self._full_neighbourhood = (
            self.k == adjacency.d_min == adjacency.d_max
        )
        self._rejection_subsets = (
            not self._full_neighbourhood
            and self._d_max > _FULL_KEY_DMAX
            and self.k * self.k <= adjacency.d_min
        )

    @property
    def d_max(self) -> int:
        """Width of the neighbour-slot axis (the key-matrix width for
        ``k > 2``): this snapshot's maximum degree, or the schedule-wide
        envelope a graph schedule's samplers share."""
        return self._d_max

    @property
    def uses_subset_keys(self) -> bool:
        """Whether ``k > 1`` sampling consumes a pre-drawn key matrix.

        True for the full-key strategy (the caller supplies one uniform
        key per neighbour slot); False for the full-neighbourhood and
        rejection-sampled regimes.
        """
        return (
            self.k > 1
            and not self._full_neighbourhood
            and not self._rejection_subsets
        )

    def _slots(self, frac: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """Neighbour slot ``floor(frac * degree)`` per entry (any shape).

        ``frac`` is consumed (scaled in place); callers pass owned
        scratch.
        """
        if self._common_degree is not None:
            np.multiply(frac, self._common_degree, out=frac)
        else:
            np.multiply(frac, self._degrees[nodes], out=frac)
        return frac.astype(np.int64)

    def _pick_slots(self, nodes: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """Neighbour ids for per-node slot indices (broadcasting shapes).

        ``nodes`` has any shape; ``slots`` has the same shape plus an
        optional trailing subset axis.  Slot ``s`` of node ``u`` is its
        ``s``-th neighbour in the frozen adjacency order.
        """
        if slots.ndim == nodes.ndim:
            idx = self._offsets[nodes]
            idx += slots
            return self._neighbors[idx]
        return self._neighbors[self._offsets[nodes][..., None] + slots]

    def pick_block(self, nodes: np.ndarray, frac: np.ndarray) -> np.ndarray:
        """One uniform neighbour per entry, for arrays of any shape.

        ``frac`` is a uniform variate in ``[0, 1)`` supplied by the
        caller (extracted for free from the node draw); the slot is
        ``floor(frac * degree)``.  Consumes no RNG itself.
        """
        return self._pick_slots(nodes, self._slots(frac, nodes))

    def _subset_slots(
        self,
        deg: np.ndarray,
        keys: np.ndarray | None,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Uniform ``k``-subset of column slots ``[0, deg)`` per entry.

        Two strategies, gated once per (graph, k, d_max) at
        construction:

        * **full-key** (``d_max <= 64`` or large ``k``): ``keys`` holds
          one i.i.d. uniform per neighbour slot (pre-drawn by the
          caller, shape ``deg.shape + (d_max,)``, consumed in place);
          slots at or beyond a node's degree are masked to ``inf`` and
          the ``k`` smallest keys win — a uniform k-subset, fully
          vectorized.  Cost:
          ``d_max`` variates and an O(d_max) partition per entry,
          regardless of ``k`` — cheap on the paper's bounded-degree
          graphs, wasteful when ``d_max`` is in the hundreds.
        * **rejection** (``d_max > 64`` and ``k*k <= d_min``): draw
          ``k`` slots directly and redraw the (rare, probability
          <= k^2/deg) rows with duplicates.  ``keys`` must be ``None``;
          the variate count is data-dependent, which is why this is the
          one sampling regime whose streams are not block-size
          invariant (see :mod:`repro.engine.kernels`).
        """
        if not self._rejection_subsets:
            # ``keys`` is consumed: slots at or beyond the degree are
            # masked in place (a no-op on regular graphs whose degree is
            # d_max; a regular snapshot narrower than the schedule-wide
            # d_max still needs the mask) before the k-smallest partition.
            if self._common_degree is None or self._common_degree < self._d_max:
                keys[np.arange(self._d_max) >= deg[..., None]] = np.inf
            return np.argpartition(keys, self.k - 1, axis=-1)[..., : self.k]
        if keys is not None:  # pragma: no cover - defensive
            raise ParameterError("rejection subset sampling pre-draws no keys")
        k = self.k
        slots = (rng.random(deg.shape + (k,)) * deg[..., None]).astype(np.int64)
        flat_slots = slots.reshape(-1, k)
        flat_deg = deg.reshape(-1)
        while True:
            ordered = np.sort(flat_slots, axis=1)
            dupes = np.flatnonzero(
                (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
            )
            if not dupes.size:
                return slots
            redraw = rng.random((dupes.size, k)) * flat_deg[dupes, None]
            flat_slots[dupes] = redraw.astype(np.int64)

    def pick_subsets(
        self,
        nodes: np.ndarray,
        keys: np.ndarray | None,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Neighbour ids of a uniform ``k``-subset per entry.

        Returns shape ``nodes.shape + (k,)``.  ``keys`` follows the
        :meth:`_subset_slots` contract (required iff
        :attr:`uses_subset_keys`); the full-neighbourhood regular case
        consumes no randomness at all.
        """
        if self._full_neighbourhood:
            slots = np.broadcast_to(
                np.arange(self.k, dtype=np.int64), nodes.shape + (self.k,)
            )
            return self._pick_slots(nodes, slots)
        deg = self._degrees[nodes]
        return self._pick_slots(nodes, self._subset_slots(deg, keys, rng))
