"""Pluggable batched neighbour-sampling backends.

The batch engine advances ``B`` independent replicas per vectorized round;
the only model-specific inner operation is "for each active replica ``b``
with selected node ``u_b``, average ``k`` uniformly chosen distinct
neighbours of ``u_b``".  A :class:`SamplingBackend` picks those
neighbours for a whole batch at once.  Two implementations trade memory for gather speed:

* :class:`DenseBackend` precomputes the padded ``(n, d_max)`` neighbour
  table of :meth:`~repro.graphs.adjacency.Adjacency.padded_neighbors` —
  O(n * d_max) memory, fastest gathers; the default for the graph sizes
  of the paper experiments.
* :class:`CSRBackend` keeps only the frozen CSR arrays (O(E) memory) and
  materialises the needed neighbour rows per call — the choice for
  huge, skew-degree graphs where the dense table would not fit.

Both consume the *same* random variates in the same order, so a fixed
seed yields bit-identical trajectories across backends (asserted in
``tests/test_engine.py``).  The index-level primitives
(:meth:`~SamplingBackend.pick_block`, :meth:`~SamplingBackend._pick_slots`)
accept arrays of any shape, so the fused block kernels
(:mod:`repro.engine.kernels`) can precompute a whole ``(R, B)`` block
of selections through the same code paths the per-round engine uses.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from repro.exceptions import ParameterError
from repro.graphs.adjacency import Adjacency

#: Above this many dense-table entries, ``backend="auto"`` switches to CSR.
_DENSE_TABLE_LIMIT = 32_000_000

#: Largest ``d_max`` for which k-subsets are drawn with the full-key
#: strategy (one uniform key per neighbour slot).  Above it, and when
#: ``k*k <= d_min`` keeps collisions rare, rejection sampling draws only
#: ``k`` variates per row instead of ``d_max`` — the difference matters
#: on high-degree graphs where a ``(B, d_max)`` key matrix per round
#: would dwarf the actual update work.
_FULL_KEY_DMAX = 64


class SamplingBackend(abc.ABC):
    """Batched k-neighbour sampling over one frozen :class:`Adjacency`.

    ``k`` is fixed per backend instance (it is a model parameter); the
    per-call inputs are the selected nodes (an array of any shape) and
    the variates that choose their neighbours.

    ``d_max`` optionally widens the neighbour-slot axis beyond this
    snapshot's own maximum degree: the multi-snapshot form
    (:class:`SnapshotBackends`) pads every snapshot's table to the
    *schedule-wide* maximum so all snapshots share one stacked layout
    (and one ``k > 2`` key-matrix width).  Padded slots beyond a node's
    degree are never selected — the subset sampler masks them even on
    regular snapshots narrower than the table.
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
        envelope under :class:`SnapshotBackends`."""
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

        Shared by both backends' ``pick_block`` so their consumption of
        the caller-supplied variate — and hence their RNG streams —
        stays identical by construction.  ``frac`` is consumed (scaled
        in place); callers pass owned scratch.
        """
        if self._common_degree is not None:
            np.multiply(frac, self._common_degree, out=frac)
        else:
            np.multiply(frac, self._degrees[nodes], out=frac)
        return frac.astype(np.int64)

    @abc.abstractmethod
    def _pick_slots(self, nodes: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """Neighbour ids for per-node slot indices (broadcasting shapes).

        ``nodes`` has any shape; ``slots`` has the same shape plus an
        optional trailing subset axis.  Slot ``s`` of node ``u`` is its
        ``s``-th neighbour in the frozen adjacency order.
        """

    def pick_block(self, nodes: np.ndarray, frac: np.ndarray) -> np.ndarray:
        """One uniform neighbour per entry, for arrays of any shape.

        ``frac`` is a uniform variate in ``[0, 1)`` supplied by the
        caller (extracted for free from the node draw); the slot is
        ``floor(frac * degree)``.  Consumes no RNG itself, so dense and
        CSR backends stay stream-identical.
        """
        return self._pick_slots(nodes, self._slots(frac, nodes))

    def _subset_slots(
        self,
        deg: np.ndarray,
        keys: np.ndarray | None,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Uniform ``k``-subset of column slots ``[0, deg)`` per entry.

        Two strategies, gated once per (graph, k) at construction so
        dense and CSR backends — which share this method — consume
        identical RNG streams on the same graph:

        * **full-key** (``d_max <= 64`` or large ``k``): ``keys`` holds
          one i.i.d. uniform per neighbour slot (pre-drawn by the
          caller, shape ``deg.shape + (d_max,)``, consumed in place);
          invalid slots are masked to ``inf`` and the ``k`` smallest
          keys win — a uniform k-subset, fully vectorized.  Cost:
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
            # ``keys`` is consumed: invalid padded slots are masked in
            # place (a no-op on regular graphs whose degree fills the
            # table; a regular snapshot narrower than a stacked table
            # still needs the mask) before the k-smallest partition.
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

class DenseBackend(SamplingBackend):
    """Sampling against the precomputed padded neighbour table.

    ``table`` optionally injects a prebuilt ``(n, d_max)`` table — the
    stacked multi-snapshot form passes per-snapshot views of one
    ``(S, n, d_max)`` array, so snapshot selection costs one extra
    leading index instead of a table rebuild.
    """

    def __init__(
        self,
        adjacency: Adjacency,
        k: int,
        d_max: int | None = None,
        table: np.ndarray | None = None,
    ) -> None:
        super().__init__(adjacency, k, d_max=d_max)
        if table is None:
            table = adjacency.padded_neighbors()
        if table.shape != (adjacency.n, self._d_max):
            raise ParameterError(
                f"neighbour table shape {table.shape} does not match "
                f"(n, d_max) = ({adjacency.n}, {self._d_max}); widened "
                "tables come stacked from SnapshotBackends"
            )
        self._table = table
        self._table_flat = np.ascontiguousarray(self._table).reshape(-1)

    def _pick_slots(self, nodes, slots):
        if slots.ndim == nodes.ndim:
            idx = nodes * self._d_max
            idx += slots
            return self._table_flat[idx]
        return self._table[nodes[..., None], slots]


class CSRBackend(SamplingBackend):
    """Sampling straight off the CSR arrays (no dense table).

    ``k = 1`` needs a single O(B) gather; ``k > 1`` materialises the
    required neighbour ids on the fly (O(B * k) transient memory
    instead of the dense backend's persistent O(n * d_max) table).
    """

    def __init__(
        self, adjacency: Adjacency, k: int, d_max: int | None = None
    ) -> None:
        super().__init__(adjacency, k, d_max=d_max)
        self._neighbors = adjacency.neighbors
        self._offsets = adjacency.offsets

    def _pick_slots(self, nodes, slots):
        if slots.ndim == nodes.ndim:
            idx = self._offsets[nodes]
            idx += slots
            return self._neighbors[idx]
        return self._neighbors[self._offsets[nodes][..., None] + slots]


def select_backend(
    adjacency: Adjacency, k: int, name: str = "auto"
) -> SamplingBackend:
    """Resolve a backend by name (``"auto"``, ``"dense"`` or ``"csr"``)."""
    if name == "dense":
        return DenseBackend(adjacency, k)
    if name == "csr":
        return CSRBackend(adjacency, k)
    if name == "auto":
        if adjacency.n * adjacency.d_max <= _DENSE_TABLE_LIMIT:
            return DenseBackend(adjacency, k)
        return CSRBackend(adjacency, k)
    raise ParameterError(
        f"unknown backend {name!r}; expected 'auto', 'dense' or 'csr'"
    )


class SnapshotBackends:
    """One sampling backend per snapshot, sharing a stacked layout.

    The dynamic engine's counterpart of :func:`select_backend`: for a
    :class:`~repro.engine.dynamic.GraphSchedule`'s snapshots it builds
    either

    * the **stacked dense form** — every snapshot's padded neighbour
      table stacked into one ``(S, n, d_max)`` array (``d_max`` the
      schedule-wide maximum), each snapshot's :class:`DenseBackend`
      indexing its own ``(n, d_max)`` view, so per-segment snapshot
      selection is one extra leading gather index; or
    * **per-snapshot CSR** — O(E) memory per snapshot for huge graphs,
      sharing the same ``d_max`` envelope so the ``k > 2`` key-matrix
      width (and hence the RNG draw shape) is uniform across snapshots.

    All backends share ``k``; building them validates ``k`` against
    every snapshot's minimum degree.
    """

    def __init__(
        self,
        adjacencies: Sequence[Adjacency],
        k: int,
        name: str = "auto",
    ) -> None:
        if not adjacencies:
            raise ParameterError("at least one snapshot is required")
        n = adjacencies[0].n
        d_max = max(a.d_max for a in adjacencies)
        if name not in ("auto", "dense", "csr"):
            raise ParameterError(
                f"unknown backend {name!r}; expected 'auto', 'dense' or 'csr'"
            )
        dense = name == "dense" or (
            name == "auto"
            and len(adjacencies) * n * d_max <= _DENSE_TABLE_LIMIT
        )
        self.d_max = d_max
        if dense:
            stack = np.zeros((len(adjacencies), n, d_max), dtype=np.int64)
            for s, adjacency in enumerate(adjacencies):
                padded = adjacency.padded_neighbors()
                stack[s, :, : padded.shape[1]] = padded
            stack.setflags(write=False)
            self.table = stack
            self.backends = [
                DenseBackend(adjacency, k, d_max=d_max, table=stack[s])
                for s, adjacency in enumerate(adjacencies)
            ]
        else:
            self.table = None
            self.backends = [
                CSRBackend(adjacency, k, d_max=d_max)
                for adjacency in adjacencies
            ]
        self.k = self.backends[0].k

    def __len__(self) -> int:
        return len(self.backends)

    def __getitem__(self, snapshot_id: int) -> SamplingBackend:
        return self.backends[snapshot_id]
