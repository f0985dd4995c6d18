"""Vectorized batch engine for the Section-5 dual processes.

PRs 1–4 made the *primal* Averaging Process a batch workload; this
module does the same for the paper's dual side: the multi-commodity
Diffusion Process (Section 5.1), the ``n`` correlated random walks
(Section 5.2), and the classical coalescing walks (footnote 2).  Each
advances ``B`` independent replicas per vectorized round:

* :class:`BatchDiffusion` — ``B`` replicas of the ``(n, r)`` load
  matrix as one ``(B, n, r)`` array; the Eq. (4) update is two flat-row
  gather/scatters plus ``k`` scatter-adds per round.  Free runs draw
  their selections through :func:`repro.engine.selection.draw_node_block`
  — the *same* code path (and hence the bit-identical RNG stream at a
  fixed seed) as the primal batch models' block kernels.
* :class:`BatchWalks` — all ``n`` walks of all ``B`` replicas as one
  ``(B, n)`` position matrix; move/stay coins and target slots are
  decoded from one uniform per (round, replica, walk).
* :class:`BatchCoalescing` — the coalescing mode: co-located walks are
  one cluster, so positions double as partition labels and the cluster
  count is maintained in O(B) per round via an occupancy table.

:func:`run_duality_batch` is the shared-schedule duality driver: it
runs the primal engine forward with selection recording enabled
(:meth:`~repro.engine.batch.BatchAveragingProcess.record_selections`),
replays the **reversed** stream through a :class:`BatchDiffusion`, and
reports the per-replica Lemma 5.2 residual ``|W_b(T) - xi_b(T)|`` —
machine-precision zero for every replica, under every kernel.

:class:`DualSpec` mirrors :class:`~repro.engine.driver.EngineSpec`: a
picklable description of one dual configuration with a
:meth:`~DualSpec.cache_token`, so dual Monte-Carlo samples (e.g.
coalescence times, :func:`sample_coalescence_times`) memoise through
the same :class:`~repro.engine.cache.ResultCache` and shard through the
same multiprocessing driver as the primal samplers.

Randomness contract
-------------------
Free-running dual processes draw per block, C-order, from one
generator: selection variates first (the primal block contract —
``(R, B)`` for ``k <= 2``, ``(R, B, d_max + 1)`` for ``k > 2``), then,
for the walk processes, one ``(R, B, n)`` movement plane whose entry
``u`` encodes both the move/stay coin (``u < 1 - alpha``) and, for
movers, the target slot ``floor(u * k / (1 - alpha))``.  The coalescing
walk needs no plane: its single ``(R, B)`` draw recycles the node
selector's fractional part into the stay coin and the neighbour slot.
Shared-schedule replay (:meth:`BatchWalks.step_with`) draws one
``(B, n)`` plane per non-noop step — the single-replica facades in
:mod:`repro.dual` are exactly the ``B = 1`` case, so facade and batch
consume identical streams by construction.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence

import networkx as nx
import numpy as np

from repro.core.schedule import Schedule, SelectionStep
from repro.engine.selection import (
    RecordedSelections,
    draw_node_block,
    normalise_picked,
)
from repro.engine.backend import SamplingBackend
from repro.exceptions import ConvergenceError, ParameterError
from repro.graphs.adjacency import Adjacency
from repro.obs.metrics import METRICS
from repro.obs.trace import active_tracer
from repro.rng import SeedLike, as_generator

#: Default rounds per free-run selection block (matches the primal
#: kernels' default so diffusion free runs chunk their draws the same
#: way a default-configured primal run does).
DEFAULT_DUAL_BLOCK_ROUNDS = 256

#: Element budget of one free-run block: its R rounds are shortened so
#: that R * B * plane_width stays within it.
_DUAL_BLOCK_BUDGET = 2_097_152

#: Valid DualSpec kinds.
DUAL_KINDS = ("diffusion", "walks", "coalescing")


class BatchDualProcess:
    """Shared machinery of the batch dual processes.

    Parameters
    ----------
    graph:
        Connected undirected graph (``networkx.Graph`` or pre-frozen
        :class:`Adjacency` — a prebuilt adjacency is reused as is, its
        content hash included).
    alpha:
        Self-weight / laziness in ``[0, 1)``.
    k:
        Neighbour fan-in of the selection law (``1`` for the coalescing
        walk).
    replicas:
        Batch size ``B``.
    seed:
        Seed / generator driving the whole batch (selections *and*
        movement coins).
    """

    def __init__(
        self,
        graph: nx.Graph | Adjacency,
        alpha: float,
        k: int = 1,
        replicas: int | None = None,
        seed: SeedLike = None,
    ) -> None:
        if not 0.0 <= alpha < 1.0:
            raise ParameterError(f"alpha must be in [0, 1), got {alpha}")
        if replicas is None or int(replicas) != replicas or replicas < 1:
            raise ParameterError(
                f"replicas must be a positive integer, got {replicas}"
            )
        self.adjacency = (
            graph if isinstance(graph, Adjacency) else Adjacency.from_graph(graph)
        )
        self.alpha = float(alpha)
        self._sampler = SamplingBackend(self.adjacency, k)
        self.k = self._sampler.k
        self.replicas = int(replicas)
        self.rng = as_generator(seed)
        self.t = 0
        self.block_rounds = DEFAULT_DUAL_BLOCK_ROUNDS
        self._recording: list | None = None
        self._rows = np.arange(self.replicas, dtype=np.int64)

    @property
    def n(self) -> int:
        return self.adjacency.n

    # ------------------------------------------------------------------
    # Selection drawing and recording
    # ------------------------------------------------------------------
    def _draw_selections(self, rounds: int) -> RecordedSelections:
        """One block of fresh NodeModel-law selections for every replica.

        Routed through :func:`draw_node_block`, i.e. the primal block
        kernels' own draw — the streams are bit-identical to a primal
        :class:`~repro.engine.batch.BatchNodeModel` at a fixed seed.
        """
        nodes, picked, keep = draw_node_block(
            self._sampler,
            self.rng,
            self.n,
            rounds,
            self.replicas,
            self._rows,
            lazy=False,
        )
        block = RecordedSelections(nodes, normalise_picked(picked), keep)
        if self._recording is not None:
            self._recording.append(block)
        return block

    def record_selections(self, enable: bool = True) -> None:
        """Record every subsequent free-run selection block."""
        self._recording = [] if enable else None

    def recorded_selections(self) -> RecordedSelections:
        """The selection stream recorded since :meth:`record_selections`."""
        if self._recording is None:
            raise ParameterError(
                "selection recording is not enabled; call "
                "record_selections() before stepping"
            )
        if not self._recording:
            raise ParameterError("no rounds executed while recording")
        return RecordedSelections.concatenate(self._recording)

    def _validate_cost(self, cost: Sequence[float]) -> np.ndarray:
        cost = np.asarray(cost, dtype=np.float64).reshape(-1)
        if cost.shape != (self.n,):
            raise ParameterError(
                f"cost must have shape ({self.n},), got {cost.shape}"
            )
        return cost

    def _selection_block_size(self, remaining: int, plane_width: int) -> int:
        """Rounds for the next free-run block, memory-bounded."""
        block = max(1, int(self.block_rounds))
        budget = max(
            1, _DUAL_BLOCK_BUDGET // max(1, self.replicas * plane_width)
        )
        return min(block, remaining, budget)


class BatchDiffusion(BatchDualProcess):
    """``B`` replicas of the multi-commodity Diffusion Process.

    The state is one C-contiguous ``(B, n, r)`` array (``r``
    commodities); one round applies the Eq. (4) update to every
    replica's own selection via flat-row indexing on the
    ``(B * n, r)`` view — row writes are distinct across replicas, so
    plain fancy indexing suffices and the per-commodity arithmetic
    matches the scalar :class:`repro.dual.DiffusionProcess` operation
    for operation (the conformance tests assert bit-equality).

    Parameters beyond :class:`BatchDualProcess`:

    cost:
        Cost row vector ``c`` (Proposition 5.1 uses ``c = xi(0)^T``).
    loads:
        Initial loads — ``None`` for the identity (one unit of
        commodity ``u`` on node ``u``), an ``(n,)`` vector, an
        ``(n, r)`` matrix broadcast to every replica, or a full
        ``(B, n, r)`` array.
    """

    def __init__(
        self,
        graph: nx.Graph | Adjacency,
        cost: Sequence[float],
        alpha: float,
        k: int = 1,
        replicas: int | None = None,
        loads: np.ndarray | None = None,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(graph, alpha, k=k, replicas=replicas, seed=seed)
        self.cost = self._validate_cost(cost)
        n, B = self.n, self.replicas
        if loads is None:
            loads = np.eye(n)
        loads = np.asarray(loads, dtype=np.float64)
        if loads.ndim == 1:
            loads = loads[:, None]
        if loads.ndim == 2:
            if loads.shape[0] != n:
                raise ParameterError(
                    f"loads must have {n} rows, got shape {loads.shape}"
                )
            loads = np.repeat(loads[None, :, :], B, axis=0)
        elif loads.ndim == 3:
            if loads.shape[0] != B or loads.shape[1] != n:
                raise ParameterError(
                    f"loads must have shape ({B}, {n}, r), got {loads.shape}"
                )
            loads = loads.copy()
        else:
            raise ParameterError("loads must be 1-D, 2-D or 3-D")
        self.loads = np.ascontiguousarray(loads)
        self._flat = self.loads.reshape(B * n, -1)
        self._base = self._rows * n
        # The (B, n, r) load cube dominates the dual side's footprint.
        METRICS.peak("engine.state_peak_bytes", self.loads.nbytes)

    @property
    def num_commodities(self) -> int:
        return self.loads.shape[2]

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step_with(self, step: SelectionStep) -> None:
        """Apply one *shared* selection ``(u, S)`` to every replica.

        Exactly the scalar ``loads <- B loads`` arithmetic, batched over
        the leading replica axis.
        """
        self.t += 1
        if step.is_noop:
            return
        u = step.node
        moving = (1.0 - self.alpha) * self.loads[:, u, :]
        share = moving / len(step.sample)
        self.loads[:, u, :] -= moving
        for v in step.sample:
            self.loads[:, v, :] += share

    def replay(self, schedule: Schedule) -> None:
        """Apply an entire shared selection sequence in order."""
        for step in schedule:
            self.step_with(step)

    def apply_selections(self, selections: RecordedSelections) -> None:
        """Advance every replica through its *own* selection stream.

        ``selections`` is a per-replica stream — recorded from a primal
        batch run (forward for conformance, :meth:`reversed
        <repro.engine.selection.RecordedSelections.reversed>` for the
        Lemma 5.2 coupling) or from a dual free run.  ``keep = False``
        entries are identity rounds.
        """
        if selections.replicas != self.replicas:
            raise ParameterError(
                f"selection stream has {selections.replicas} replicas, "
                f"batch has {self.replicas}"
            )
        beta = 1.0 - self.alpha
        k = selections.k
        flat = self._flat
        base = self._base
        nodes_all = selections.nodes
        picked_all = selections.picked
        keep_all = selections.keep
        for t in range(len(selections)):
            self.t += 1
            if keep_all is None:
                base_t = base
                nodes = nodes_all[t]
                picked = picked_all[t]
            else:
                rows = np.flatnonzero(keep_all[t])
                if rows.size == 0:
                    continue
                base_t = base[rows]
                nodes = nodes_all[t, rows]
                picked = picked_all[t, rows]
            idx_u = base_t + nodes
            rowvals = flat[idx_u]
            moving = beta * rowvals
            share = moving / k
            flat[idx_u] = rowvals - moving
            for j in range(k):
                flat[base_t + picked[:, j]] += share

    def run(self, steps: int) -> None:
        """Free-run ``steps`` rounds of fresh per-replica selections."""
        if steps < 0:
            raise ParameterError(f"steps must be non-negative, got {steps}")
        remaining = steps
        width = (
            self._sampler.d_max + 1 if self.k > 2 else 1
        )  # selection draw width per (round, replica)
        while remaining > 0:
            rounds = self._selection_block_size(remaining, width)
            self.apply_selections(self._draw_selections(rounds))
            remaining -= rounds

    # ------------------------------------------------------------------
    # Observables
    # ------------------------------------------------------------------
    @property
    def costs(self) -> np.ndarray:
        """Per-replica cost vectors ``W_b(t) = c q_b(t)``, shape ``(B, r)``."""
        return np.matmul(self.cost, self.loads)

    def commodity_load(self, commodity: int) -> np.ndarray:
        """Per-replica load vectors of one commodity, shape ``(B, n)``."""
        return self.loads[:, :, commodity].copy()

    def total_mass(self) -> np.ndarray:
        """Per-replica, per-commodity total load (conserved exactly)."""
        return self.loads.sum(axis=1)


class BatchWalks(BatchDualProcess):
    """``B`` replicas of the ``n`` correlated random walks.

    The state is one ``(B, n)`` position matrix.  Each round, replica
    ``b``'s walks sitting on its selected node ``u_b`` move,
    independently, to a uniform member of its sample ``S_b`` with
    probability ``1 - alpha`` — both the coin and the target slot are
    decoded from one uniform per walk (see the module docstring).

    Parameters beyond :class:`BatchDualProcess`:

    cost:
        The vector ``xi(0)`` defining walk costs.
    positions:
        Optional initial positions — ``(n,)`` broadcast to every
        replica, or a full ``(B, n)`` matrix; defaults to walk ``u``
        starting at node ``u``.
    """

    def __init__(
        self,
        graph: nx.Graph | Adjacency,
        cost: Sequence[float],
        alpha: float,
        k: int = 1,
        replicas: int | None = None,
        positions: Sequence[int] | np.ndarray | None = None,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(graph, alpha, k=k, replicas=replicas, seed=seed)
        self.cost = self._validate_cost(cost)
        n, B = self.n, self.replicas
        if positions is None:
            positions = np.arange(n, dtype=np.int64)
        positions = np.asarray(positions, dtype=np.int64)
        if positions.ndim == 1:
            if positions.shape != (n,):
                raise ParameterError(
                    f"positions must have shape ({n},), got {positions.shape}"
                )
            positions = np.broadcast_to(positions, (B, n)).copy()
        elif positions.shape != (B, n):
            raise ParameterError(
                f"positions must have shape ({B}, {n}), got {positions.shape}"
            )
        else:
            positions = positions.copy()
        if np.any((positions < 0) | (positions >= n)):
            raise ParameterError("positions must be valid node indices")
        self.positions = positions

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def _apply_round(
        self,
        nodes: np.ndarray,
        picked: np.ndarray,
        keep: np.ndarray | None,
        plane: np.ndarray,
    ) -> None:
        """One vectorized walk round.

        ``nodes`` is ``(B,)``, ``picked`` ``(B, k)``, ``plane`` the
        ``(B, n)`` movement uniforms of this round.
        """
        beta = 1.0 - self.alpha
        k = picked.shape[1]
        move = plane < beta
        if k == 1:
            targets = np.broadcast_to(picked[:, 0][:, None], plane.shape)
        else:
            slot = np.minimum(
                (plane * (k / beta)).astype(np.int64), k - 1
            )
            targets = picked[self._rows[:, None], slot]
        mask = self.positions == nodes[:, None]
        if keep is not None:
            mask &= keep[:, None]
        mask &= move
        np.copyto(self.positions, targets, where=mask)

    def step_with(self, step: SelectionStep) -> None:
        """Apply one *shared* selection to every replica.

        Draws one ``(B, n)`` movement plane (no-op steps draw
        nothing); with ``B = 1`` this is exactly the scalar facade's
        per-step law.
        """
        self.t += 1
        if step.is_noop:
            return
        plane = self.rng.random((self.replicas, self.n))
        nodes = np.full(self.replicas, int(step.node), dtype=np.int64)
        picked = np.broadcast_to(
            np.asarray(step.sample, dtype=np.int64),
            (self.replicas, len(step.sample)),
        )
        self._apply_round(nodes, picked, None, plane)

    def replay(self, schedule: Schedule) -> None:
        """Drive every replica through one shared selection sequence."""
        for step in schedule:
            self.step_with(step)

    def apply_selections(self, selections: RecordedSelections) -> None:
        """Advance every replica through its own selection stream.

        Each round draws its ``(B, n)`` movement plane just before it
        runs.  The generator yields doubles in order, so this is the
        stream of one C-order ``(R, B, n)`` draw without holding it,
        and the realized trajectories do not depend on how the rounds
        are chunked.  No-op entries (``keep = False``) skip their
        replica's walks but still consume that replica's plane —
        freeze/noop patterns never shift their neighbours' variates,
        as in the primal kernels.
        """
        if selections.replicas != self.replicas:
            raise ParameterError(
                f"selection stream has {selections.replicas} replicas, "
                f"batch has {self.replicas}"
            )
        for t in range(len(selections)):
            self.t += 1
            keep = None if selections.keep is None else selections.keep[t]
            self._apply_round(
                selections.nodes[t],
                selections.picked[t],
                keep,
                self.rng.random((self.replicas, self.n)),
            )

    def run(self, steps: int) -> None:
        """Free-run ``steps`` rounds: fresh selections plus movement."""
        if steps < 0:
            raise ParameterError(f"steps must be non-negative, got {steps}")
        remaining = steps
        while remaining > 0:
            rounds = self._selection_block_size(remaining, self.n)
            self.apply_selections(self._draw_selections(rounds))
            remaining -= rounds

    # ------------------------------------------------------------------
    # Observables
    # ------------------------------------------------------------------
    @property
    def costs(self) -> np.ndarray:
        """Per-replica walk costs ``W~_b^(u)(t)``, shape ``(B, n)``."""
        return self.cost[self.positions]

    def occupancy(self) -> np.ndarray:
        """Walks per node per replica, shape ``(B, n)`` (rows sum to n)."""
        counts = np.zeros((self.replicas, self.n), dtype=np.int64)
        np.add.at(counts, (self._rows[:, None], self.positions), 1)
        return counts


class BatchCoalescing(BatchDualProcess):
    """``B`` replicas of the coalescing random walks.

    Co-located walks are one walk, so a replica's partition *is* its
    position vector: two walks are merged iff they share a position.
    The cluster count is therefore the number of occupied nodes,
    maintained incrementally in O(B) per round through an occupancy
    table — the position (label) matrix itself is optional
    (``track_positions=False`` for pure meeting-time sampling).

    One ``(R, B)`` uniform block drives a whole block of rounds: the
    integer part of ``u * n`` selects the node, and the fractional part
    is recycled into the stay coin (``frac < alpha``) and, for movers,
    the neighbour slot ``floor((frac - alpha) / (1 - alpha) * deg)``.
    """

    def __init__(
        self,
        graph: nx.Graph | Adjacency,
        alpha: float = 0.0,
        replicas: int | None = None,
        seed: SeedLike = None,
        track_positions: bool = True,
    ) -> None:
        super().__init__(graph, alpha, k=1, replicas=replicas, seed=seed)
        n, B = self.n, self.replicas
        self.positions: np.ndarray | None = (
            np.broadcast_to(np.arange(n, dtype=np.int64), (B, n)).copy()
            if track_positions
            else None
        )
        # Flat (B * n) occupancy: entry b * n + u says whether replica
        # b has a walk at node u.
        self._occupied = np.ones(B * n, dtype=bool)
        self._base = self._rows * n
        self.num_clusters = np.full(B, n, dtype=np.int64)
        self._degrees = self.adjacency.degrees

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def _decode_block(
        self, block: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decode one ``(R, B)`` uniform block into per-round moves.

        Returns the mover coin and the source and target of every
        (round, replica) entry as flat indices ``b * n + node`` into
        the occupancy table.  None of it depends on the state, so the
        block is decoded at once; the arithmetic is elementwise and the
        same as a round-by-round decode, so the walks are bit-identical
        for every ``block_rounds``.
        """
        scaled = block * self.n
        nodes = scaled.astype(np.int64)
        frac = scaled - nodes
        beta = 1.0 - self.alpha
        move = frac >= self.alpha
        deg = self._degrees[nodes]
        slot = ((frac - self.alpha) / beta * deg).astype(np.int64)
        np.clip(slot, 0, deg - 1, out=slot)
        targets = self._sampler._pick_slots(nodes, slot)
        nodes += self._base
        targets += self._base
        return move, nodes, targets

    def _apply_round(
        self, move: np.ndarray, src: np.ndarray, dst: np.ndarray
    ) -> np.ndarray:
        """One coalescing round from one decoded ``(B,)`` row.

        Returns the rows whose walk merged into an occupied node.
        """
        occupied = self._occupied
        rows = np.flatnonzero(move & occupied[src])
        if rows.size == 0:
            return rows
        srcs = src[rows]
        dsts = dst[rows]
        occupied[srcs] = False
        merged = occupied[dsts]
        occupied[dsts] = True
        self.num_clusters[rows] -= merged
        if self.positions is not None:
            offset = self._base[rows]
            sub = self.positions[rows]
            np.copyto(
                sub, (dsts - offset)[:, None],
                where=sub == (srcs - offset)[:, None],
            )
            self.positions[rows] = sub
        return rows[merged]

    def run(self, steps: int) -> None:
        """Execute ``steps`` rounds (coalesced replicas keep stepping)."""
        if steps < 0:
            raise ParameterError(f"steps must be non-negative, got {steps}")
        remaining = steps
        while remaining > 0:
            rounds = self._selection_block_size(remaining, 1)
            move, src, dst = self._decode_block(
                self.rng.random((rounds, self.replicas))
            )
            for r in range(rounds):
                self.t += 1
                self._apply_round(move[r], src[r], dst[r])
            remaining -= rounds

    def run_to_coalescence(self, max_steps: int = 100_000_000) -> np.ndarray:
        """Run until every replica holds one walk; per-replica times.

        Returns the ``(B,)`` array of coalescence times counted from
        the current state (0 for already-coalesced replicas); raises
        :class:`ConvergenceError` if any replica exhausts
        ``max_steps``.  Every replica keeps consuming its variate
        column after coalescing, so the times are independent of the
        batch composition.  Only a merge can bring a replica down to
        one walk, so only the rows that merged are tested.
        """
        start = self.t
        times = np.full(self.replicas, -1, dtype=np.int64)
        times[self.num_clusters == 1] = 0
        while np.any(times < 0) and self.t - start < max_steps:
            rounds = self._selection_block_size(
                max_steps - (self.t - start), 1
            )
            move, src, dst = self._decode_block(
                self.rng.random((rounds, self.replicas))
            )
            for r in range(rounds):
                self.t += 1
                merged = self._apply_round(move[r], src[r], dst[r])
                if merged.size:
                    times[merged[self.num_clusters[merged] == 1]] = (
                        self.t - start
                    )
        if np.any(times < 0):
            raise ConvergenceError(
                f"{int(np.sum(times < 0))} of {self.replicas} replicas "
                f"not coalesced after {max_steps} steps"
            )
        return times


# ----------------------------------------------------------------------
# Specs, caching and the sharded meeting-time sampler
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class DualSpec:
    """Everything needed to rebuild one dual-process configuration.

    The dual counterpart of :class:`~repro.engine.driver.EngineSpec`:
    picklable (multiprocessing shards), hashable by content, and
    exposing :meth:`cache_token` so dual Monte-Carlo samples memoise
    through :class:`~repro.engine.cache.ResultCache`.
    """

    kind: str
    adjacency: Adjacency
    alpha: float
    k: int = 1
    cost: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.kind not in DUAL_KINDS:
            raise ParameterError(
                f"kind must be one of {', '.join(DUAL_KINDS)}, got {self.kind!r}"
            )
        if self.kind in ("diffusion", "walks"):
            if self.cost is None:
                raise ParameterError(f"kind {self.kind!r} requires a cost vector")
            cost = np.asarray(self.cost, dtype=np.float64).reshape(-1)
            if cost.shape != (self.adjacency.n,):
                raise ParameterError(
                    f"cost must have shape ({self.adjacency.n},), "
                    f"got {cost.shape}"
                )
            object.__setattr__(self, "cost", cost)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DualSpec):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.adjacency == other.adjacency
            and self.alpha == other.alpha
            and self.k == other.k
            and (
                (self.cost is None) == (other.cost is None)
                and (self.cost is None or np.array_equal(self.cost, other.cost))
            )
        )

    def __hash__(self) -> int:
        return hash(self.cache_token())

    def cache_token(self) -> str:
        """Deterministic text token identifying this configuration."""
        if self.cost is None:
            digest = "none"
        else:
            digest = hashlib.sha256(
                np.ascontiguousarray(self.cost).tobytes()
            ).hexdigest()[:16]
        return (
            f"dual-{self.kind}|g={self.adjacency.content_hash()[:16]}"
            f"|c={digest}|alpha={self.alpha!r}|k={self.k}"
        )

    def build(self, replicas: int, seed: SeedLike = None) -> BatchDualProcess:
        """Instantiate the batch dual process for ``replicas`` replicas."""
        if self.kind == "diffusion":
            return BatchDiffusion(
                self.adjacency,
                cost=self.cost,
                alpha=self.alpha,
                k=self.k,
                replicas=replicas,
                seed=seed,
            )
        if self.kind == "walks":
            return BatchWalks(
                self.adjacency,
                cost=self.cost,
                alpha=self.alpha,
                k=self.k,
                replicas=replicas,
                seed=seed,
            )
        return BatchCoalescing(
            self.adjacency,
            alpha=self.alpha,
            replicas=replicas,
            seed=seed,
            track_positions=False,
        )


def _run_shard_coalescence(
    spec: DualSpec,
    replicas: int,
    seed: np.random.SeedSequence,
    max_steps: int,
) -> np.ndarray:
    walks = spec.build(replicas, seed=seed)
    return walks.run_to_coalescence(max_steps=max_steps).astype(np.float64)


def sample_coalescence_times(
    spec: DualSpec,
    replicas: int,
    seed: SeedLike = None,
    max_steps: int = 100_000_000,
    shard_size: Optional[int] = None,
    processes: int = 1,
    cache: "Optional[object]" = None,
) -> np.ndarray:
    """I.i.d. samples of the full-system coalescence time.

    Shards, multiprocessing and on-disk memoisation work exactly as in
    :func:`repro.engine.driver.sample_f_batch` — same sharded driver,
    same :class:`~repro.engine.cache.ResultCache` contract, keyed by
    :meth:`DualSpec.cache_token`.
    """
    from repro.engine.driver import _DEFAULT_SHARD, _run_sharded

    if spec.kind != "coalescing":
        raise ParameterError(
            f"coalescence times need a 'coalescing' spec, got {spec.kind!r}"
        )
    params = (
        f"COAL|max={max_steps}|r={replicas}"
        f"|shard={shard_size or _DEFAULT_SHARD}"
    )
    tracer = active_tracer()
    with tracer.span(
        "engine.sample_coalescence", replicas=replicas, processes=processes
    ) as handle:
        if cache is not None:
            with tracer.span("cache.load"):
                hit = cache.load(spec, params, seed)
            if hit is not None:
                handle.add(cache="hit")
                return hit
        out = _run_sharded(
            _run_shard_coalescence,
            spec,
            replicas,
            seed,
            shard_size,
            processes,
            max_steps,
        )
        if cache is not None:
            with tracer.span("cache.store"):
                cache.store(spec, params, seed, out)
    if tracer.enabled:
        tracer.streams.histogram("coalescence_rounds", out)
    return out


# ----------------------------------------------------------------------
# The shared-schedule duality driver (Lemma 5.2 at engine scale)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchDualityReport:
    """Per-replica outcome of one engine-scale Lemma 5.2 coupling.

    ``xi_final`` is the primal batch's end state, ``w_final`` the
    reversed diffusion's cost vectors; Lemma 5.2 says the two agree
    *per sequence*, i.e. per replica, row for row.
    """

    xi_final: np.ndarray
    w_final: np.ndarray
    steps: int
    kind: str
    kernel: str

    @property
    def replicas(self) -> int:
        return self.xi_final.shape[0]

    @property
    def errors(self) -> np.ndarray:
        """Per-replica residual ``max_u |W_b(T) - xi_b(T)|``."""
        return np.abs(self.w_final - self.xi_final).max(axis=1)

    @property
    def max_error(self) -> float:
        """Worst residual across the whole batch."""
        return float(self.errors.max())

    def verified(self, atol: float = 1e-9) -> bool:
        """Whether every replica satisfies the identity within ``atol``."""
        return bool(self.max_error <= atol)


def run_duality_batch(
    graph: nx.Graph | Adjacency,
    initial_values: Sequence[float],
    alpha: float,
    k: int = 1,
    steps: int = 256,
    replicas: int = 64,
    seed: SeedLike = None,
    kind: str = "node",
    lazy: bool = False,
    kernel: str = "auto",
) -> BatchDualityReport:
    """Couple a primal batch run with its time-reversed batch diffusion.

    Runs a :class:`~repro.engine.batch.BatchNodeModel` (or
    ``BatchEdgeModel``) forward for ``steps`` rounds with selection
    recording enabled, then drives a :class:`BatchDiffusion` (identity
    loads, cost ``c = xi(0)^T``) through the **reversed** recorded
    stream of every replica at once, and reports the per-replica
    Lemma 5.2 residuals.  One recorded block-random stream feeds both
    directions, for every kernel: this is the engine-scale Lemma 5.2
    conformance harness that EXP-F1/F4 run.
    """
    from repro.engine.batch import BatchEdgeModel, BatchNodeModel

    if kind not in ("node", "edge"):
        raise ParameterError(f"kind must be 'node' or 'edge', got {kind!r}")
    adjacency = (
        graph if isinstance(graph, Adjacency) else Adjacency.from_graph(graph)
    )
    initial = np.asarray(initial_values, dtype=np.float64)
    if kind == "node":
        primal = BatchNodeModel(
            adjacency,
            initial,
            alpha,
            k=k,
            replicas=replicas,
            seed=seed,
            lazy=lazy,
            kernel=kernel,
        )
    else:
        primal = BatchEdgeModel(
            adjacency,
            initial,
            alpha,
            replicas=replicas,
            seed=seed,
            lazy=lazy,
            kernel=kernel,
        )
    tracer = active_tracer()
    with tracer.span(
        "engine.duality",
        kind=kind,
        kernel=primal.kernel,
        replicas=replicas,
        steps=steps,
    ):
        with tracer.span("dual.primal_forward"):
            primal.record_selections()
            primal.run(steps)
            selections = primal.recorded_selections()

        diffusion = BatchDiffusion(
            adjacency,
            cost=initial,
            alpha=alpha,
            k=k if kind == "node" else 1,
            replicas=replicas,
        )
        with tracer.span("dual.reversed_replay"):
            diffusion.apply_selections(selections.reversed())
    return BatchDualityReport(
        xi_final=primal.values.copy(),
        w_final=np.ascontiguousarray(diffusion.costs),
        steps=steps,
        kind=kind,
        kernel=primal.kernel,
    )
