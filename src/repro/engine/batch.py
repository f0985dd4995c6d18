"""Batched replicas of the averaging processes as a ``(B, n)`` matrix.

A :class:`BatchAveragingProcess` holds ``B`` statistically independent
copies of one averaging process and advances *all* of them per
vectorized call: one RNG draw selects the acting node (or directed
edge) of every replica, one fancy-indexed gather reads the old values,
and one scatter writes the unilateral updates

    xi[b, u_b] = alpha * xi[b, u_b] + (1 - alpha)/k * sum_i xi[b, v_i]

Stepping is delegated to a pluggable *kernel*
(:mod:`repro.engine.kernels`): ``"numpy"`` is the original per-round
path (one RNG call plus a dozen NumPy dispatches per time step, kept as
the bit-compatible PR-1 reference), while the block kernels
(``"fused"`` and ``"jit"``) advance the batch by blocks of
:attr:`block_rounds` rounds per Python call — all block randomness
pre-drawn in one C-order call and all value-independent index
arithmetic hoisted out of the round loop.  ``"jit"`` decodes and runs
a node ``k <= 2``, edge or lazy ``k = 1`` block in one compiled call
over the same uniforms and runs every other block as fused does, so
fused and jit trajectories are bit-identical at a fixed seed (see
:mod:`repro.engine.kernels`).

The per-replica potential ``phi`` is tracked via pi-weighted first and
second moments exactly as the scalar
:class:`~repro.core.base.AveragingProcess` does.  The block kernels
record per-round moment increments, so :meth:`run_until_phi` checks
convergence once per block, reconstructs the within-block phi
trajectory, and *backdates* each replica's hitting time to the exact
crossing round — per-round-exact semantics at per-block cost.
Converged replicas are *frozen*: they stop being stepped and stop
contributing work (block kernels still draw their variate columns and
discard them, which keeps every replica's trajectory independent of
the freeze pattern and of the block size).

In law each replica's trajectory is identical to the scalar process
(the equivalence tests replay a shared
:class:`~repro.core.schedule.Schedule` through both and compare step
for step); the speed comes purely from amortising the Python
interpreter over the batch and block dimensions.
"""

from __future__ import annotations

import abc
import time
from typing import Sequence

import networkx as nx
import numpy as np

from repro.core.schedule import Schedule
from repro.engine.backend import SamplingBackend
from repro.engine.dynamic import GraphSchedule
from repro.engine.kernels import (
    DEFAULT_BLOCK_ROUNDS,
    BlockPlan,
    FoldBuffers,
    blockloop,
    fold_block,
    make_block_executor,
    make_block_stepper,
    resolve_kernel,
)
from repro.engine.selection import (
    RecordedSelections,
    draw_edge_block,
    draw_node_block,
    normalise_picked,
)
from repro.exceptions import ParameterError
from repro.graphs.adjacency import Adjacency
from repro.obs.metrics import METRICS
from repro.obs.trace import active_tracer
from repro.rng import SeedLike, as_generator

#: Rounds between exact moment recomputations (kills float drift).
_RESYNC_EVERY = 4096

#: Per-array element budget of one block's scratch matrices; blocks are
#: shortened so huge batches do not allocate unbounded (R, B) planes.
_BLOCK_BUDGET = 2_097_152


class BatchAveragingProcess(abc.ABC):
    """``B`` independent replicas of one averaging process.

    Parameters
    ----------
    graph:
        Connected undirected graph (``networkx.Graph`` or frozen
        :class:`Adjacency`), or a
        :class:`~repro.engine.dynamic.GraphSchedule` for a time-varying
        topology.  With a schedule, round ``t`` runs on
        ``schedule.adjacency_at(t)``: kernel blocks are clamped so they
        never straddle a switch boundary (the same discipline as the
        periodic exact resync), the pi-weighted moments are resynced
        exactly whenever a switch changes ``pi`` (a no-op for
        regular-equal-degree snapshot sets, whose uniform ``pi`` keeps
        the simple average a martingale across switches), and chunked
        convergence detection stays exact and ``block_rounds``-invariant.
    initial_values:
        Either one vector of length ``n`` (broadcast to every replica)
        or a ``(B, n)`` matrix giving each replica its own start.
    alpha:
        Self-weight in ``[0, 1)``.
    replicas:
        Batch size ``B``; required when ``initial_values`` is 1-D.
    seed:
        Seed / generator driving the whole batch.
    lazy:
        Lazy variant (Section 4): each replica flips a fair coin per
        step and performs no update on tails.
    kernel:
        One of :data:`~repro.engine.kernels.KERNEL_CHOICES`, resolved
        by :func:`~repro.engine.kernels.resolve_kernel`: ``"auto"``
        (default) runs ``"jit"`` when the compiled C block loop loads
        and ``"fused"`` otherwise.  The resolved name is exposed as
        :attr:`kernel`.
    """

    def __init__(
        self,
        graph: nx.Graph | Adjacency,
        initial_values: Sequence[float] | np.ndarray,
        alpha: float,
        replicas: int | None = None,
        seed: SeedLike = None,
        lazy: bool = False,
        kernel: str = "auto",
    ) -> None:
        if not 0.0 <= alpha < 1.0:
            raise ParameterError(f"alpha must be in [0, 1), got {alpha}")
        if isinstance(graph, GraphSchedule):
            self.graph_schedule: GraphSchedule | None = graph
            self.adjacency = graph.snapshots[0]
        else:
            self.graph_schedule = None
            self.adjacency = (
                graph
                if isinstance(graph, Adjacency)
                else Adjacency.from_graph(graph)
            )
        n = self.adjacency.n
        values = np.asarray(initial_values, dtype=np.float64)
        if values.ndim == 1:
            if replicas is None or replicas < 1:
                raise ParameterError(
                    "replicas must be a positive integer when initial_values is 1-D"
                )
            if values.shape != (n,):
                raise ParameterError(
                    f"initial_values must have shape ({n},), got {values.shape}"
                )
            values = np.broadcast_to(values, (replicas, n)).copy()
        elif values.ndim == 2:
            if values.shape[1] != n:
                raise ParameterError(
                    f"initial_values must have {n} columns, got {values.shape[1]}"
                )
            if replicas is not None and replicas != values.shape[0]:
                raise ParameterError(
                    f"replicas = {replicas} contradicts initial_values with "
                    f"{values.shape[0]} rows"
                )
            values = values.copy()
        else:
            raise ParameterError("initial_values must be 1-D or 2-D")

        self.alpha = float(alpha)
        self.lazy = bool(lazy)
        self.rng = as_generator(seed)
        self.values = values
        self.t = 0
        self._snapshot_id = 0
        if self.graph_schedule is not None:
            self._pis = [
                a.stationary_pi() for a in self.graph_schedule.snapshots
            ]
            self._pi_commons = [
                float(pi[0]) if a.is_regular else None
                for a, pi in zip(self.graph_schedule.snapshots, self._pis)
            ]
            self._pi = self._pis[0]
            self._pi_common = self._pi_commons[0]
        else:
            self._pi = self.adjacency.stationary_pi()
            # Regular graphs have constant pi; skip the per-round gather.
            self._pi_common = (
                float(self._pi[0]) if self.adjacency.is_regular else None
            )
        self.kernel_requested = kernel
        self.kernel = resolve_kernel(kernel)
        self.block_rounds = DEFAULT_BLOCK_ROUNDS
        self._block_exec = make_block_executor(self.kernel)
        if self._block_exec is not None:
            # Detection runs compiled for every block kernel: load (or
            # build) the library now, in set-up, not in the first block.
            blockloop()
        # Largest block plan reported to engine.plan_peak_bytes so far.
        self._plan_reported = 0
        # The jit kernel's one-call decode-and-execute path, for the
        # shapes it covers (built by the concrete models, _init_stepper).
        self._stepper = None
        # run_until_phi's reused detection outputs.
        self._fold_buffers = FoldBuffers()
        # The flat view of `values` every gather/scatter indexes into.
        # `values` is allocated once and mutated in place, so the view
        # stays valid for the batch's lifetime; it is refreshed on
        # freeze/resync purely as a cheap invariant (satellite of the
        # kernels PR: never rebuild it per round).
        self._flat = self.values.reshape(-1)
        self._moments_dirty = False
        self._active = np.ones(self.replicas, dtype=bool)
        self._active_rows = np.arange(self.replicas)
        self._row_offsets = self._active_rows * n
        self._coef = None
        self._rounds_since_resync = 0
        self._recording: list | None = None
        self.resync_moments()
        # (B, n) value state plus the two (B,) moment accumulators: the
        # live footprint the adaptive governor will budget against.
        METRICS.peak(
            "engine.state_peak_bytes",
            self.values.nbytes + self._s1.nbytes + self._s2.nbytes,
        )

    # ------------------------------------------------------------------
    # Shape and activity
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.adjacency.n

    @property
    def replicas(self) -> int:
        return self.values.shape[0]

    @property
    def active(self) -> np.ndarray:
        """Boolean mask of replicas still being stepped (read-only copy)."""
        return self._active.copy()

    @property
    def num_active(self) -> int:
        return len(self._active_rows)

    def freeze(self, rows: np.ndarray | Sequence[int]) -> None:
        """Stop stepping the given replicas (idempotent).

        Frozen replicas keep their state; the driver freezes a replica
        the moment it converges so the rest of the batch no longer pays
        for it.
        """
        self._active[np.asarray(rows, dtype=np.int64)] = False
        self._active_rows = np.flatnonzero(self._active)
        self._row_offsets = self._active_rows * self.n
        self._coef = None
        self._flat = self.values.reshape(-1)

    # ------------------------------------------------------------------
    # Selection recording (the dual coupling's input)
    # ------------------------------------------------------------------
    def record_selections(self, enable: bool = True) -> None:
        """Start (or stop) recording every subsequent selection.

        While enabled, each executed round's per-replica selections
        ``(node, neighbour sample)`` are kept — under every kernel, since
        both the per-round and the block paths record before applying —
        and :meth:`recorded_selections` returns them as one
        :class:`~repro.engine.selection.RecordedSelections` stream.  The
        dual engine replays that stream forwards (conformance) or
        reversed (the Lemma 5.2 coupling).  Frozen replicas' and lazy
        no-op rounds appear as ``keep = False`` entries.
        """
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

    @property
    def _selection_width(self) -> int:
        """Sample size of one recorded selection (k for the node model)."""
        return getattr(self, "k", 1)

    def _record_block(self, nodes, picked, keep, rows) -> None:
        """Record one block's active-row selections in full-batch form."""
        picked = normalise_picked(picked)
        if rows.size == self.replicas:
            self._record_append(
                nodes.copy(), picked.copy(), None if keep is None else keep.copy()
            )
            return
        rounds = nodes.shape[0]
        full_nodes = np.zeros((rounds, self.replicas), dtype=np.int64)
        full_picked = np.zeros(
            (rounds, self.replicas, picked.shape[2]), dtype=np.int64
        )
        full_keep = np.zeros((rounds, self.replicas), dtype=bool)
        full_nodes[:, rows] = nodes
        full_picked[:, rows] = picked
        full_keep[:, rows] = True if keep is None else keep
        self._record_append(full_nodes, full_picked, full_keep)

    def _record_append(self, nodes, picked, keep) -> None:
        self._recording.append(RecordedSelections(nodes, picked, keep))

    def _record_noop_round(self) -> None:
        """Record a round in which no replica performed an update."""
        width = self._selection_width
        self._record_append(
            np.zeros((1, self.replicas), dtype=np.int64),
            np.zeros((1, self.replicas, width), dtype=np.int64),
            np.zeros((1, self.replicas), dtype=bool),
        )

    # ------------------------------------------------------------------
    # Dynamic topologies
    # ------------------------------------------------------------------
    def _activate_snapshot(self, snapshot_id: int) -> None:
        """Make the given schedule snapshot the active topology.

        Concrete models extend this with their own per-snapshot state
        (the neighbour sampler, the directed edge list).
        """
        self._snapshot_id = snapshot_id
        self.adjacency = self.graph_schedule.snapshots[snapshot_id]
        self._pi = self._pis[snapshot_id]
        self._pi_common = self._pi_commons[snapshot_id]

    def _sync_snapshot(self) -> None:
        """Align the active snapshot with the round about to execute.

        No-op on static graphs and within a segment.  Crossing a switch
        boundary that changes ``pi`` triggers an exact moment resync —
        the switch analogue of the periodic resync, and the reason phi
        at round ``t`` is always measured against the snapshot governing
        round ``t``, exactly as the scalar wrapper's rebuilt tracker
        does.  Regular-equal-degree snapshot sets share one ``pi``, so
        their moments (and the martingale ``<1, xi>_pi``) carry across
        switches untouched.
        """
        if self.graph_schedule is None:
            return
        snapshot_id = self.graph_schedule.snapshot_at(self.t)
        if snapshot_id == self._snapshot_id:
            return
        with active_tracer().span(
            "engine.snapshot_switch", t=self.t, snapshot=snapshot_id
        ):
            pi_changed = not np.array_equal(self._pis[snapshot_id], self._pi)
            self._activate_snapshot(snapshot_id)
            if self._stepper is not None:
                self._bind_stepper()
            if pi_changed:
                self.resync_moments()
        METRICS.count("engine.snapshot_switches")

    # ------------------------------------------------------------------
    # Selection: the only model-specific ingredient
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _select_batch(
        self, rows: np.ndarray, row_offsets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw ``(nodes, means, picked)`` for the replica rows.

        ``row_offsets`` is ``rows * n``, the flat-index base of each
        row into the cached flat view — precomputed so the hot path
        can use cheap 1-D gathers instead of 2-D fancy indexing.
        ``picked`` holds the gathered neighbour ids (``(A,)`` or
        ``(A, k)``); selection recording consumes it, the update path
        only needs the means.
        """

    @abc.abstractmethod
    def _plan_block(self, block_rounds: int) -> BlockPlan:
        """Precompute one R-round block in NumPy for
        :func:`~repro.engine.kernels.run_block_fused`: every fused
        block, and the jit blocks its stepper does not cover (``k > 2``,
        lazy ``k > 1`` and selection recording).

        Draws the block's randomness in one C-order call **for the full
        batch** (frozen replicas' columns are discarded), then computes
        every value-independent quantity — selections, neighbour picks,
        flat gather/scatter indices, pi weights, lazy coins — restricted
        to the active rows.  See :mod:`repro.engine.kernels` for the
        draw-order contract per shape.
        """

    def _plan_width(self) -> int:
        """Scratch elements per (round, replica) a block plan allocates."""
        return 1

    def _init_stepper(self) -> None:
        """Build the jit kernel's block stepper where it covers the shape."""
        self._stepper = make_block_stepper(
            self.kernel, self.replicas, self.n, self._selection_width,
            self.lazy, self.alpha,
        )
        if self._stepper is not None:
            self._bind_stepper()

    def __getstate__(self) -> dict:
        # The stepper and the fold buffers hold raw pointers into this
        # batch's arrays, so a copied or unpickled batch builds its own.
        state = self.__dict__.copy()
        state["_stepper"] = state["_fold_buffers"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Copying does not keep `_flat` a view of `values`.
        self._flat = self.values.reshape(-1)
        self._fold_buffers = FoldBuffers()
        self._init_stepper()

    def _bind_stepper(self) -> None:
        """Point the block stepper at the active snapshot's sampling source."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step_batch(self) -> None:
        """Advance every active replica by one time step.

        This is the legacy per-round path — exactly the ``"numpy"``
        kernel.  Block kernels do not route through it (their RNG
        layout is block-shaped), but it remains valid to call on any
        batch.
        """
        self._sync_snapshot()
        self.t += 1
        rows = self._active_rows
        if rows.size == 0:
            if self._recording is not None:
                self._record_noop_round()
            return
        offsets = self._row_offsets
        if self.lazy:
            keep = self.rng.random(rows.size) >= 0.5
            rows = rows[keep]
            offsets = offsets[keep]
            if rows.size == 0:
                if self._recording is not None:
                    self._record_noop_round()
                return
        nodes, means, picked = self._select_batch(rows, offsets)
        if self._recording is not None:
            flat_picked = picked if picked.ndim == 2 else picked[:, None]
            self._record_block(
                nodes[None, :], flat_picked[None, :, :], None, rows
            )
        self._apply_rows(rows, offsets, nodes, means)
        self._rounds_since_resync += 1
        if self._rounds_since_resync >= _RESYNC_EVERY:
            self.resync_moments()

    def _apply_rows(
        self,
        rows: np.ndarray,
        row_offsets: np.ndarray,
        nodes: np.ndarray,
        means: np.ndarray,
    ) -> None:
        """The unilateral update plus incremental moment bookkeeping."""
        flat = self._flat
        idx = row_offsets + nodes
        old = flat[idx]
        new = self.alpha * old + (1.0 - self.alpha) * means
        flat[idx] = new
        if self._moments_dirty:
            # Moments will be resynchronised exactly on next read; do
            # not waste work maintaining a stale accumulator.
            return
        weights = (
            self._pi_common if self._pi_common is not None else self._pi[nodes]
        )
        delta1 = weights * (new - old)
        delta2 = delta1 * (new + old)  # == weights * (new^2 - old^2)
        if rows.size == self.replicas:
            self._s1 += delta1
            self._s2 += delta2
        else:
            self._s1[rows] += delta1
            self._s2[rows] += delta2

    def _block_size(self, remaining: int) -> int:
        """Rounds for the next block: configured size, memory-bounded,
        and never straddling a graph-schedule switch boundary (callers
        must have synced the active snapshot first)."""
        block = max(1, int(self.block_rounds))
        budget = max(1, _BLOCK_BUDGET // (self.replicas * self._plan_width()))
        block = min(block, remaining, budget)
        if self.graph_schedule is not None:
            block = min(block, self.graph_schedule.rounds_until_switch(self.t))
        return block

    def run(self, steps: int) -> None:
        """Execute ``steps`` rounds (one time step per active replica each).

        Block kernels mark the moment accumulators dirty and
        resynchronise them exactly, on demand, at the next observable
        read — cheaper and *more* accurate than per-round increments.
        """
        if steps < 0:
            raise ParameterError(f"steps must be non-negative, got {steps}")
        if self._block_exec is None:
            # run() never freezes replicas, so the whole loop's work is
            # known up front — one counter update, not one per round.
            METRICS.count("engine.replica_steps", steps * self.num_active)
            if steps:
                METRICS.count("engine.rng_blocks", steps)
                METRICS.count("engine.blocks.numpy")
            for _ in range(steps):
                self.step_batch()
            return
        remaining = steps
        while remaining > 0:
            if self.num_active == 0:
                if self._recording is not None:
                    for _ in range(remaining):
                        self._record_noop_round()
                self.t += remaining
                break
            self._sync_snapshot()
            rounds = self._block_size(remaining)
            self._advance(rounds, False)
            self._moments_dirty = True
            self.t += rounds
            remaining -= rounds

    def _advance(self, rounds: int, record: bool):
        """Advance the active replicas by one ``rounds``-round block.

        The jit kernel's stepper decodes and executes in one C call;
        every other block (the fused kernel, and jit's ``k > 2``, lazy
        ``k > 1`` and recorded selections) is planned in NumPy
        (:meth:`_plan_block`) and executed by ``run_block_fused``.  In
        record mode returns ``(write_idx, keep, weights, old, new)``:
        each round's written flat index, the lazy coins (or ``None``),
        the pi weights of the written entries and their ``(old, new)``
        values — what detection and :meth:`_rewind_crossed` read.  Under
        an active tracer the block's plan time (RNG draw and decode) and
        execute time go to the tracer's timers ``engine.time.plan_s``
        and ``engine.time.execute_s``.
        """
        tracer = active_tracer()
        timed = tracer.enabled
        if timed:
            start = time.perf_counter()
        stepper = self._stepper
        if stepper is not None and self._recording is None:
            out = stepper.run(
                self.rng, self._flat, self._active_rows, rounds, record, timed
            )
            if timed:
                decoded = float(stepper.stamp[0])
            if out is not None and out[2] is None:
                out = (*out[:2], self._pi_common, *out[3:])
        else:
            plan = self._plan_block(rounds)
            if timed:
                decoded = time.perf_counter()
            out = self._block_exec(self._flat, plan, self.alpha, record)
            if out is not None:
                out = (plan.write_idx, plan.keep, plan.weights, *out)
            if plan.nbytes > self._plan_reported:
                self._plan_reported = plan.nbytes
                METRICS.peak("engine.plan_peak_bytes", plan.nbytes)
        if timed:
            tracer.add_time("engine.time.plan_s", decoded - start)
            tracer.add_time("engine.time.execute_s", time.perf_counter() - decoded)
        # Per-block work accounting (never per round).
        METRICS.count("engine.replica_steps", rounds * self.num_active)
        METRICS.count("engine.rng_blocks")
        METRICS.count(f"engine.blocks.{self.kernel}")
        return out

    def _checks_in_c(self) -> bool:
        """Whether ``run_to_consensus_batch`` runs this batch's blocks and
        witness checks in C (:meth:`_run_checked`): the jit stepper's
        shapes on a static graph, without selection recording, and only
        where :meth:`run` is the engine's own (a subclass that overrides
        it keeps the per-check loop, which calls it)."""
        return (
            self._stepper is not None
            and self._recording is None
            and self.graph_schedule is None
            and type(self).run is BatchAveragingProcess.run
        )

    def _run_checked(
        self, budget: int, check_every: int, tol: float, hi: np.ndarray,
        lo: np.ndarray,
    ) -> np.ndarray:
        """``run_to_consensus_batch``'s blocks and witness checks in C.

        Runs intervals of ``check_every`` rounds (the last cut to the
        ``budget`` of rounds), each in the blocks :meth:`run` would cut
        it into and each ending in the driver's witness check over the
        ``(B,)`` witness nodes ``hi``/``lo``, until a check flags a
        converged row or the budget is spent; under an active tracer it
        returns after one check.  Returns the active rows the last check
        flagged.  Time, the work counters (``engine.replica_steps``,
        ``engine.rng_blocks``, ``engine.harvest.rows`` and
        ``engine.harvest.scanned_rows``) and, under a tracer, the timers
        ``engine.time.plan_s``, ``execute_s`` and ``harvest_s`` advance as
        the block-by-block loop advances them, also for the blocks run
        before a decoded index out of range raises ``IndexError``.
        """
        tracer = active_tracer()
        timed = tracer.enabled
        rows = self._active_rows
        stepper = self._stepper
        try:
            flags = stepper.consensus(
                self.rng, self._flat, rows, self._block_size(budget),
                check_every, budget, tol, hi, lo, timed, timed,
            )
        finally:
            rounds, blocks, checks, scanned = (int(v) for v in stepper.stats)
            if rounds:
                self.t += rounds
                self._moments_dirty = True
                METRICS.count("engine.replica_steps", rounds * rows.size)
                METRICS.count("engine.rng_blocks", blocks)
                METRICS.count(f"engine.blocks.{self.kernel}", blocks)
            if checks:
                METRICS.count("engine.harvest.rows", checks * rows.size)
                METRICS.count("engine.harvest.scanned_rows", scanned)
            if timed:
                plan, execute, check = (float(v) for v in stepper.times)
                tracer.add_time("engine.time.plan_s", plan)
                tracer.add_time("engine.time.execute_s", execute)
                tracer.add_time("engine.time.harvest_s", check)
        return rows[flags]

    def run_until_phi(self, epsilon: float, max_steps: int) -> np.ndarray:
        """Per-replica ``T_eps``: step until every replica has ``phi <= eps``.

        Returns an int array with each replica's hitting time counted
        from the current state, or ``-1`` where ``max_steps`` rounds
        elapsed first.  Hitting times are exact, matching
        :func:`repro.core.convergence.measure_t_eps`: the ``"numpy"``
        kernel checks every round; block kernels check once per block
        against the reconstructed within-block phi trajectory and
        *backdate* each replica to its exact crossing round (see
        :meth:`_run_until_phi_blocked`).  Replicas freeze as they
        converge.  Already-frozen replicas report ``0`` when their
        ``phi`` is within ``epsilon`` and ``-1`` otherwise (frozen
        means they will never be stepped again).
        """
        if epsilon <= 0:
            raise ParameterError(f"epsilon must be positive, got {epsilon}")
        if max_steps < 0:
            raise ParameterError(f"max_steps must be non-negative, got {max_steps}")
        self._ensure_moments()
        hit = np.full(self.replicas, -1, dtype=np.int64)
        converged = self.phi <= epsilon
        hit[converged] = 0
        self.freeze(np.flatnonzero(converged))
        if self._block_exec is None:
            return self._run_until_phi_perround(epsilon, max_steps, hit)
        return self._run_until_phi_blocked(epsilon, max_steps, hit)

    def _run_until_phi_perround(
        self, epsilon: float, max_steps: int, hit: np.ndarray
    ) -> np.ndarray:
        """The PR-1 per-round detection loop (``"numpy"`` kernel)."""
        start = self.t
        replica_steps = 0
        while self.num_active and self.t - start < max_steps:
            replica_steps += self.num_active
            self.step_batch()
            rows = self._active_rows
            phi = np.maximum(self._s2[rows] - self._s1[rows] ** 2, 0.0)
            done = rows[phi <= epsilon]
            if len(done):
                hit[done] = self.t - start
                self.freeze(done)
        if replica_steps:
            METRICS.count("engine.replica_steps", replica_steps)
            METRICS.count("engine.rng_blocks", self.t - start)
            METRICS.count("engine.blocks.numpy")
        return hit

    def _run_until_phi_blocked(
        self, epsilon: float, max_steps: int, hit: np.ndarray
    ) -> np.ndarray:
        """Chunked detection with exact backdating (block kernels).

        Each block records every written entry's ``(old, new)`` values,
        from which :func:`~repro.engine.kernels.fold_block` derives the
        per-round moment increments ``(d1, d2)`` and folds them, column
        by column in round order, into the pre-block moments:

            s1[r] = (((s1_0 + d1_1) + d1_2) + ... + d1_r)

        — the *same* floating-point fold the per-round check performs, so
        ``phi[r] = max(s2[r] - s1[r]^2, 0)`` reproduces the per-round
        sequence exactly and the first ``phi[r] <= eps`` round is the
        exact hitting round.  A replica crossing mid-block is then
        *rewound* to its crossing-round state (each over-stepped round's
        old value was recorded, so undoing the writes in reverse order is
        exact) before it freezes, and its moments are set to the fold's
        moments at the crossing.  Blocks never straddle the periodic
        exact-resync boundary, and when one ends on it the fold scans one
        round short and the final round's phi is evaluated post-resync —
        again matching what per-round checking would have seen.  Hitting
        times *and* the frozen states are therefore invariant to
        ``block_rounds`` (one realized trajectory, detected at different
        granularities), except under the rejection-sampled ``k > 2``
        regime whose variate *count* is data-dependent (see
        :mod:`repro.engine.kernels`).  Under an active tracer the fold
        and rewind time goes to the timer ``engine.time.detect_s``.
        """
        start = self.t
        tracer = active_tracer()
        while self.num_active and self.t - start < max_steps:
            self._sync_snapshot()
            rounds = self._block_size(max_steps - (self.t - start))
            rounds = min(rounds, _RESYNC_EVERY - self._rounds_since_resync)
            rows = self._active_rows
            write_idx, keep, weights, old_blk, new_blk = self._advance(rounds, True)
            self.t += rounds
            self._rounds_since_resync += rounds

            s1 = self._s1[rows]
            s2 = self._s2[rows]
            resynced = self._rounds_since_resync >= _RESYNC_EVERY
            if resynced:
                # Exact moments at the block's end (from `values` alone).
                self.resync_moments()
            if tracer.enabled:
                detect_start = time.perf_counter()
            first, cross1, cross2, phi_last = fold_block(
                old_blk, new_blk, weights, s1, s2, epsilon,
                rounds - 1 if resynced else rounds, self._fold_buffers,
            )
            if resynced:
                phi_last = np.maximum(
                    self._s2[rows] - self._s1[rows] ** 2, 0.0
                )
                first[(first < 0) & (phi_last <= epsilon)] = rounds - 1
            else:
                self._s1[rows] = s1
                self._s2[rows] = s2
            crossed = first >= 0
            if crossed.any():
                done = rows[crossed]
                hit[done] = (self.t - rounds - start) + first[crossed] + 1
                self._rewind_crossed(
                    write_idx, keep, old_blk, cross1, cross2, rows, crossed,
                    first, resynced,
                )
                self.freeze(done)
            if tracer.enabled:
                tracer.add_time(
                    "engine.time.detect_s", time.perf_counter() - detect_start
                )
                # Chunk-boundary stream samples: the block already ended
                # and phi was already computed, so recording reads what
                # exists — it cannot perturb the trajectory or the RNG.
                tracer.record("engine.phi_max", self.t, float(phi_last.max()))
                tracer.record(
                    "engine.active_replicas", self.t, self.num_active
                )
        return hit

    def _rewind_crossed(
        self,
        write_idx: np.ndarray,
        keep: np.ndarray | None,
        old_blk: np.ndarray,
        cross1: np.ndarray,
        cross2: np.ndarray,
        rows: np.ndarray,
        crossed: np.ndarray,
        first: np.ndarray,
        resynced: bool,
    ) -> None:
        """Restore crossed replicas to their exact crossing-round state.

        ``first[j]`` is the block row of column ``j``'s crossing, so
        rounds ``first[j]+1 .. R-1`` (0-based block rows) over-stepped
        it.  Each such round wrote exactly one entry whose prior value
        sits in ``old_blk``; assigning the old values back in *reverse*
        round order is an exact undo (on duplicate indices NumPy's
        fancy assignment lets the last — i.e. earliest-round — value
        win).  Moments are reset to the fold's moments at the crossing
        (``cross1``, ``cross2``), except for a replica that crossed on a
        resync boundary's final round, whose exactly-resynchronised
        moments are already in place.
        """
        flat = self._flat
        rounds = old_blk.shape[0]
        for j in np.flatnonzero(crossed):
            cut = first[j] + 1
            if cut < rounds:
                undo = slice(rounds - 1, cut - 1, -1)
                write = write_idx[undo, j]
                values = old_blk[undo, j]
                if keep is not None:
                    mask = keep[undo, j]
                    write = write[mask]
                    values = values[mask]
                flat[write] = values
            row = rows[j]
            if not (resynced and cut == rounds):
                self._s1[row] = cross1[j]
                self._s2[row] = cross2[j]

    def replay(self, schedule: Schedule) -> None:
        """Apply a recorded selection sequence to every replica.

        All replicas follow the *same* ``chi``; with identical initial
        rows this reproduces the scalar process bit for bit — the
        equivalence tests' coupling.  Replay is kernel-independent: it
        never draws RNG, so every kernel reproduces PR-1 trajectories
        bit for bit through this path.
        """
        for step in schedule:
            self.apply_selection(step.node, step.sample)

    def apply_selection(self, node: int, sample: Sequence[int]) -> None:
        """Apply one shared ``(u, S)`` selection to every active replica.

        An empty ``sample`` is a lazy no-op (time still advances).  On a
        dynamic topology the snapshot stream advances with ``t`` (the
        step's moment weights come from the snapshot governing it), so
        replaying a recorded dynamic schedule reproduces the scalar
        wrapper bit for bit.
        """
        self._sync_snapshot()
        self.t += 1
        if len(sample) == 0:
            return
        rows = self._active_rows
        if len(rows) == 0:
            return
        sample = np.asarray(sample, dtype=np.int64)
        means = self.values[np.ix_(rows, sample)].mean(axis=1)
        nodes = np.full(len(rows), int(node), dtype=np.int64)
        self._apply_rows(rows, self._row_offsets, nodes, means)

    # ------------------------------------------------------------------
    # Block-plan helpers shared by the concrete models
    # ------------------------------------------------------------------
    def _coef_vector(self, active: int, k: int) -> np.ndarray:
        """``[beta/k ... | alpha ...]`` matching a packed cat-index row."""
        if self._coef is None or self._coef.size != (k + 1) * active:
            self._coef = np.concatenate(
                [
                    np.full(k * active, (1.0 - self.alpha) / k),
                    np.full(active, self.alpha),
                ]
            )
        return self._coef

    def _pack_plan(
        self,
        nodes: np.ndarray,
        picked: np.ndarray | Sequence[np.ndarray],
        keep: np.ndarray | None,
    ) -> BlockPlan:
        """Assemble a kernel plan from selections for the active rows.

        ``nodes`` is the per-(round, active-row) written node and
        ``picked`` the gathered neighbour(s): one ``(R, A)`` matrix for
        single-gather shapes, or ``k`` of them (a sequence, or stacked
        as ``(R, A, k)``).  The non-lazy fast path packs all flat index
        matrices into one ``[neighbours... | write]`` block so the
        kernels' inner loop needs a single fused gather per round.
        """
        offsets = self._row_offsets
        weights: np.ndarray | float
        if self._pi_common is not None:
            weights = self._pi_common
        else:
            weights = self._pi[nodes]
        rounds, active = nodes.shape
        if isinstance(picked, np.ndarray) and picked.ndim == 2:
            groups = (picked,)
        elif isinstance(picked, np.ndarray):
            groups = tuple(picked[:, :, j] for j in range(picked.shape[2]))
        else:
            groups = tuple(picked)
        k = len(groups)
        if keep is None:
            cat = np.empty((rounds, (k + 1) * active), dtype=np.int64)
            for j, group in enumerate(groups):
                np.add(
                    offsets[None, :],
                    group,
                    out=cat[:, j * active:(j + 1) * active],
                )
            np.add(offsets[None, :], nodes, out=cat[:, k * active:])
            return BlockPlan(
                write_idx=cat[:, k * active:],
                cat_idx=cat,
                coef=self._coef_vector(active, k),
                weights=weights,
                k=k,
            )
        if k == 1:
            gather_idx = offsets[None, :] + groups[0]
        else:
            gather_idx = offsets[None, :, None] + np.stack(groups, axis=-1)
        return BlockPlan(
            write_idx=offsets[None, :] + nodes,
            gather_idx=gather_idx,
            weights=weights,
            keep=keep,
            k=k,
        )

    # ------------------------------------------------------------------
    # Observables
    # ------------------------------------------------------------------
    def _ensure_moments(self) -> None:
        """Resynchronise the moment accumulators if a block left them stale.

        Also aligns the active snapshot first, so observables read at a
        switch boundary use the snapshot (and ``pi``) of the *next*
        round — matching the scalar wrapper, which rebuilds its tracker
        the moment a segment ends.
        """
        self._sync_snapshot()
        if self._moments_dirty:
            self.resync_moments()

    def resync_moments(self) -> None:
        """Recompute the pi-weighted moments exactly from the state (timed
        under an active tracer as ``engine.time.resync_s``)."""
        tracer = active_tracer()
        if tracer.enabled:
            start = time.perf_counter()
        self._flat = self.values.reshape(-1)
        self._s1 = self.values @ self._pi
        self._s2 = (self.values * self.values) @ self._pi
        self._rounds_since_resync = 0
        self._moments_dirty = False
        if tracer.enabled:
            tracer.add_time("engine.time.resync_s", time.perf_counter() - start)

    @property
    def phi(self) -> np.ndarray:
        """Per-replica potential ``phi(xi_b(t))`` (Eq. 3)."""
        self._ensure_moments()
        return np.maximum(self._s2 - self._s1 * self._s1, 0.0)

    @property
    def weighted_average(self) -> np.ndarray:
        """Per-replica martingale ``M_b(t) = <1, xi_b>_pi``."""
        self._ensure_moments()
        return self._s1.copy()

    @property
    def simple_average(self) -> np.ndarray:
        """Per-replica simple average ``Avg_b(t)``."""
        return self.values.mean(axis=1)

    @property
    def discrepancy(self) -> np.ndarray:
        """Per-replica spread ``K_b = max_u xi_b,u - min_u xi_b,u``."""
        return self.values.max(axis=1) - self.values.min(axis=1)

    @property
    def pi(self) -> np.ndarray:
        return self._pi.copy()


class BatchNodeModel(BatchAveragingProcess):
    """Batched NodeModel (Definition 2.1): uniform node, uniform k-subset."""

    def __init__(
        self,
        graph: nx.Graph | Adjacency,
        initial_values: Sequence[float] | np.ndarray,
        alpha: float,
        k: int = 1,
        replicas: int | None = None,
        seed: SeedLike = None,
        lazy: bool = False,
        kernel: str = "auto",
    ) -> None:
        self.k = int(k)
        super().__init__(
            graph,
            initial_values,
            alpha,
            replicas=replicas,
            seed=seed,
            lazy=lazy,
            kernel=kernel,
        )
        if self.graph_schedule is not None:
            # One sampler per snapshot, all sharing the schedule-wide
            # d_max, so the k > 2 key width (the RNG draw shape) does
            # not change at a switch.
            d_max = self.graph_schedule.d_max
            self._samplers = [
                SamplingBackend(a, k, d_max=d_max)
                for a in self.graph_schedule.snapshots
            ]
            self._sampler = self._samplers[0]
        else:
            self._samplers = None
            self._sampler = SamplingBackend(self.adjacency, k)
        self.k = self._sampler.k
        self._init_stepper()

    def _activate_snapshot(self, snapshot_id: int) -> None:
        super()._activate_snapshot(snapshot_id)
        self._sampler = self._samplers[snapshot_id]

    def _bind_stepper(self) -> None:
        sampler = self._sampler
        self._stepper.bind(
            degrees=sampler._degrees, table=sampler._neighbors,
            offsets=sampler._offsets,
            pi=None if self._pi_common is not None else self._pi,
        )

    def _select_batch(self, rows, row_offsets):
        if self.k == 1:
            # One uniform draw yields both the node (integer part of
            # r * n) and the neighbour slot (fractional part), which are
            # independent — halving the RNG traffic of the hot path.
            scaled = self.rng.random(rows.size) * self.n
            nodes = scaled.astype(np.int64)
            picked = self._sampler.pick_block(nodes, scaled - nodes)
            return nodes, self._flat[row_offsets + picked], picked
        # The node, then (full-key shapes) one key per neighbour slot,
        # then the subset; the picked ids are kept so the recording path
        # can observe them.
        nodes = self.rng.integers(self.n, size=rows.size)
        keys = None
        if self._sampler.uses_subset_keys:
            keys = self.rng.random((len(nodes), self._sampler.d_max))
        picked = self._sampler.pick_subsets(nodes, keys, self.rng)
        means = self.values[rows[:, None], picked].mean(axis=1)
        return nodes, means, picked

    def _plan_width(self) -> int:
        if self.k <= 2:
            return 1
        if self._sampler.uses_subset_keys:
            return self._sampler.d_max + 1
        return self.k

    def _plan_block(self, block_rounds: int) -> BlockPlan:
        # The draw itself lives in repro.engine.selection so the dual
        # engine consumes bit-identical selection streams at a fixed
        # seed (see draw_node_block for the per-shape decode contract).
        rows = self._active_rows
        nodes, picked, keep = draw_node_block(
            self._sampler,
            self.rng,
            self.n,
            block_rounds,
            self.replicas,
            rows,
            self.lazy,
        )
        if self._recording is not None:
            self._record_block(nodes, picked, keep, rows)
        return self._pack_plan(nodes, picked, keep)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchNodeModel(B={self.replicas}, n={self.n}, alpha={self.alpha}, "
            f"k={self.k}, lazy={self.lazy}, kernel={self.kernel!r}, t={self.t})"
        )


class BatchEdgeModel(BatchAveragingProcess):
    """Batched EdgeModel (Definition 2.3): uniform directed edge."""

    def __init__(
        self,
        graph: nx.Graph | Adjacency,
        initial_values: Sequence[float] | np.ndarray,
        alpha: float,
        replicas: int | None = None,
        seed: SeedLike = None,
        lazy: bool = False,
        kernel: str = "auto",
    ) -> None:
        super().__init__(
            graph,
            initial_values,
            alpha,
            replicas=replicas,
            seed=seed,
            lazy=lazy,
            kernel=kernel,
        )
        if self.graph_schedule is not None:
            self._edges = [
                (a.edge_tails, a.edge_heads)
                for a in self.graph_schedule.snapshots
            ]
            self._tails, self._heads = self._edges[0]
        else:
            self._edges = None
            self._tails = self.adjacency.edge_tails
            self._heads = self.adjacency.edge_heads
        self._init_stepper()

    def _activate_snapshot(self, snapshot_id: int) -> None:
        super()._activate_snapshot(snapshot_id)
        self._tails, self._heads = self._edges[snapshot_id]

    def _bind_stepper(self) -> None:
        self._stepper.bind(
            tails=self._tails, heads=self._heads,
            pi=None if self._pi_common is not None else self._pi,
        )

    def _select_batch(self, rows, row_offsets):
        edges = self.rng.integers(len(self._tails), size=rows.size)
        nodes = self._tails[edges]
        picked = self._heads[edges]
        return nodes, self._flat[row_offsets + picked], picked

    def _plan_block(self, block_rounds: int) -> BlockPlan:
        rows = self._active_rows
        nodes, picked, keep = draw_edge_block(
            self._tails,
            self._heads,
            self.rng,
            block_rounds,
            self.replicas,
            rows,
            self.lazy,
        )
        if self._recording is not None:
            self._record_block(nodes, picked, keep, rows)
        return self._pack_plan(nodes, picked[0], keep)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchEdgeModel(B={self.replicas}, n={self.n}, m={self.adjacency.m}, "
            f"alpha={self.alpha}, lazy={self.lazy}, kernel={self.kernel!r}, "
            f"t={self.t})"
        )
