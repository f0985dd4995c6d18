"""Batch drivers: run a replica batch to consensus, shard, parallelise.

:class:`EngineSpec` is a picklable, hashable description of one process
configuration (model kind, frozen graph, initial vector, parameters).
The drivers consume specs rather than live process objects so batches
can be rebuilt inside worker processes and results memoised on disk:

* :func:`run_to_consensus_batch` / :func:`measure_t_eps_batch` — the
  vectorized equivalents of
  :func:`repro.core.convergence.run_to_consensus` and
  :func:`~repro.core.convergence.measure_t_eps` over a live batch;
* :func:`sample_f_batch` / :func:`sample_t_eps_batch` — spec-level
  entry points that shard the replica budget into chunks (bounding peak
  memory), optionally fan the shards out over worker processes, and
  optionally memoise through :class:`repro.engine.cache.ResultCache`;
* :func:`sample_checkpoints_batch` — the fixed-horizon sampler: the
  simple average, ``M(t)`` and ``phi`` of every replica at a list of
  times, sharded the same way.
"""

from __future__ import annotations

import hashlib
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.engine.batch import (
    BatchAveragingProcess,
    BatchEdgeModel,
    BatchNodeModel,
)
from repro.engine.dynamic import GraphSchedule
from repro.engine.kernels import (
    DEFAULT_BLOCK_ROUNDS,
    resolve_kernel,
    validate_kernel,
)
from repro.exceptions import ConvergenceError, ParameterError
from repro.graphs.adjacency import Adjacency
from repro.obs.metrics import METRICS
from repro.obs.trace import Span, Tracer, activate, active_tracer
from repro.rng import SeedLike

#: Replicas per shard when the caller does not choose one.
_DEFAULT_SHARD = 1024


@dataclass(frozen=True, eq=False)
class EngineSpec:
    """Everything needed to rebuild one process configuration.

    ``kind`` is ``"node"`` or ``"edge"``; ``k`` is ignored for the edge
    model.  Instances are picklable (for multiprocessing shards),
    hashable/comparable by content (the ndarray field rules out the
    dataclass-generated ``__eq__``/``__hash__``), and expose
    :meth:`cache_token` for result memoisation.
    """

    kind: str
    adjacency: Adjacency
    initial_values: np.ndarray
    alpha: float
    k: int = 1
    lazy: bool = False
    backend: str = "auto"
    kernel: str = "auto"
    graph_schedule: Optional[GraphSchedule] = None
    block_rounds: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("node", "edge"):
            raise ParameterError(f"kind must be 'node' or 'edge', got {self.kind!r}")
        validate_kernel(self.kernel)
        if self.block_rounds is not None and self.block_rounds < 1:
            raise ParameterError(
                f"block_rounds must be positive, got {self.block_rounds}"
            )
        if (
            self.graph_schedule is not None
            and self.graph_schedule.snapshots[0] != self.adjacency
        ):
            raise ParameterError(
                "adjacency must be the graph schedule's first snapshot; "
                "use EngineSpec.for_schedule"
            )
        values = np.asarray(self.initial_values, dtype=np.float64)
        if values.shape != (self.adjacency.n,):
            raise ParameterError(
                f"initial_values must have shape ({self.adjacency.n},), "
                f"got {values.shape}"
            )
        object.__setattr__(self, "initial_values", values)

    @classmethod
    def for_schedule(
        cls, kind: str, graph_schedule: GraphSchedule, initial_values, alpha, **kwargs
    ) -> "EngineSpec":
        """Spec over a time-varying topology (adjacency filled in)."""
        return cls(
            kind=kind,
            adjacency=graph_schedule.snapshots[0],
            initial_values=initial_values,
            alpha=alpha,
            graph_schedule=graph_schedule,
            **kwargs,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EngineSpec):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.adjacency == other.adjacency
            and np.array_equal(self.initial_values, other.initial_values)
            and self.alpha == other.alpha
            and self.k == other.k
            and self.lazy == other.lazy
            and self.backend == other.backend
            and self.kernel == other.kernel
            and self.graph_schedule == other.graph_schedule
            and self.block_rounds == other.block_rounds
        )

    def __hash__(self) -> int:
        return hash((self.cache_token(), self.backend, self.kernel))

    @classmethod
    def from_process(cls, process) -> "EngineSpec":
        """Derive a spec from a scalar NodeModel / EdgeModel instance.

        Exact types only: a subclass may override the selection law, so
        it cannot be assumed batchable and raises like any other foreign
        process (callers fall back to the loop engine).
        """
        from repro.core.edge_model import EdgeModel
        from repro.core.node_model import NodeModel

        if type(process) is NodeModel:
            return cls(
                kind="node",
                adjacency=process.adjacency,
                initial_values=process._initial.copy(),
                alpha=process.alpha,
                k=process.k,
                lazy=process.lazy,
            )
        if type(process) is EdgeModel:
            return cls(
                kind="edge",
                adjacency=process.adjacency,
                initial_values=process._initial.copy(),
                alpha=process.alpha,
                lazy=process.lazy,
            )
        raise ParameterError(
            f"cannot derive an EngineSpec from {type(process).__name__}"
        )

    def build(self, replicas: int, seed: SeedLike = None) -> BatchAveragingProcess:
        """Instantiate the batch process for ``replicas`` replicas."""
        graph = (
            self.graph_schedule
            if self.graph_schedule is not None
            else self.adjacency
        )
        if self.kind == "node":
            batch: BatchAveragingProcess = BatchNodeModel(
                graph,
                self.initial_values,
                self.alpha,
                k=self.k,
                replicas=replicas,
                seed=seed,
                lazy=self.lazy,
                backend=self.backend,
                kernel=self.kernel,
            )
        else:
            batch = BatchEdgeModel(
                graph,
                self.initial_values,
                self.alpha,
                replicas=replicas,
                seed=seed,
                lazy=self.lazy,
                backend=self.backend,
                kernel=self.kernel,
            )
        if self.block_rounds is not None:
            batch.block_rounds = int(self.block_rounds)
        return batch

    def cache_token(self) -> str:
        """Deterministic text token identifying this configuration.

        Backends are bit-identical at a fixed seed and do not
        participate.  Kernels split into RNG *stream classes*: the
        legacy per-round ``"numpy"`` layout and the block layout shared
        (bit-identically) by ``"fused"`` and ``"jit"`` — cached samples
        are keyed by stream class so a fused run reuses a jit run's
        results while legacy runs stay distinct.  The stream class is
        computed via :func:`~repro.engine.kernels.resolve_kernel`, and
        ``kernel="auto"`` only ever resolves to a block kernel.  Block
        streams additionally key on the (normalised) ``block_rounds``:
        the realized trajectory of the rejection-sampled high-degree
        ``k``-subset regime depends on the block size, so a cache hit
        across differing block sizes must be impossible.  Dynamic
        topologies append the schedule's content hash, which
        pins the full snapshot stream (snapshots, cadence, kind, seed).
        """
        values = np.ascontiguousarray(self.initial_values)
        digest = hashlib.sha256(values.tobytes()).hexdigest()[:16]
        k = self.k if self.kind == "node" else 1
        stream = "legacy" if resolve_kernel(self.kernel) == "numpy" else "block"
        token = (
            f"{self.kind}|g={self.adjacency.content_hash()[:16]}"
            f"|x0={digest}|alpha={self.alpha!r}|k={k}|lazy={int(self.lazy)}"
            f"|stream={stream}"
        )
        if stream != "legacy":
            rounds = (
                DEFAULT_BLOCK_ROUNDS
                if self.block_rounds is None
                else int(self.block_rounds)
            )
            token += f"|br={rounds}"
        if self.graph_schedule is not None:
            token += f"|sched={self.graph_schedule.content_hash()[:16]}"
        return token


@dataclass(frozen=True)
class BatchConsensusResult:
    """Per-replica outcome of a batched run-to-consensus.

    Arrays are aligned with the batch dimension: ``t[b]`` steps executed,
    ``value[b]`` the consensus value ``F_b``, plus the residual spread
    and potential at stopping time.
    """

    t: np.ndarray
    value: np.ndarray
    residual_discrepancy: np.ndarray
    phi: np.ndarray

    def __len__(self) -> int:
        return len(self.value)


#: Traced consensus runs record ``engine.max_discrepancy`` on every
#: this-many-th harvest check (``engine.active_replicas`` on every one).
DISCREPANCY_SAMPLE_EVERY = 16


def run_to_consensus_batch(
    batch: BatchAveragingProcess,
    discrepancy_tol: float = 1e-9,
    max_steps: int = 50_000_000,
    check_every: int = 64,
) -> BatchConsensusResult:
    """Run every replica until its value spread falls below the tolerance.

    The vectorized counterpart of
    :func:`repro.core.convergence.run_to_consensus`: the spread check runs
    every ``check_every`` rounds, converged replicas freeze immediately,
    and a :class:`ConvergenceError` is raised if any replica exhausts
    ``max_steps``.

    The check does not rescan every active row.  Each replica keeps a
    *witness pair*, the argmax and argmin nodes of its last full scan.
    A row whose witness gap ``|x_hi - x_lo|`` exceeds the tolerance
    cannot have converged: its spread ``max - min`` is at least that
    gap, and floating-point subtraction rounds monotonically, so the
    computed spread is too.  Only the other rows get the O(n)
    argmax/argmin scan, which refreshes their witnesses and decides
    freezing exactly as a full scan would, so ``t``, ``value``,
    ``residual_discrepancy`` and ``phi`` do not depend on the shortcut.
    The counters ``engine.harvest.rows`` and
    ``engine.harvest.scanned_rows`` count the active rows tested and
    the rows scanned, once per check.
    """
    if discrepancy_tol <= 0:
        raise ParameterError(f"discrepancy_tol must be positive, got {discrepancy_tol}")
    if check_every < 1:
        raise ParameterError(f"check_every must be positive, got {check_every}")

    B = batch.replicas
    t = np.zeros(B, dtype=np.int64)
    value = np.empty(B, dtype=np.float64)
    residual = np.empty(B, dtype=np.float64)
    phi_out = np.empty(B, dtype=np.float64)
    # Witness nodes of each replica's last scan; equal witnesses have a
    # zero gap, so the first check scans every row.
    hi = np.zeros(B, dtype=np.int64)
    lo = np.zeros(B, dtype=np.int64)

    def _harvest(start: int) -> None:
        rows = batch._active_rows
        if len(rows) == 0:
            return
        values = batch.values
        gap = values[rows, hi[rows]] - values[rows, lo[rows]]
        # `not >` rather than `<=`: a NaN gap is scanned, never skipped.
        scan = rows[~(np.abs(gap) > discrepancy_tol)]
        METRICS.count("engine.harvest.rows", len(rows))
        METRICS.count("engine.harvest.scanned_rows", len(scan))
        if len(scan) == 0:
            return
        # Reduce over the full matrix when every row is scanned (no
        # (B, n) copy); otherwise over the gathered candidate rows.
        candidates = values if len(scan) == B else values[scan]
        top = candidates.argmax(axis=1)
        bottom = candidates.argmin(axis=1)
        hi[scan] = top
        lo[scan] = bottom
        within = np.arange(len(scan))
        spread = candidates[within, top] - candidates[within, bottom]
        mask = spread <= discrepancy_tol
        if not mask.any():
            return
        done = scan[mask]
        finished = candidates[mask]
        # The finished rows' moments use the pi of the round about to
        # run, as batch.phi does at a snapshot switch.
        batch._sync_snapshot()
        pi = batch._pi
        s1 = finished @ pi
        s2 = (finished**2) @ pi
        t[done] = batch.t - start
        value[done] = finished.mean(axis=1)
        # max - min rather than spread[mask]: the same bits as a full
        # scan even where argmax and max disagree on the sign of a zero.
        residual[done] = finished.max(axis=1) - finished.min(axis=1)
        phi_out[done] = np.maximum(s2 - s1 * s1, 0.0)
        batch.freeze(done)

    tracer = active_tracer()
    start = batch.t
    checks = 0
    _harvest(start)
    while batch.num_active and batch.t - start < max_steps:
        remaining = max_steps - (batch.t - start)
        batch.run(min(check_every, remaining))
        _harvest(start)
        if tracer.enabled:
            # Harvest checks are chunk boundaries: sampling here cannot
            # change how many rounds run or what the RNG draws.
            tracer.record("engine.active_replicas", batch.t, batch.num_active)
            rows = batch._active_rows
            # The spread is a full (A, n) scan, so it is sampled on the
            # first check and every DISCREPANCY_SAMPLE_EVERY-th after.
            if len(rows) and checks % DISCREPANCY_SAMPLE_EVERY == 0:
                tracer.record(
                    "engine.max_discrepancy",
                    batch.t,
                    float(batch.discrepancy[rows].max()),
                )
        checks += 1
    if tracer.enabled:
        tracer.streams.histogram("consensus_rounds", t)
    if batch.num_active:
        rows = batch._active_rows
        worst = float(batch.discrepancy[rows].max())
        raise ConvergenceError(
            f"{len(rows)} of {B} replicas above tol = {discrepancy_tol:.3e} "
            f"(worst spread {worst:.3e}) after {max_steps} steps"
        )
    return BatchConsensusResult(
        t=t, value=value, residual_discrepancy=residual, phi=phi_out
    )


def measure_t_eps_batch(
    batch: BatchAveragingProcess,
    epsilon: float,
    max_steps: int,
) -> np.ndarray:
    """Per-replica ``T_eps`` via the batch's exact per-round detection.

    Raises :class:`ConvergenceError` when any replica exhausts the step
    budget, matching :func:`repro.core.convergence.measure_t_eps`.
    """
    hit = batch.run_until_phi(epsilon, max_steps)
    if np.any(hit < 0):
        raise ConvergenceError(
            f"{int(np.sum(hit < 0))} of {batch.replicas} replicas above "
            f"epsilon = {epsilon:.3e} after {max_steps} steps"
        )
    return hit


# ----------------------------------------------------------------------
# Spec-level sampling: sharding, multiprocessing, caching
# ----------------------------------------------------------------------
#: Observable columns (last axis) of :func:`sample_checkpoints_batch`.
AVERAGE, WEIGHTED_AVERAGE, PHI = 0, 1, 2


def _shard_sizes(replicas: int, shard_size: int) -> list[int]:
    full, rest = divmod(replicas, shard_size)
    return [shard_size] * full + ([rest] if rest else [])


def _run_shard_f(
    spec: EngineSpec,
    replicas: int,
    seed: np.random.SeedSequence,
    discrepancy_tol: float,
    max_steps: int,
) -> np.ndarray:
    batch = spec.build(replicas, seed=seed)
    return run_to_consensus_batch(
        batch, discrepancy_tol=discrepancy_tol, max_steps=max_steps
    ).value


def _run_shard_t(
    spec: EngineSpec,
    replicas: int,
    seed: np.random.SeedSequence,
    epsilon: float,
    max_steps: int,
) -> np.ndarray:
    batch = spec.build(replicas, seed=seed)
    return measure_t_eps_batch(batch, epsilon, max_steps).astype(np.float64)


def _run_shard_checkpoints(
    spec: EngineSpec,
    replicas: int,
    seed: np.random.SeedSequence,
    checkpoints: list,
) -> np.ndarray:
    batch = spec.build(replicas, seed=seed)
    out = np.empty((replicas, len(checkpoints), 3))
    previous = 0
    for j, t in enumerate(checkpoints):
        batch.run(t - previous)
        previous = t
        out[:, j, AVERAGE] = batch.simple_average
        out[:, j, WEIGHTED_AVERAGE] = batch.weighted_average
        out[:, j, PHI] = batch.phi
    return out


def _traced_worker(worker, spec: EngineSpec, replicas: int, seed, args):
    """Run ``worker`` in a child process under its own tracer.

    Returns ``(result, span_payloads, counter_delta)``: the worker's
    spans travel back through the ordinary shard-result plumbing and are
    re-attached under the parent's shard span; the counter delta (taken
    against a baseline so pool-reused workers never double-count) is
    folded into the parent's registry.
    """
    baseline = METRICS.snapshot()
    tracer = Tracer()
    with activate(tracer), tracer.span(
        "engine.worker", pid=os.getpid(), replicas=replicas
    ):
        out = worker(spec, replicas, seed, *args)
    return out, tracer.to_payload(), METRICS.delta(baseline)["counters"]


def _run_sharded(
    worker,
    spec: EngineSpec,
    replicas: int,
    seed: SeedLike,
    shard_size: Optional[int],
    processes: int,
    *args,
) -> np.ndarray:
    if replicas < 1:
        raise ParameterError(f"replicas must be positive, got {replicas}")
    if processes < 1:
        raise ParameterError(f"processes must be positive, got {processes}")
    shard_size = shard_size or _DEFAULT_SHARD
    sizes = _shard_sizes(replicas, shard_size)
    if isinstance(seed, np.random.SeedSequence):
        children = seed.spawn(len(sizes))
    elif isinstance(seed, np.random.Generator):
        children = seed.bit_generator.seed_seq.spawn(len(sizes))  # type: ignore[union-attr]
    else:
        children = np.random.SeedSequence(seed).spawn(len(sizes))
    tracer = active_tracer()
    if processes == 1 or len(sizes) == 1:
        parts = []
        for index, (size, child) in enumerate(zip(sizes, children)):
            t0 = time.perf_counter()
            with tracer.span("engine.shard", shard=index, replicas=size):
                parts.append(worker(spec, size, child, *args))
            METRICS.gauge("engine.shard_seconds", time.perf_counter() - t0)
    elif not tracer.enabled:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            futures = [
                pool.submit(worker, spec, size, child, *args)
                for size, child in zip(sizes, children)
            ]
            parts = [f.result() for f in futures]
    else:
        # Traced fan-out: each worker runs under its own tracer and
        # ships its spans (plus run-scoped counters) back with the
        # shard result; the parent re-attaches them under a per-shard
        # span, shifted onto its own clock.
        with ProcessPoolExecutor(max_workers=processes) as pool:
            futures = [
                pool.submit(_traced_worker, worker, spec, size, child, args)
                for size, child in zip(sizes, children)
            ]
            parts = []
            for index, future in enumerate(futures):
                t0 = time.perf_counter()
                with tracer.span(
                    "engine.shard", shard=index, replicas=sizes[index]
                ) as handle:
                    out, span_payloads, counters = future.result()
                METRICS.gauge("engine.shard_seconds", time.perf_counter() - t0)
                worker_spans = [Span.from_payload(p) for p in span_payloads]
                tracer.attach(handle.span, worker_spans, handle.span.start)
                if worker_spans:
                    handle.add(worker_s=worker_spans[0].duration)
                for name, value in counters.items():
                    METRICS.count(name, value)
                parts.append(out)
    return np.concatenate(parts)


def sample_f_batch(
    spec: EngineSpec,
    replicas: int,
    seed: SeedLike = None,
    discrepancy_tol: float = 1e-8,
    max_steps: int = 50_000_000,
    shard_size: Optional[int] = None,
    processes: int = 1,
    cache: "Optional[object]" = None,
) -> np.ndarray:
    """I.i.d. samples of the convergence value ``F`` from the batch engine.

    ``shard_size`` bounds each batch's memory footprint (replicas are
    split into chunks of at most this many rows); ``processes > 1`` fans
    the shards out across worker processes; ``cache`` (a
    :class:`repro.engine.cache.ResultCache`) memoises the whole call when
    the seed is deterministic.
    """
    params = (
        f"F|tol={discrepancy_tol!r}|max={max_steps}|r={replicas}"
        f"|shard={shard_size or _DEFAULT_SHARD}"
    )
    tracer = active_tracer()
    with tracer.span(
        "engine.sample_f", replicas=replicas, processes=processes
    ) as handle:
        if cache is not None:
            with tracer.span("cache.load"):
                hit = cache.load(spec, params, seed)
            if hit is not None:
                handle.add(cache="hit")
                return hit
        out = _run_sharded(
            _run_shard_f,
            spec,
            replicas,
            seed,
            shard_size,
            processes,
            discrepancy_tol,
            max_steps,
        )
        if cache is not None:
            with tracer.span("cache.store"):
                cache.store(spec, params, seed, out)
    return out


def sample_t_eps_batch(
    spec: EngineSpec,
    epsilon: float,
    replicas: int,
    seed: SeedLike = None,
    max_steps: int = 50_000_000,
    shard_size: Optional[int] = None,
    processes: int = 1,
    cache: "Optional[object]" = None,
) -> np.ndarray:
    """I.i.d. samples of the convergence time ``T_eps`` (batch engine)."""
    params = (
        f"T|eps={epsilon!r}|max={max_steps}|r={replicas}"
        f"|shard={shard_size or _DEFAULT_SHARD}"
    )
    tracer = active_tracer()
    with tracer.span(
        "engine.sample_t_eps", replicas=replicas, processes=processes
    ) as handle:
        if cache is not None:
            with tracer.span("cache.load"):
                hit = cache.load(spec, params, seed)
            if hit is not None:
                handle.add(cache="hit")
                return hit
        out = _run_sharded(
            _run_shard_t,
            spec,
            replicas,
            seed,
            shard_size,
            processes,
            epsilon,
            max_steps,
        )
        if cache is not None:
            with tracer.span("cache.store"):
                cache.store(spec, params, seed, out)
    if tracer.enabled:
        tracer.streams.histogram("t_eps_rounds", out)
    return out


def sample_checkpoints_batch(
    spec: EngineSpec,
    checkpoints,
    replicas: int,
    seed: SeedLike = None,
    shard_size: Optional[int] = None,
    processes: int = 1,
) -> np.ndarray:
    """Observables of i.i.d. replicas at fixed times (batch engine).

    Returns a ``(replicas, len(checkpoints), 3)`` array whose last axis
    holds, at each time ``t`` of the non-decreasing ``checkpoints``, the
    simple average ``Avg(t)`` (column :data:`AVERAGE`), the weighted
    average ``M(t) = <1, xi(t)>_pi`` (:data:`WEIGHTED_AVERAGE`) and the
    potential ``phi(xi(t))`` (:data:`PHI`).  Each shard runs one batch
    forward by ``batch.run(t - previous)``.  The output is bit-identical
    across ``block_rounds``, except on the rejection-sampled ``k > 1``
    path for very high-degree graphs (see :mod:`repro.engine.kernels`).
    """
    checkpoints = [int(t) for t in checkpoints]
    if any(t < 0 for t in checkpoints):
        raise ParameterError(f"checkpoints must be non-negative, got {checkpoints}")
    if any(b < a for a, b in zip(checkpoints, checkpoints[1:])):
        raise ParameterError(f"checkpoints must be non-decreasing, got {checkpoints}")
    with active_tracer().span(
        "engine.sample_checkpoints", replicas=replicas, processes=processes
    ):
        return _run_sharded(
            _run_shard_checkpoints,
            spec,
            replicas,
            seed,
            shard_size,
            processes,
            checkpoints,
        )
