"""Vectorized batch-replica simulation engine.

Simulates ``B`` independent replicas of the averaging processes as one
``(B, n)`` value matrix with fully vectorized NumPy rounds — batched
node/edge selection, batched k-neighbour sampling straight off the
graph's CSR arrays, incremental per-replica potential tracking, and
convergence masking so finished replicas stop costing work.  Identical
in law to the scalar :mod:`repro.core` processes (which remain the
correctness oracle), 1–2 orders of magnitude faster per replica.

Layers
------
:mod:`repro.engine.backend`
    Batched k-neighbour sampling: one gather from the CSR arrays;
    dynamic topologies keep one sampler per snapshot.
:mod:`repro.engine.dynamic`
    Time-varying topologies: ``GraphSchedule`` (cyclic / random /
    edge-rewiring snapshot streams) consumed by the batch models.
:mod:`repro.engine.batch`
    ``BatchNodeModel`` / ``BatchEdgeModel`` and their lazy variants.
:mod:`repro.engine.kernels`
    Fused multi-round stepping kernels: pre-drawn block randomness, a
    minimal-dispatch NumPy inner loop and a compiled C ``"jit"`` loop
    built with the system compiler; the full dial is ``kernel="auto"|"numpy"|"fused"|"jit"``.
:mod:`repro.engine.driver`
    Run-to-consensus over a batch, replica sharding, multiprocessing,
    and the picklable :class:`~repro.engine.driver.EngineSpec`.
:mod:`repro.engine.cache`
    On-disk memoisation keyed by (model, graph hash, alpha, k, seed,
    tolerance) so repeated sweeps resume for free.
:mod:`repro.engine.selection`
    The single home of block-selection drawing (shared by the primal
    block kernels and the dual engine) and recorded per-replica
    selection streams.
:mod:`repro.engine.dual`
    The batch dual engine: ``BatchDiffusion`` / ``BatchWalks`` /
    ``BatchCoalescing``, ``DualSpec`` cache keying, sharded
    coalescence-time sampling, and the engine-scale Lemma 5.2
    shared-schedule duality harness (``run_duality_batch``).
"""

from repro.engine.backend import SamplingBackend
from repro.engine.dynamic import (
    SCHEDULE_KINDS,
    CyclicSchedule,
    GraphSchedule,
    RandomSchedule,
    RewiringSchedule,
    build_schedule,
)
from repro.engine.kernels import (
    KERNEL_CHOICES,
    resolve_kernel,
    validate_kernel,
)
from repro.engine.batch import (
    BatchAveragingProcess,
    BatchEdgeModel,
    BatchNodeModel,
)
from repro.engine.cache import ResultCache
from repro.engine.dual import (
    DUAL_KINDS,
    BatchCoalescing,
    BatchDiffusion,
    BatchDualityReport,
    BatchWalks,
    DualSpec,
    run_duality_batch,
    sample_coalescence_times,
)
from repro.engine.selection import RecordedSelections
from repro.engine.driver import (
    BatchConsensusResult,
    EngineSpec,
    measure_t_eps_batch,
    run_to_consensus_batch,
    sample_checkpoints_batch,
    sample_f_batch,
    sample_t_eps_batch,
)

__all__ = [
    "BatchAveragingProcess",
    "BatchCoalescing",
    "BatchConsensusResult",
    "BatchDiffusion",
    "BatchDualityReport",
    "BatchEdgeModel",
    "BatchNodeModel",
    "BatchWalks",
    "DUAL_KINDS",
    "DualSpec",
    "RecordedSelections",
    "run_duality_batch",
    "sample_coalescence_times",
    "CyclicSchedule",
    "EngineSpec",
    "GraphSchedule",
    "KERNEL_CHOICES",
    "RandomSchedule",
    "ResultCache",
    "RewiringSchedule",
    "SCHEDULE_KINDS",
    "SamplingBackend",
    "build_schedule",
    "measure_t_eps_batch",
    "resolve_kernel",
    "validate_kernel",
    "run_to_consensus_batch",
    "sample_checkpoints_batch",
    "sample_f_batch",
    "sample_t_eps_batch",
]
