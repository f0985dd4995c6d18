"""repro — a reproduction of "Distributed Averaging in Opinion Dynamics".

Berenbrink, Cooper, Gava, Mallmann-Trenn, Radzik, Kohan Marzagão, Rivera —
PODC 2023 (arXiv:2211.17125).

Quickstart::

    import networkx as nx
    from repro import NodeModel, run_to_consensus

    graph = nx.random_regular_graph(4, 100, seed=1)
    values = [float(i % 10) for i in range(100)]
    process = NodeModel(graph, values, alpha=0.5, k=2, seed=7)
    result = run_to_consensus(process)
    print(result.value)   # close to the (degree-weighted) initial average

To estimate Monte-Carlo quantities over many replicas, the batch engine
simulates all of them simultaneously as one ``(B, n)`` matrix::

    from repro import BatchNodeModel, run_to_consensus_batch

    batch = BatchNodeModel(graph, values, alpha=0.5, k=2,
                           replicas=1000, seed=7)
    result = run_to_consensus_batch(batch, discrepancy_tol=1e-8)
    print(result.value.var())   # Var(F) from 1000 replicas at array speed

``sample_f_values`` below takes the configuration as an ``EngineSpec``
and runs this engine by default; ``engine="loop"`` runs one scalar
process per replica from the same spec (the oracle)::

    from repro import Adjacency, EngineSpec, sample_f_values

    spec = EngineSpec("node", Adjacency.from_graph(graph), values,
                      alpha=0.5, k=2)
    sample = sample_f_values(spec, 1000, seed=7)

Subpackages
-----------
``repro.core``
    The NodeModel / EdgeModel averaging processes, potentials,
    convergence measurement, initial-value workloads.
``repro.graphs``
    Graph generators, compact adjacency, spectral toolkit.
``repro.engine``
    Vectorized batch-replica simulation engine: ``BatchNodeModel`` /
    ``BatchEdgeModel`` advance B independent replicas per NumPy round,
    sampling neighbours straight off the CSR arrays, with convergence
    masking, replica sharding across processes, and an on-disk result
    cache.  Identical in law to ``repro.core`` (the oracle), 1-2 orders
    of magnitude faster per replica.
``repro.dual``
    The Diffusion Process, Random Walk Process, Q-chain and the
    executable duality of Section 5.
``repro.theory``
    Closed-form bounds: convergence times, contraction factors,
    ``Var(F)`` envelopes, martingale structure.
``repro.baselines``
    Voter model, pairwise gossip and push-sum: the baselines EXP-PRICE
    compares the NodeModel against.
``repro.sim`` / ``repro.analysis``
    Monte-Carlo replication, moment estimation, scaling fits, tables.
``repro.experiments``
    One module per paper artefact (figures, theorems); each registers
    itself with ``repro.api`` and regenerates the corresponding result
    table.
``repro.api``
    The declarative run API: ``RunSpec`` / ``RunResult`` with full
    provenance, the ``@experiment`` registration decorator, the
    manifest-indexed ``ArtifactStore``, and ``execute`` — the single
    execution path behind the ``repro run | list | sweep | diff`` CLI::

        from repro.api import ArtifactStore, RunSpec, execute

        result = execute(RunSpec("EXP-T222", overrides={"engine": "loop"}))
        ArtifactStore("results/").save(result)
"""

from repro.api import (
    ArtifactStore,
    RunResult,
    RunSpec,
    execute,
)
from repro.core import (
    EdgeModel,
    NodeModel,
    Schedule,
    measure_t_eps,
    run_to_consensus,
)
from repro.dual import (
    DiffusionProcess,
    QChain,
    RandomWalkProcess,
    run_coupled,
    verify_duality,
)
from repro.engine import (
    BatchEdgeModel,
    BatchNodeModel,
    EngineSpec,
    ResultCache,
    run_to_consensus_batch,
)
from repro.exceptions import (
    ConvergenceError,
    GraphError,
    NotConnectedError,
    NotRegularError,
    ParameterError,
    ReproError,
    ScheduleError,
)
from repro.graphs import Adjacency
from repro.sim import ResultTable, estimate_moments, sample_f_values
from repro.theory import variance_bounds, variance_envelope

__version__ = "1.0.0"

__all__ = [
    "Adjacency",
    "ArtifactStore",
    "BatchEdgeModel",
    "BatchNodeModel",
    "ConvergenceError",
    "DiffusionProcess",
    "EdgeModel",
    "EngineSpec",
    "GraphError",
    "NodeModel",
    "NotConnectedError",
    "NotRegularError",
    "ParameterError",
    "QChain",
    "RandomWalkProcess",
    "ReproError",
    "ResultCache",
    "ResultTable",
    "RunResult",
    "RunSpec",
    "Schedule",
    "ScheduleError",
    "estimate_moments",
    "execute",
    "measure_t_eps",
    "run_coupled",
    "run_to_consensus",
    "run_to_consensus_batch",
    "sample_f_values",
    "variance_bounds",
    "variance_envelope",
    "verify_duality",
]
