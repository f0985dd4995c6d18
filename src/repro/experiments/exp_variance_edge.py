"""EXP-T242 — EdgeModel Var(F) on regular graphs (Theorem 2.4(2)).

On regular graphs the EdgeModel is identical in law to the NodeModel with
``k = 1``, so its ``Var(F)`` obeys the same Proposition 5.8 bounds.  We
verify both halves: the EdgeModel's Monte-Carlo variance sits in the
envelope, and it is statistically indistinguishable from the NodeModel's
(same graph, same initial values).
"""

from __future__ import annotations

import numpy as np

from repro.api import (
    ParamSpec,
    engine_param,
    experiment,
    kernel_param,
)
from repro.core.initial import center_simple, rademacher_values
from repro.engine.driver import EngineSpec
from repro.graphs.adjacency import Adjacency
from repro.graphs.generators import cycle_graph, random_regular_graph
from repro.sim.montecarlo import estimate_moments, sample_f_values
from repro.sim.results import ResultTable
from repro.theory.variance import variance_bounds, variance_envelope

ALPHA = 0.5


@experiment(
    "EXP-T242",
    artefact="Theorem 2.4(2): EdgeModel Var(F) equals NodeModel(k=1)",
    params={
        "n": ParamSpec(int, "number of nodes per graph"),
        "replicas": ParamSpec(int, "Monte-Carlo replicas per estimate"),
        "tol": ParamSpec(float, "consensus discrepancy tolerance"),
        "engine": engine_param(),
        "kernel": kernel_param(),
    },
    presets={
        "fast": {"n": 36, "replicas": 160, "tol": 1e-6},
        "full": {"n": 100, "replicas": 600, "tol": 1e-8},
    },
)
def run(
    n: int,
    replicas: int,
    tol: float,
    seed: int = 0,
    engine: str = "batch",
    kernel: str = "auto",
) -> list[ResultTable]:
    """EdgeModel vs NodeModel(k=1) variance on regular graphs.

    ``engine`` selects the replica simulator: the vectorized batch
    engine (default) or the legacy per-replica loop (the oracle).
    """
    values = center_simple(rademacher_values(n, seed=seed))
    norm_sq = float(np.sum(values**2))

    table = ResultTable(
        title="Theorem 2.4(2): EdgeModel Var(F) equals NodeModel(k=1) on regular graphs",
        columns=[
            "graph",
            "model",
            "Var_measured",
            "ci_low",
            "ci_high",
            "prop58_core",
            "env_low",
            "env_high",
        ],
    )
    for name, graph, d in [
        ("cycle (d=2)", cycle_graph(n), 2),
        ("random_regular (d=4)", random_regular_graph(n, 4, seed=seed), 4),
    ]:
        bounds = variance_bounds(graph, values, alpha=ALPHA, k=1)
        env_low, env_high = variance_envelope(n, d, 1, ALPHA, norm_sq)
        adjacency = Adjacency.from_graph(graph)
        for model, kind in [("edge", "edge"), ("node k=1", "node")]:
            spec = EngineSpec(kind, adjacency, values, ALPHA, kernel=kernel)
            sample = sample_f_values(
                spec, replicas, seed=seed + d, discrepancy_tol=tol,
                max_steps=500_000_000, engine=engine,
            )
            estimate = estimate_moments(sample, seed=seed)
            lo, hi = estimate.variance_ci
            table.add_row(
                name, model, estimate.variance, lo, hi,
                bounds.core, env_low, env_high,
            )
    table.add_note("on regular graphs the two samplers draw from the same law")
    return [table]
