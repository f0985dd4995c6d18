"""EXP-CE2 — time-dependent variance envelopes (Corollary E.2).

The martingales accumulate quadratic variation over time; Corollary E.2
bounds it crudely but *at every t*:

    NodeModel:  Var(M(t))   <= t (d_max K / (2m))^2
    EdgeModel:  Var(Avg(t)) <= t K^2 / n^2

with ``K`` the initial discrepancy.  We estimate both variances across
replicas at geometric checkpoints and report measured / bound — always
<= 1, with the bound looser at large ``t`` (the true variance saturates at
``Var(F)`` while the bound keeps growing linearly).
"""

from __future__ import annotations

import numpy as np

from repro.api import ParamSpec, experiment
from repro.core.initial import center_simple, rademacher_values
from repro.engine.driver import (
    AVERAGE,
    WEIGHTED_AVERAGE,
    EngineSpec,
    sample_checkpoints_batch,
)
from repro.graphs.adjacency import Adjacency
from repro.graphs.generators import lollipop_graph
from repro.sim.results import ResultTable
from repro.theory.variance import (
    variance_time_bound_avg,
    variance_time_bound_weighted,
)

ALPHA = 0.5


@experiment(
    "EXP-CE2",
    artefact="Corollary E.2: time-dependent variance envelopes",
    params={
        "n": ParamSpec(int, "number of nodes of the lollipop graph"),
        "replicas": ParamSpec(int, "replicas per checkpoint"),
        "checkpoints": ParamSpec("ints", "times t at which to sample"),
    },
    presets={
        "fast": {"n": 30, "replicas": 300, "checkpoints": [50, 200, 800, 3_200]},
        "full": {
            "n": 80,
            "replicas": 1_500,
            "checkpoints": [100, 1_000, 10_000, 100_000],
        },
    },
)
def run(
    n: int, replicas: int, checkpoints: list, seed: int = 0
) -> list[ResultTable]:
    """Var(M(t)) and Var(Avg(t)) vs the Corollary E.2 envelopes."""
    adjacency = Adjacency.from_graph(lollipop_graph(n))  # deliberately irregular
    initial = center_simple(rademacher_values(n, seed=seed))
    discrepancy = float(initial.max() - initial.min())
    m = adjacency.m
    d_max = adjacency.d_max

    # Record M(t) / Avg(t) at each checkpoint for each replica.
    node_seed, edge_seed = np.random.SeedSequence(seed).spawn(2)
    node_values = sample_checkpoints_batch(
        EngineSpec("node", adjacency, initial, ALPHA),
        checkpoints, replicas, seed=node_seed,
    )[:, :, WEIGHTED_AVERAGE]
    edge_values = sample_checkpoints_batch(
        EngineSpec("edge", adjacency, initial, ALPHA),
        checkpoints, replicas, seed=edge_seed,
    )[:, :, AVERAGE]

    table = ResultTable(
        title="Corollary E.2: any-time variance envelopes (lollipop graph)",
        columns=["model", "t", "Var_measured", "bound", "measured/bound", "ok"],
    )
    for j, t in enumerate(checkpoints):
        var_m = float(node_values[:, j].var(ddof=1))
        bound_m = variance_time_bound_weighted(t, d_max, m, discrepancy)
        table.add_row("node: M(t)", t, var_m, bound_m, var_m / bound_m, var_m <= bound_m)
    for j, t in enumerate(checkpoints):
        var_a = float(edge_values[:, j].var(ddof=1))
        bound_a = variance_time_bound_avg(t, n, discrepancy)
        table.add_row("edge: Avg(t)", t, var_a, bound_a, var_a / bound_a, var_a <= bound_a)
    table.add_note(
        "bounds grow linearly in t while the measured variance saturates at "
        "Var(F) — the envelopes are loose late, valid always"
    )
    return [table]
