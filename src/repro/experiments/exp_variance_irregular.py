"""EXP-IRR — Var(F) on irregular graphs (the paper's second open problem).

Theorem 2.2(2) covers regular graphs only; Section 6 asks what happens on
irregular ones.  We measure ``Var(F)`` for the NodeModel and EdgeModel on
the star, lollipop and Erdős–Rényi graphs, centered for each model's own
martingale (degree-weighted vs simple), and compare against the regular-
graph envelope evaluated at the mean degree.  The star shows the largest
departure: high-degree hubs are re-selected as targets constantly, so the
NodeModel's ``F`` concentrates on the hub's value and the variance
profile shifts.
"""

from __future__ import annotations

import numpy as np

from repro.api import (
    ParamSpec,
    engine_param,
    experiment,
    kernel_param,
)
from repro.core.initial import (
    center_degree_weighted,
    center_simple,
    rademacher_values,
)
from repro.engine.driver import EngineSpec
from repro.graphs.adjacency import Adjacency
from repro.graphs.generators import erdos_renyi_graph, lollipop_graph, star_graph
from repro.sim.montecarlo import estimate_moments, sample_f_values
from repro.sim.results import ResultTable
from repro.theory.variance import variance_envelope

ALPHA = 0.5


@experiment(
    "EXP-IRR",
    artefact="Open problem: Var(F) on irregular graphs",
    params={
        "n": ParamSpec(int, "number of nodes per graph"),
        "replicas": ParamSpec(int, "Monte-Carlo replicas per estimate"),
        "tol": ParamSpec(float, "consensus discrepancy tolerance"),
        "engine": engine_param(),
        "kernel": kernel_param(),
    },
    presets={
        "fast": {"n": 30, "replicas": 150, "tol": 1e-6},
        "full": {"n": 80, "replicas": 500, "tol": 1e-8},
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
    """Empirical Var(F) on irregular graphs vs mean-degree envelope."""
    base = rademacher_values(n, seed=seed)
    table = ResultTable(
        title="Future work §6: Var(F) on irregular graphs",
        columns=[
            "graph",
            "model",
            "d_min/d_mean/d_max",
            "Var_measured",
            "env@d_mean_low",
            "env@d_mean_high",
        ],
    )
    for gname, graph in [
        ("star", star_graph(n)),
        ("lollipop", lollipop_graph(n)),
        ("erdos_renyi", erdos_renyi_graph(n, seed=seed)),
    ]:
        nn = graph.number_of_nodes()
        degrees = np.array([d for _, d in graph.degree()], dtype=float)
        d_mean = float(degrees.mean())
        d_info = f"{int(degrees.min())}/{d_mean:.1f}/{int(degrees.max())}"
        adjacency = Adjacency.from_graph(graph)
        for model_name, centering in [
            ("node", center_degree_weighted),
            ("edge", center_simple),
        ]:
            if centering is center_degree_weighted:
                initial = centering(graph, base[:nn])
            else:
                initial = centering(base[:nn])
            norm_sq = float(np.sum(initial**2))
            env_low, env_high = variance_envelope(
                nn, max(2, int(round(d_mean))), 1, ALPHA, norm_sq
            )
            spec = EngineSpec(
                model_name, adjacency, initial, ALPHA, kernel=kernel
            )
            sample = sample_f_values(
                spec, replicas, seed=seed, discrepancy_tol=tol,
                max_steps=500_000_000, engine=engine,
            )
            estimate = estimate_moments(sample, seed=seed)
            table.add_row(
                gname, model_name, d_info, estimate.variance, env_low, env_high
            )
    table.add_note(
        "centered for each model's own martingale (degree-weighted for node, "
        "simple for edge); regular-graph theory does not bound these — this "
        "is the open problem's empirical baseline"
    )
    return [table]
