"""EXP-T221LB — tightness of the convergence bounds (Proposition B.2).

Starting from the adversarial eigenvector-aligned state
``xi(0) = n f_2(P)`` (NodeModel) / ``xi(0) = n f_2(L)`` (EdgeModel), the
expected convergence time is *Omega* of the same expression as the upper
bound — i.e. the bounds are tight up to constants.  We measure mean
``T_eps`` from those states and report the measured/lower-bound ratio,
which should be Theta(1) (and >= the ratio from benign initial states).
"""

from __future__ import annotations

import numpy as np

from repro.api import (
    ParamSpec,
    engine_param,
    experiment,
    kernel_param,
)
from repro.core.initial import fiedler_aligned, second_eigenvector_aligned
from repro.engine.driver import EngineSpec
from repro.graphs.adjacency import Adjacency
from repro.graphs.generators import cycle_graph, random_regular_graph
from repro.graphs.spectral import second_laplacian_eigenpair, second_walk_eigenpair
from repro.sim.montecarlo import sample_t_eps
from repro.sim.results import ResultTable
from repro.theory.convergence import (
    edge_model_lower_bound,
    node_model_lower_bound,
)

ALPHA = 0.5
EPSILON = 1e-6


@experiment(
    "EXP-T221LB",
    artefact="Proposition B.2: tightness of the convergence bounds",
    params={
        "sizes": ParamSpec("ints", "graph sizes"),
        "replicas": ParamSpec(int, "replicas per (model, graph, size) cell"),
        "engine": engine_param(),
        "kernel": kernel_param(),
    },
    presets={
        "fast": {"sizes": [16, 32], "replicas": 5},
        "full": {"sizes": [32, 64, 128], "replicas": 20},
    },
)
def run(
    sizes: list,
    replicas: int,
    seed: int = 0,
    engine: str = "batch",
    kernel: str = "auto",
) -> list[ResultTable]:
    """Measure T_eps from the Prop. B.2 worst-case initial states."""
    table = ResultTable(
        title="Proposition B.2: lower-bound tightness from xi(0) = n f_2",
        columns=["model", "graph", "n", "T_measured", "lower_bound_expr", "ratio"],
    )
    for n in sizes:
        for name, graph in [
            ("cycle", cycle_graph(n)),
            ("random_regular(d=4)", random_regular_graph(n, 4, seed=seed + n)),
        ]:
            adjacency = Adjacency.from_graph(graph)
            # NodeModel with xi(0) = n f_2(P).
            initial = second_eigenvector_aligned(graph)
            lambda2, _ = second_walk_eigenpair(graph)
            norm_sq = float(np.sum(initial**2))
            bound = node_model_lower_bound(n, lambda2, norm_sq, EPSILON, ALPHA)
            times = sample_t_eps(
                EngineSpec("node", adjacency, initial, ALPHA, kernel=kernel),
                EPSILON, replicas, seed=seed + n, max_steps=500_000_000,
                engine=engine,
            )
            table.add_row("node", name, n, float(times.mean()), bound,
                          float(times.mean()) / bound)

            # EdgeModel with xi(0) = n f_2(L).
            initial_e = fiedler_aligned(graph)
            lambda2_l, _ = second_laplacian_eigenpair(graph)
            m = graph.number_of_edges()
            norm_sq_e = float(np.sum(initial_e**2))
            bound_e = edge_model_lower_bound(
                n, m, lambda2_l, norm_sq_e, EPSILON, ALPHA
            )
            times_e = sample_t_eps(
                EngineSpec("edge", adjacency, initial_e, ALPHA, kernel=kernel),
                EPSILON, replicas, seed=seed + n + 1, max_steps=500_000_000,
                engine=engine,
            )
            table.add_row("edge", name, n, float(times_e.mean()), bound_e,
                          float(times_e.mean()) / bound_e)
    table.add_note(
        "ratios bounded away from 0 across n confirm tightness up to constants"
    )
    return [table]
