"""EXP-T241 — EdgeModel convergence time vs Theorem 2.4(1).

Measures mean ``T_eps`` for the EdgeModel across both regular and
*irregular* families (the EdgeModel theorem covers arbitrary connected
graphs) and compares with ``m log(n ||xi(0)||^2 / eps) / lambda_2(L)``.
The star and barbell stress the two failure modes the bound captures:
many edges concentrated on a hub, and a bottleneck cut with tiny
``lambda_2(L)``.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.fits import ratio_statistics
from repro.api import (
    ParamSpec,
    engine_param,
    experiment,
    kernel_param,
)
from repro.core.initial import center_simple, linear_ramp
from repro.engine.driver import EngineSpec
from repro.graphs.adjacency import Adjacency
from repro.graphs.generators import (
    barbell_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    star_graph,
)
from repro.graphs.spectral import second_laplacian_eigenpair
from repro.sim.montecarlo import sample_t_eps
from repro.sim.results import ResultTable
from repro.theory.convergence import edge_model_upper_bound

ALPHA = 0.5
EPSILON = 1e-8


@experiment(
    "EXP-T241",
    artefact="Theorem 2.4(1): EdgeModel convergence time",
    params={
        "sizes": ParamSpec("ints", "graph sizes per family"),
        "replicas": ParamSpec(int, "replicas per (family, size) cell"),
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
    """Measure EdgeModel T_eps across regular and irregular graphs."""
    table = ResultTable(
        title="Theorem 2.4(1): EdgeModel T_eps vs m log(n||xi||^2/eps)/lambda2(L)",
        columns=["family", "n", "m", "lambda2(L)", "T_measured", "bound", "ratio"],
    )
    measured_all: list[float] = []
    bound_all: list[float] = []
    for n in sizes:
        for family, graph in [
            ("cycle", cycle_graph(n)),
            ("complete", complete_graph(n)),
            ("star", star_graph(n)),
            ("barbell", barbell_graph(n)),
            ("erdos_renyi", erdos_renyi_graph(n, seed=seed + n)),
        ]:
            nn = graph.number_of_nodes()
            m = graph.number_of_edges()
            initial = center_simple(linear_ramp(nn, 0.0, 1.0))
            lambda2_l, _ = second_laplacian_eigenpair(graph)
            norm_sq = float(np.sum(initial**2))
            bound = edge_model_upper_bound(nn, m, lambda2_l, norm_sq, EPSILON)
            spec = EngineSpec(
                "edge", Adjacency.from_graph(graph), initial, ALPHA,
                kernel=kernel,
            )
            times = sample_t_eps(
                spec, EPSILON, replicas, seed=seed + n, max_steps=500_000_000,
                engine=engine,
            )
            measured = float(times.mean())
            table.add_row(family, nn, m, lambda2_l, measured, bound, measured / bound)
            measured_all.append(measured)
            bound_all.append(bound)
    stats = ratio_statistics(measured_all, bound_all)
    table.add_note(
        f"ratio band max/min = {stats.band:.2f}; geometric mean = "
        f"{stats.geometric_mean:.3f} (Theorem 2.4(1) predicts an O(1) band)"
    )
    return [table]
