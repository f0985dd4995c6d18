"""EXP-T221 — NodeModel convergence time vs Theorem 2.2(1).

For each graph family and size we measure ``T_eps`` (mean over replicas)
starting from a centered linear ramp, and compare with the bound
expression ``n log(n ||xi(0)||^2 / eps) / (1 - lambda_2(P))``.  Theorem
2.2(1) predicts measured/bound ratios bounded by a constant across the
sweep (the bound is stated up to constants); the well-mixing families
(clique, random regular) and the poorly mixing cycle should *both* stay
within one band — that is the content of the spectral-gap dependence.
"""

from __future__ import annotations

import numpy as np

from repro.api import (
    ParamSpec,
    engine_param,
    experiment,
    kernel_param,
)
from repro.analysis.fits import ratio_statistics
from repro.core.initial import center_degree_weighted, linear_ramp
from repro.engine.driver import EngineSpec
from repro.graphs.adjacency import Adjacency
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    random_regular_graph,
    torus_graph,
)
from repro.graphs.spectral import second_walk_eigenpair
from repro.sim.montecarlo import sample_t_eps
from repro.sim.results import ResultTable
from repro.theory.convergence import node_model_upper_bound

ALPHA = 0.5
EPSILON = 1e-8


def _families(sizes: list, seed: int):
    yield "cycle", [(n, cycle_graph(n)) for n in sizes]
    yield "complete", [(n, complete_graph(n)) for n in sizes]
    yield "random_regular(d=4)", [
        (n, random_regular_graph(n, 4, seed=seed + n)) for n in sizes
    ]
    square_sizes = [n for n in (16, 36, 64, 144, 256) if n <= max(sizes)]
    yield "torus", [(n, torus_graph(n)) for n in square_sizes]


@experiment(
    "EXP-T221",
    artefact="Theorem 2.2(1): NodeModel convergence time",
    params={
        "sizes": ParamSpec("ints", "graph sizes per family"),
        "replicas": ParamSpec(int, "replicas per (family, size) cell"),
        "engine": engine_param(),
        "kernel": kernel_param(),
    },
    presets={
        "fast": {"sizes": [16, 32, 64], "replicas": 5},
        "full": {"sizes": [32, 64, 128, 256], "replicas": 20},
    },
)
def run(
    sizes: list,
    replicas: int,
    seed: int = 0,
    engine: str = "batch",
    kernel: str = "auto",
) -> list[ResultTable]:
    """Measure ``T_eps`` across graph families and compare to the bound."""
    table = ResultTable(
        title="Theorem 2.2(1): NodeModel T_eps vs n log(n||xi||^2/eps)/(1-lambda2)",
        columns=[
            "family",
            "n",
            "1-lambda2(P)",
            "T_measured",
            "bound",
            "ratio",
        ],
    )
    all_measured: list[float] = []
    all_bounds: list[float] = []
    for family, graphs in _families(sizes, seed):
        for n, graph in graphs:
            initial = center_degree_weighted(graph, linear_ramp(n, 0.0, 1.0))
            lambda2, _ = second_walk_eigenpair(graph)
            norm_sq = float(np.sum(initial**2))
            bound = node_model_upper_bound(n, lambda2, norm_sq, EPSILON)
            spec = EngineSpec(
                "node", Adjacency.from_graph(graph), initial, ALPHA,
                kernel=kernel,
            )
            times = sample_t_eps(
                spec, EPSILON, replicas, seed=seed + n, max_steps=200_000_000,
                engine=engine,
            )
            measured = float(times.mean())
            table.add_row(
                family, n, 1.0 - lambda2, measured, bound, measured / bound
            )
            all_measured.append(measured)
            all_bounds.append(bound)
    stats = ratio_statistics(all_measured, all_bounds)
    table.add_note(
        f"ratio band max/min = {stats.band:.2f} "
        f"(Theorem 2.2(1) predicts an O(1) band across the sweep)"
    )
    table.add_note(
        f"geometric-mean ratio = {stats.geometric_mean:.3f} "
        "(the hidden constant of the O(.))"
    )
    return [table]
