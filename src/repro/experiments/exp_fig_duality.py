"""EXP-F1 / EXP-F4 — regenerate Figures 1 and 4 (duality worked examples).

Figure 1: triangle graph, ``xi(0) = [6, 8, 9]``, ``alpha = 1/2, k = 1``;
the paper prints ``xi(1) = [7, 8, 9]``, ``xi(2) = [7, 15/2, 9]`` and shows
the backwards Diffusion Process reproducing ``W(2) = xi(2)^T`` exactly.
Figure 4 repeats this with ``k = 2`` (``xi(2) = [29/4, 129/16, 9]``).

Beyond the two fixed examples, the runners stress the Lemma 5.2 duality
at two scales: small random graphs through the scalar coupling
(:func:`repro.dual.duality.run_coupled`), and an **engine-scale
shared-schedule harness** (:func:`repro.engine.dual.run_duality_batch`)
that runs ``B`` primal replicas forward through the batch engine — under
the selected ``kernel`` — and replays every replica's reversed recorded
selection stream through one batch diffusion.  ``engine="loop"``
estimates the same table with per-replica scalar couplings (the
oracle); both are pass/fail at machine precision.
"""

from __future__ import annotations

import numpy as np

from repro.api import ParamSpec, engine_param, experiment, kernel_param
from repro.core.initial import gaussian_values
from repro.dual.duality import (
    FigureTrace,
    figure1_trace,
    figure4_trace,
    run_coupled,
)
from repro.engine.dual import run_duality_batch
from repro.graphs.adjacency import Adjacency
from repro.graphs.generators import erdos_renyi_graph, random_regular_graph
from repro.rng import spawn
from repro.sim.results import ResultTable

#: Exactness threshold of the machine-precision duality checks.
_ATOL = 1e-9


def _figure_table(title: str, figure: FigureTrace) -> ResultTable:
    table = ResultTable(
        title=title,
        columns=["t", "xi_1", "xi_2", "xi_3", "paper_1", "paper_2", "paper_3", "match"],
    )
    for t, (row, paper) in enumerate(zip(figure.trace.xi, figure.expected_xi)):
        table.add_row(
            t,
            float(row[0]),
            float(row[1]),
            float(row[2]),
            float(paper[0]),
            float(paper[1]),
            float(paper[2]),
            bool(np.allclose(row, paper)),
        )
    table.add_note(
        f"duality residual max|W(T) - xi(T)| = {figure.trace.max_error:.3e}"
    )
    return table


def _random_duality_table(steps: int, seed: int) -> ResultTable:
    table = ResultTable(
        title="Lemma 5.2 duality on random graphs/schedules",
        columns=["graph", "n", "k", "alpha", "steps", "max_error", "exact"],
    )
    cases = [
        ("random_regular(d=4)", random_regular_graph(12, 4, seed=seed), 1, 0.5),
        ("random_regular(d=4)", random_regular_graph(12, 4, seed=seed + 1), 3, 0.3),
        ("erdos_renyi", erdos_renyi_graph(15, 0.4, seed=seed + 2), 1, 0.7),
    ]
    for name, graph, k, alpha in cases:
        n = graph.number_of_nodes()
        initial = gaussian_values(n, seed=seed + 10)
        trace = run_coupled(graph, initial, alpha=alpha, k=k, steps=steps, seed=seed)
        table.add_row(name, n, k, alpha, steps, trace.max_error, trace.max_error < _ATOL)
    return table


def _loop_duality_error(
    adjacency: Adjacency,
    initial: np.ndarray,
    alpha: float,
    k: int,
    kind: str,
    lazy: bool,
    steps: int,
    replicas: int,
    seed: int,
) -> float:
    """Worst per-replica scalar-coupling residual (the loop oracle).

    Runs the *scalar* process of the requested kind (node or edge, lazy
    included) with schedule recording on and replays the reversed
    schedule through the scalar diffusion — the per-replica analogue of
    the batch harness.
    """
    from repro.core.edge_model import EdgeModel
    from repro.core.node_model import NodeModel
    from repro.dual.diffusion import DiffusionProcess

    worst = 0.0
    for rng in spawn(seed, replicas):
        if kind == "node":
            process = NodeModel(
                adjacency, initial, alpha=alpha, k=k, seed=rng, lazy=lazy,
                record_schedule=True,
            )
        else:
            process = EdgeModel(
                adjacency, initial, alpha=alpha, seed=rng, lazy=lazy,
                record_schedule=True,
            )
        for _ in range(steps):
            process.step()
        diffusion = DiffusionProcess(
            adjacency, cost=initial, alpha=alpha,
            k=k if kind == "node" else 1,
        )
        diffusion.replay(process.schedule.reversed())
        worst = max(
            worst, float(np.abs(diffusion.costs - process.values).max())
        )
    return worst


def _engine_duality_table(
    cases,
    replicas: int,
    steps: int,
    seed: int,
    engine: str,
    kernel: str,
) -> ResultTable:
    """Shared-schedule duality at engine scale, one row per case."""
    table = ResultTable(
        title=(
            "Lemma 5.2 at engine scale: primal forward vs batch diffusion "
            "on the reversed recorded stream"
        ),
        columns=[
            "case", "kind", "n", "B", "steps", "engine", "max_error",
            "exact",
        ],
    )
    for label, graph, kind, k, alpha, lazy in cases:
        adjacency = Adjacency.from_graph(graph)
        initial = gaussian_values(adjacency.n, seed=seed + 17)
        if engine == "batch":
            report = run_duality_batch(
                adjacency,
                initial,
                alpha,
                k=k,
                steps=steps,
                replicas=replicas,
                seed=seed,
                kind=kind,
                lazy=lazy,
                kernel=kernel,
            )
            error = report.max_error
        else:
            error = _loop_duality_error(
                adjacency, initial, alpha, k, kind, lazy, steps, replicas,
                seed,
            )
        table.add_row(
            label, kind, adjacency.n, replicas, steps, engine, error,
            error <= _ATOL,
        )
    table.add_note(
        "every replica runs its own selection sequence; the identity is "
        "checked per replica to machine precision (Lemma 5.2 is exact)"
    )
    return table


@experiment(
    "EXP-F1",
    artefact="Figure 1: duality worked example (Averaging vs Diffusion)",
    params={
        "steps": ParamSpec(int, "steps of each randomised duality check"),
        "n": ParamSpec(int, "nodes of the engine-scale duality graphs"),
        "replicas": ParamSpec(int, "replicas of the engine-scale check"),
        "engine": engine_param(),
        "kernel": kernel_param(),
    },
    presets={
        "fast": {"steps": 50, "n": 64, "replicas": 16},
        "full": {"steps": 400, "n": 256, "replicas": 64},
    },
)
def run_figure1(
    steps: int,
    n: int,
    replicas: int,
    seed: int = 0,
    engine: str = "batch",
    kernel: str = "auto",
) -> list[ResultTable]:
    """EXP-F1: Figure 1 trace plus duality checks at both scales."""
    cases = [
        ("regular k=1", random_regular_graph(n, 4, seed=seed), "node", 1, 0.5, False),
        ("irregular k=1", erdos_renyi_graph(n, seed=seed + 1), "node", 1, 0.7, False),
        ("edge model", random_regular_graph(n, 4, seed=seed + 2), "edge", 1, 0.5, False),
        ("lazy k=1", random_regular_graph(n, 4, seed=seed + 3), "node", 1, 0.5, True),
    ]
    return [
        _figure_table("Figure 1 (alpha=1/2, k=1): Averaging vs paper values", figure1_trace()),
        _random_duality_table(steps, seed),
        _engine_duality_table(cases, replicas, 2 * n, seed, engine, kernel),
    ]


@experiment(
    "EXP-F4",
    artefact="Figure 4: duality on the random-walk side",
    params={
        "n": ParamSpec(int, "nodes of the engine-scale duality graphs"),
        "replicas": ParamSpec(int, "replicas of the engine-scale check"),
        "engine": engine_param(),
        "kernel": kernel_param(),
    },
    presets={
        "fast": {"n": 64, "replicas": 16},
        "full": {"n": 256, "replicas": 64},
    },
)
def run_figure4(
    n: int,
    replicas: int,
    seed: int = 0,
    engine: str = "batch",
    kernel: str = "auto",
) -> list[ResultTable]:
    """EXP-F4: Figure 4 trace (k = 2) plus k >= 2 engine-scale duality."""
    cases = [
        ("regular k=2", random_regular_graph(n, 4, seed=seed), "node", 2, 0.5, False),
        ("regular k=d", random_regular_graph(n, 4, seed=seed + 1), "node", 4, 0.3, False),
    ]
    return [
        _figure_table("Figure 4 (alpha=1/2, k=2): Averaging vs paper values", figure4_trace()),
        _engine_duality_table(cases, replicas, 2 * n, seed, engine, kernel),
    ]
