"""EXP-T221K — the claimed near-independence of ``k`` (Theorem 2.2(1)).

The detailed bounds behind Theorem 2.2(1) (Proposition B.1) show the
convergence rate scales with a factor in ``[1, 2]`` as ``k`` grows from 1
to the degree — "it makes almost no difference if k = 1 or if it is close
to the node degree".  We measure mean ``T_eps`` on a fixed random regular
graph for increasing ``k`` and print it against the sharp prediction
``log(phi(0)/eps) / rate(k)``; the measured times should vary by at most
a factor ~2 while ``k`` varies by a factor ``d``.
"""

from __future__ import annotations

from repro.api import (
    ParamSpec,
    engine_param,
    experiment,
    kernel_param,
)
from repro.core.initial import center_simple, linear_ramp
from repro.core.potentials import phi_pi
from repro.engine.driver import EngineSpec
from repro.graphs.adjacency import Adjacency
from repro.graphs.generators import random_regular_graph
from repro.graphs.spectral import second_walk_eigenpair, stationary_distribution
from repro.sim.montecarlo import sample_t_eps
from repro.sim.results import ResultTable
from repro.theory.convergence import predicted_t_eps_node

ALPHA = 0.5
EPSILON = 1e-8


@experiment(
    "EXP-T221K",
    artefact="Theorem 2.2(1): near-independence of k",
    params={
        "n": ParamSpec(int, "number of nodes of the expander"),
        "d": ParamSpec(int, "degree of the expander", default=8),
        "ks": ParamSpec("ints", "fan-out values to sweep", default=(1, 2, 4, 8)),
        "replicas": ParamSpec(int, "replicas per k"),
        "engine": engine_param(),
        "kernel": kernel_param(),
    },
    presets={
        "fast": {"n": 48, "replicas": 5},
        "full": {"n": 128, "replicas": 20},
    },
)
def run(
    n: int,
    replicas: int,
    d: int,
    ks: list,
    seed: int = 0,
    engine: str = "batch",
    kernel: str = "auto",
) -> list[ResultTable]:
    """Sweep ``k`` on a d-regular expander; report T_eps(k)/T_eps(1)."""
    graph = random_regular_graph(n, d, seed=seed)
    initial = center_simple(linear_ramp(n, 0.0, 1.0))
    lambda2, _ = second_walk_eigenpair(graph)
    phi0 = phi_pi(stationary_distribution(graph), initial)
    adjacency = Adjacency.from_graph(graph)

    table = ResultTable(
        title="Theorem 2.2(1) detail: T_eps nearly independent of k",
        columns=["k", "T_measured", "T_predicted(PropB.1)", "T(k)/T(1)", "ratio_to_pred"],
    )
    baseline = None
    for k in ks:
        spec = EngineSpec("node", adjacency, initial, ALPHA, k, kernel=kernel)
        times = sample_t_eps(
            spec, EPSILON, replicas, seed=seed + k, max_steps=100_000_000,
            engine=engine,
        )
        measured = float(times.mean())
        predicted = predicted_t_eps_node(n, lambda2, ALPHA, k, phi0, EPSILON)
        if baseline is None:
            baseline = measured
        table.add_row(k, measured, predicted, measured / baseline, measured / predicted)
    table.add_note(
        "the paper predicts T(k)/T(1) in [1/2, 1]: rate carries a factor "
        "2 alpha + (1-alpha)(1+lambda2)(1-1/k) that at most doubles"
    )
    return [table]
