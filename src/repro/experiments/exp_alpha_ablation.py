"""EXP-ABL — ablation of the self-weight ``alpha``.

``alpha`` is the models' one free design knob.  The theory predicts two
opposing effects:

* *speed*: the NodeModel's one-step rate (Prop B.1, k = 1) scales with
  ``alpha (1-alpha)`` — fastest at ``alpha = 1/2``, degenerating at both
  ends (at ``alpha -> 0`` with k = 1 the process loses the averaging
  contraction and behaves like continuous voting; at ``alpha -> 1``
  nothing moves);
* *accuracy*: the Var(F) coefficient (Prop 5.8) scales with ``(1-alpha)``
  — stubborner agents average more gently and ``F`` concentrates harder.

This ablation sweeps ``alpha``, measuring mean ``T_eps`` and Monte-Carlo
``Var(F)`` against both closed forms, exposing the speed/accuracy
trade-off a user of the protocol must pick on.
"""

from __future__ import annotations

from repro.api import (
    ParamSpec,
    engine_param,
    experiment,
    kernel_param,
)
from repro.core.initial import center_simple, rademacher_values
from repro.core.potentials import phi_pi
from repro.engine.driver import EngineSpec
from repro.graphs.adjacency import Adjacency
from repro.graphs.generators import random_regular_graph
from repro.graphs.spectral import second_walk_eigenpair, stationary_distribution
from repro.sim.montecarlo import estimate_moments, sample_f_values, sample_t_eps
from repro.sim.results import ResultTable
from repro.theory.convergence import predicted_t_eps_node
from repro.theory.variance import variance_bounds

EPSILON = 1e-8


@experiment(
    "EXP-ABL",
    artefact="Ablation of the self-weight alpha",
    params={
        "n": ParamSpec(int, "number of nodes of the expander"),
        "d": ParamSpec(int, "degree of the expander", default=4),
        "time_replicas": ParamSpec(int, "replicas of the T_eps estimate"),
        "var_replicas": ParamSpec(int, "replicas of the Var(F) estimate"),
        "tol": ParamSpec(float, "consensus discrepancy tolerance"),
        "alphas": ParamSpec(
            "floats", "alpha grid", default=(0.1, 0.3, 0.5, 0.7, 0.9)
        ),
        "engine": engine_param(),
        "kernel": kernel_param(),
    },
    presets={
        "fast": {"n": 36, "time_replicas": 5, "var_replicas": 120, "tol": 1e-6},
        "full": {"n": 100, "time_replicas": 20, "var_replicas": 500, "tol": 1e-8},
    },
)
def run(
    n: int,
    time_replicas: int,
    var_replicas: int,
    tol: float,
    d: int,
    alphas: list,
    seed: int = 0,
    engine: str = "batch",
    kernel: str = "auto",
) -> list[ResultTable]:
    """Sweep alpha on a fixed regular expander: speed vs accuracy."""
    graph = random_regular_graph(n, d, seed=seed)
    initial = center_simple(rademacher_values(n, seed=seed))
    lambda2, _ = second_walk_eigenpair(graph)
    phi0 = phi_pi(stationary_distribution(graph), initial)
    adjacency = Adjacency.from_graph(graph)

    table = ResultTable(
        title="Ablation: self-weight alpha — speed vs accuracy trade-off",
        columns=[
            "alpha",
            "T_measured",
            "T_predicted",
            "Var_measured",
            "Var_core(Prop5.8)",
        ],
    )
    for alpha in alphas:
        spec = EngineSpec("node", adjacency, initial, alpha, kernel=kernel)
        times = sample_t_eps(
            spec, EPSILON, time_replicas, seed=seed + 1, max_steps=200_000_000,
            engine=engine,
        )
        f_sample = sample_f_values(
            spec, var_replicas, seed=seed + 2, discrepancy_tol=tol,
            max_steps=500_000_000, engine=engine,
        )
        estimate = estimate_moments(f_sample, seed=seed)
        bounds = variance_bounds(graph, initial, alpha=alpha, k=1)
        predicted = predicted_t_eps_node(n, lambda2, alpha, 1, phi0, EPSILON)
        table.add_row(
            alpha, float(times.mean()), predicted,
            estimate.variance, bounds.core,
        )
    table.add_note(
        "speed is best near alpha = 1/2 (rate ~ alpha(1-alpha)); variance "
        "falls monotonically with alpha (core ~ (1-alpha)) — the protocol "
        "trades convergence time for concentration of F"
    )
    return [table]
