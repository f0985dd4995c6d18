"""EXP-T222 — Var(F) on regular graphs (Theorem 2.2(2), Proposition 5.8).

Three claims are exercised with the same Monte-Carlo machinery:

1. *Envelope*: the empirical ``Var(F)`` lies inside the Proposition 5.8
   interval ``[core - 1/n^5, core + 1/n^5]`` (statistically, its bootstrap
   CI intersects it) and inside the graph-independent Theta envelope.
2. *Structure independence*: cycle, clique, torus and random regular
   graphs with the *same multiset* of initial values have statistically
   indistinguishable ``Var(F)`` — the paper's "clique vs cycle" point.
3. *k independence and placement independence*: sweeping ``k`` on one
   graph, and permuting the assignment of the same values to nodes,
   leaves ``Var(F)`` unchanged up to constants.
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
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    random_regular_graph,
    torus_graph,
)
from repro.sim.montecarlo import estimate_moments, sample_f_values
from repro.sim.results import ResultTable
from repro.theory.exact import exact_limit_variance
from repro.theory.variance import variance_bounds, variance_envelope

ALPHA = 0.5


def _mc_variance(adjacency, initial, k, replicas, seed, tol, engine="batch",
                 kernel="auto"):
    spec = EngineSpec("node", adjacency, initial, ALPHA, k, kernel=kernel)
    values = sample_f_values(
        spec, replicas, seed=seed, discrepancy_tol=tol, max_steps=500_000_000,
        engine=engine,
    )
    # 99% CIs: the envelope-consistency check below should fail on a real
    # discrepancy, not on a 1-in-20 bootstrap miss.
    return estimate_moments(values, confidence=0.99, seed=seed)


@experiment(
    "EXP-T222",
    artefact="Theorem 2.2(2) / Proposition 5.8: Var(F) on regular graphs",
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
    """Monte-Carlo Var(F) vs the Proposition 5.8 envelope.

    ``engine`` selects the replica simulator: the vectorized batch
    engine (default) or the legacy per-replica loop (the oracle).
    """
    rng = np.random.default_rng(seed)
    base_values = center_simple(rademacher_values(n, seed=rng))
    norm_sq = float(np.sum(base_values**2))

    graphs = [
        ("cycle (d=2)", cycle_graph(n), 2),
        ("torus (d=4)", torus_graph(n), 4),
        ("random_regular (d=4)", random_regular_graph(n, 4, seed=seed), 4),
        ("complete (d=n-1)", complete_graph(n), n - 1),
    ]

    structure = ResultTable(
        title="Theorem 2.2(2): Var(F) independent of regular graph structure",
        columns=[
            "graph",
            "Var_measured",
            "ci_low",
            "ci_high",
            "Var_exact",
            "exact_in_ci",
            "prop58_core",
            "env_low",
            "env_high",
            "in_envelope",
        ],
    )
    for name, graph, d in graphs:
        estimate = _mc_variance(
            Adjacency.from_graph(graph), base_values, 1, replicas, seed + d,
            tol, engine, kernel,
        )
        bounds = variance_bounds(graph, base_values, alpha=ALPHA, k=1)
        env_low, env_high = variance_envelope(n, d, 1, ALPHA, norm_sq)
        lo, hi = estimate.variance_ci
        # The Lemma 5.5 quadratic form is Var(F) exactly (no 1/n^5
        # slack) — the absorbing-backend column the Monte-Carlo CI must
        # cover.
        exact = exact_limit_variance(graph, base_values, alpha=ALPHA, k=1)
        # Consistency = the bootstrap CI intersects the theory interval
        # [lower, upper] union the Theta envelope (the CI itself already
        # carries the Monte-Carlo uncertainty).
        theory_low = min(env_low, bounds.lower)
        theory_high = max(env_high, bounds.upper)
        structure.add_row(
            name,
            estimate.variance,
            lo,
            hi,
            exact,
            bool(lo <= exact <= hi),
            bounds.core,
            env_low,
            env_high,
            bool(hi >= theory_low and lo <= theory_high),
        )
    structure.add_note(
        f"same initial multiset on all graphs; ||xi||^2 = {norm_sq:.3g}; "
        f"Theta(||xi||^2/n^2) = {norm_sq / n**2:.3g}; Var_exact is the "
        "Lemma 5.5 quadratic form in the Q-chain stationary law and "
        "exact_in_ci checks it against the 99% bootstrap CI"
    )

    # k-sweep on one graph.
    d = 8
    graph_k = random_regular_graph(n if n % 2 == 0 else n + 1, d, seed=seed + 7)
    nk = graph_k.number_of_nodes()
    adjacency_k = Adjacency.from_graph(graph_k)
    values_k = center_simple(rademacher_values(nk, seed=rng))
    k_table = ResultTable(
        title="Theorem 2.2(2): Var(F) independent of k",
        columns=["k", "Var_measured", "ci_low", "ci_high", "Var_exact",
                 "prop58_core"],
    )
    k_replicas = max(80, replicas // 2)
    for k in (1, 2, 4, 8):
        estimate = _mc_variance(
            adjacency_k, values_k, k, k_replicas, seed + 100 + k, tol, engine,
            kernel
        )
        bounds = variance_bounds(graph_k, values_k, alpha=ALPHA, k=k)
        lo, hi = estimate.variance_ci
        k_table.add_row(
            k, estimate.variance, lo, hi,
            exact_limit_variance(graph_k, values_k, alpha=ALPHA, k=k),
            bounds.core,
        )

    # Placement independence: permute the same values.
    placement = ResultTable(
        title="Theorem 2.2(2): Var(F) independent of value placement",
        columns=["placement", "Var_measured", "ci_low", "ci_high"],
    )
    adjacency_p = Adjacency.from_graph(cycle_graph(n))
    sorted_values = np.sort(base_values)
    shuffled = base_values.copy()
    rng.shuffle(shuffled)
    for label, values in [
        ("sorted along cycle", sorted_values),
        ("alternating", np.array([sorted_values[i // 2] if i % 2 == 0
                                  else sorted_values[-(i // 2 + 1)] for i in range(n)])),
        ("random placement", shuffled),
    ]:
        values = center_simple(values)
        estimate = _mc_variance(
            adjacency_p, values, 1, k_replicas, seed + 200, tol, engine, kernel
        )
        lo, hi = estimate.variance_ci
        placement.add_row(label, estimate.variance, lo, hi)
    placement.add_note(
        "Prop 5.8's cross term (mu_1 - mu_+) vanishes for k = 1, so even the "
        "finite-n core is placement-independent here"
    )
    return [structure, k_table, placement]
