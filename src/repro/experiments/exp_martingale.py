"""EXP-L41 — the martingale structure (Lemma 4.1 / Proposition D.1(i)).

Two levels of validation:

* *Exact*: the expected one-step update matrices
  (:mod:`repro.theory.martingale`) preserve the degree weights ``pi``
  (NodeModel) and the uniform weights (EdgeModel) — checked to machine
  precision, for irregular graphs too.
* *Empirical*: over many replicas, the mean of ``M(t)`` (NodeModel) and
  ``Avg(t)`` (EdgeModel) stays at its initial value while the *individual*
  trajectories wander — the martingale has zero drift but non-zero
  quadratic variation (that variation is what Corollary E.2 bounds and
  EXP-CE2 measures).
"""

from __future__ import annotations

import numpy as np

from repro.api import ParamSpec, experiment
from repro.core.initial import linear_ramp
from repro.engine.driver import (
    AVERAGE,
    WEIGHTED_AVERAGE,
    EngineSpec,
    sample_checkpoints_batch,
)
from repro.graphs.adjacency import Adjacency
from repro.graphs.generators import binary_tree_graph, lollipop_graph, star_graph
from repro.sim.results import ResultTable
from repro.theory.martingale import (
    edge_model_expected_update,
    martingale_weights,
    node_model_expected_update,
)

ALPHA = 0.5


def _exact_table() -> ResultTable:
    table = ResultTable(
        title="Lemma 4.1 (exact): preserved functionals of E[update]",
        columns=["graph", "model", "functional", "max_drift"],
    )
    for name, graph in [
        ("star", star_graph(12)),
        ("binary_tree", binary_tree_graph(15)),
        ("lollipop", lollipop_graph(13)),
    ]:
        node_update = node_model_expected_update(graph, ALPHA)
        pi = martingale_weights(graph, "node")
        # pi^T E[L] = pi^T  <=>  M(t) is a martingale.
        drift_node = float(np.abs(pi @ node_update - pi).max())
        table.add_row(name, "node", "degree-weighted mean M", drift_node)

        edge_update = edge_model_expected_update(graph, ALPHA)
        uniform = martingale_weights(graph, "edge")
        drift_edge = float(np.abs(uniform @ edge_update - uniform).max())
        table.add_row(name, "edge", "simple average Avg", drift_edge)
    table.add_note("drift is zero up to floating point: both are martingales")
    return table


def _empirical_table(steps: int, replicas: int, seed: int) -> ResultTable:
    n = 31
    adjacency = Adjacency.from_graph(binary_tree_graph(n))
    initial = linear_ramp(n, 0.0, 1.0)

    node_seed, edge_seed = np.random.SeedSequence(seed).spawn(2)
    m_finals = sample_checkpoints_batch(
        EngineSpec("node", adjacency, initial, ALPHA),
        [steps], replicas, seed=node_seed,
    )[:, 0, WEIGHTED_AVERAGE]
    avg_finals = sample_checkpoints_batch(
        EngineSpec("edge", adjacency, initial, ALPHA),
        [steps], replicas, seed=edge_seed,
    )[:, 0, AVERAGE]

    table = ResultTable(
        title="Lemma 4.1 (empirical): E[M(t)] = M(0) and E[Avg(t)] = Avg(0)",
        columns=["model", "invariant(0)", "mean_final", "stderr", "z_score"],
    )
    m0 = float(adjacency.stationary_pi() @ initial)
    avg0 = float(initial.mean())
    for model, start, finals in [
        ("node: M(t)", m0, m_finals),
        ("edge: Avg(t)", avg0, avg_finals),
    ]:
        stderr = float(finals.std(ddof=1) / np.sqrt(replicas))
        z = (float(finals.mean()) - start) / stderr if stderr > 0 else 0.0
        table.add_row(model, start, float(finals.mean()), stderr, z)
    table.add_note(
        f"binary tree (irregular), t = {steps}; |z| <~ 3 confirms zero drift"
    )
    table.add_note(
        "note the NodeModel preserves the degree-weighted mean, the EdgeModel "
        "the simple mean — swapped functionals drift"
    )
    return table


@experiment(
    "EXP-L41",
    artefact="Lemma 4.1 / Proposition D.1(i): martingale structure",
    params={
        "steps": ParamSpec(int, "steps before sampling the invariant"),
        "replicas": ParamSpec(int, "replicas of the empirical check"),
    },
    presets={
        "fast": {"steps": 2_000, "replicas": 200},
        "full": {"steps": 20_000, "replicas": 1_000},
    },
)
def run(steps: int, replicas: int, seed: int = 0) -> list[ResultTable]:
    """Exact and empirical martingale checks on irregular graphs."""
    return [_exact_table(), _empirical_table(steps, replicas, seed)]
