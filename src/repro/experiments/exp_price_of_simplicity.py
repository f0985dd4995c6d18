"""EXP-PRICE — the "price of simplicity" (Section 1).

Coordinated pairwise gossip reaches the exact initial average
(``Var(F) = 0``); the paper's unilateral processes trade that exactness
for coordination-free updates, paying ``Var(F) = Theta(||xi||^2 / n^2)``.
The discrete voter model sits at the far end: it *samples* one initial
opinion (degree-weighted), so its limit has the full population variance.

This experiment runs all three on the same graph and initial values and
prints the spread of the consensus value, plus convergence-time context
(including push-sum, which buys exactness with extra per-node state
instead of coordination).
"""

from __future__ import annotations

import numpy as np

from repro.api import ParamSpec, experiment
from repro.baselines.gossip import PairwiseGossip
from repro.baselines.pushsum import PushSum
from repro.baselines.voter import VoterModel
from repro.core.initial import center_simple, rademacher_values
from repro.engine.driver import EngineSpec, run_to_consensus_batch
from repro.graphs.adjacency import Adjacency
from repro.rng import spawn
from repro.sim.results import ResultTable

ALPHA = 0.5


@experiment(
    "EXP-PRICE",
    artefact='Section 1: the "price of simplicity"',
    params={
        "n": ParamSpec(int, "number of nodes"),
        "replicas": ParamSpec(int, "replicas per protocol"),
        "tol": ParamSpec(float, "consensus discrepancy tolerance"),
    },
    presets={
        "fast": {"n": 36, "replicas": 120, "tol": 1e-6},
        "full": {"n": 100, "replicas": 400, "tol": 1e-8},
    },
)
def run(n: int, replicas: int, tol: float, seed: int = 0) -> list[ResultTable]:
    """Spread of the consensus value: averaging vs gossip vs voter."""
    import networkx as nx

    adjacency = Adjacency.from_graph(nx.random_regular_graph(4, n, seed=seed))
    initial = center_simple(rademacher_values(n, seed=seed))
    target = float(initial.mean())  # == 0 by centering

    result = run_to_consensus_batch(
        EngineSpec("node", adjacency, initial, ALPHA).build(replicas, seed=seed),
        discrepancy_tol=tol, max_steps=500_000_000,
    )
    f_node = result.value
    steps_node = result.t

    # The baselines are not the paper's processes: they stay scalar.
    f_gossip = np.empty(replicas)
    f_voter = np.empty(replicas)
    steps_gossip = np.empty(replicas)
    # Map the +-1 opinions to {0, 1} labels for the voter model.
    labels = (initial > 0).astype(np.int64)
    label_values = np.array([initial[labels == 0].mean(), initial[labels == 1].mean()])

    for i, rng in enumerate(spawn(seed, replicas)):
        gossip = PairwiseGossip(adjacency, initial, seed=rng)
        value, steps = gossip.run_to_consensus(discrepancy_tol=tol)
        f_gossip[i] = value
        steps_gossip[i] = steps

        voter = VoterModel(adjacency, labels, seed=rng)
        winner, _ = voter.run_to_consensus()
        f_voter[i] = label_values[winner]

    pushsum = PushSum(adjacency, initial, seed=seed)
    ps_value, ps_steps = pushsum.run_to_accuracy(tol=tol)

    table = ResultTable(
        title="Price of simplicity: consensus-value spread by protocol",
        columns=["protocol", "coordination", "mean_F", "std_F", "max|F - Avg(0)|"],
    )
    table.add_row(
        "NodeModel (paper)", "none (unilateral pull)",
        float(f_node.mean()), float(f_node.std(ddof=1)),
        float(np.abs(f_node - target).max()),
    )
    table.add_row(
        "pairwise gossip", "two-node simultaneous",
        float(f_gossip.mean()), float(f_gossip.std(ddof=1)),
        float(np.abs(f_gossip - target).max()),
    )
    table.add_row(
        "voter model", "none (unilateral pull)",
        float(f_voter.mean()), float(f_voter.std(ddof=1)),
        float(np.abs(f_voter - target).max()),
    )
    table.add_row(
        "push-sum", "none (push + weight state)",
        ps_value, 0.0, abs(ps_value - target),
    )
    table.add_note(
        f"steps to consensus (mean): NodeModel {steps_node.mean():.0f}, "
        f"gossip {steps_gossip.mean():.0f}, push-sum {ps_steps} (single run)"
    )
    table.add_note(
        "gossip/push-sum recover Avg(0) exactly; the NodeModel pays "
        "Theta(||xi||/n) standard deviation; the voter model pays Theta(1)"
    )
    return [table]
