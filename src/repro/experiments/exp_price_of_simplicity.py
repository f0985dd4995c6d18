"""EXP-PRICE — the "price of simplicity" (Section 1).

Coordinated pairwise gossip reaches the exact initial average
(``Var(F) = 0``); the paper's unilateral processes trade that exactness
for coordination-free updates, paying ``Var(F) = Theta(||xi||^2 / n^2)``.
The discrete voter model sits at the far end: it *samples* one initial
opinion (degree-weighted), so its limit has the full population variance.

This experiment runs all three on the same graph and initial values and
prints the spread of the consensus value, plus convergence-time context
(including push-sum, which buys exactness with extra per-node state
instead of coordination).  The NodeModel and the voter model (the
NodeModel with ``k = 1, alpha = 0``) run on the batch engine, gossip on
the batched :func:`~repro.baselines.gossip.gossip_to_consensus_batch`;
push-sum is a single scalar run.
"""

from __future__ import annotations

import numpy as np

from repro.api import ParamSpec, experiment
from repro.baselines.gossip import gossip_to_consensus_batch
from repro.baselines.pushsum import PushSum
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

    gossip_seed, voter_seed = spawn(seed, 2)
    f_gossip, steps_gossip = gossip_to_consensus_batch(
        adjacency, initial, replicas, seed=gossip_seed, discrepancy_tol=tol
    )
    # alpha = 0 makes every update a plain copy, so each replica ends
    # with n copies of one initial opinion; F is their mean.
    f_voter = run_to_consensus_batch(
        EngineSpec("node", adjacency, initial, 0.0).build(replicas, seed=voter_seed),
        discrepancy_tol=tol, max_steps=500_000_000,
    ).value

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
