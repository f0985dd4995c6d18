"""EXP-PB1 — the one-step potential contraction (Proposition B.1).

From a *fixed* state ``xi`` one step draws one of finitely many
selections, so ``E[phi(xi')] / phi(xi)`` is a finite average:
:func:`repro.theory.contraction.exact_one_step_phi` computes it exactly
and the table compares it with the closed-form factor.  Two initial
states are used:

* ``xi = f_2(P)`` — the direction the proof's spectral inequality
  singles out.  The exact factor comes close to the bound but stays
  strictly below it (0.999261 against 0.999645 on the 24-cycle with
  ``k = 1``): the bound is not attained;
* a random Gaussian state — where the factor sits further below the
  bound (it is an upper bound for every state).

The EdgeModel analogue (Proposition D.1(ii)) is computed alongside with
its own factor ``1 - alpha (1-alpha) lambda_2(L) / m``; on the regular
graphs used here the tracked potential is ``phi_V / n``.

``ok`` is the exact test ``exact <= bound``, up to a relative float
margin of 1e-12.  A batched Monte-Carlo column checks the exact value:
``trials`` independent one-step replicas on the batch engine, with the
z-score of their mean against the exact factor (``|z| <= 4`` has a
false-alarm rate of 6.3e-5 per row).
"""

from __future__ import annotations

import numpy as np

from repro.api import ParamSpec, experiment
from repro.core.initial import center_simple, gaussian_values
from repro.core.potentials import phi_pi
from repro.engine.driver import PHI, EngineSpec, sample_checkpoints_batch
from repro.graphs.adjacency import Adjacency
from repro.graphs.generators import cycle_graph, random_regular_graph
from repro.graphs.spectral import second_laplacian_eigenpair, second_walk_eigenpair
from repro.sim.results import ResultTable
from repro.theory.contraction import (
    edge_model_contraction_factor,
    exact_one_step_phi,
    node_model_contraction_factor,
)

ALPHA = 0.5

#: Relative float margin of the exact ``exact <= bound`` test.
FLOAT_MARGIN = 1e-12


@experiment(
    "EXP-PB1",
    artefact="Proposition B.1: one-step potential contraction",
    params={
        "n": ParamSpec(int, "number of nodes per graph"),
        "trials": ParamSpec(int, "replicas of the batched one-step Monte-Carlo check"),
    },
    presets={
        "fast": {"n": 24, "trials": 30_000},
        "full": {"n": 64, "trials": 200_000},
    },
)
def run(n: int, trials: int, seed: int = 0) -> list[ResultTable]:
    """Exact one-step contraction vs Propositions B.1 / D.1(ii)."""
    table = ResultTable(
        title="Prop B.1 / D.1(ii): one-step potential contraction factors",
        columns=[
            "model", "graph", "k", "state", "exact", "monte_carlo", "z",
            "bound_factor", "bound - exact", "ok",
        ],
    )
    seeds = np.random.SeedSequence(seed)
    for name, graph in [
        ("cycle", cycle_graph(n)),
        ("random_regular(d=4)", random_regular_graph(n, 4, seed=seed)),
    ]:
        adjacency = Adjacency.from_graph(graph)
        pi = adjacency.stationary_pi()
        gauss = center_simple(gaussian_values(n, seed=seed + 1))
        lambda2, f2 = second_walk_eigenpair(adjacency)
        lambda2_l, fiedler = second_laplacian_eigenpair(adjacency)
        cells = [
            ("node", k, label, state,
             node_model_contraction_factor(n, lambda2, ALPHA, k))
            for k in (1, 2)
            for label, state in [("f_2(P)", f2), ("gaussian", gauss)]
        ] + [
            ("edge", 1, label, state,
             edge_model_contraction_factor(adjacency.m, lambda2_l, ALPHA))
            for label, state in [("f_2(L)", fiedler), ("gaussian", gauss)]
        ]
        for model, k, label, state, bound in cells:
            phi0 = phi_pi(pi, state)
            exact = exact_one_step_phi(adjacency, state, ALPHA, k, model) / phi0
            factors = sample_checkpoints_batch(
                EngineSpec(model, adjacency, state, ALPHA, k),
                [1], trials, seed=seeds.spawn(1)[0],
            )[:, 0, PHI] / phi0
            mc = float(factors.mean())
            z = (mc - exact) / (float(factors.std(ddof=1)) / np.sqrt(trials))
            table.add_row(
                model, name, k, label, exact, mc, z, bound, bound - exact,
                exact <= bound * (1.0 + FLOAT_MARGIN),
            )
    table.add_note(
        "exact = E[phi(xi')]/phi(xi) over every one-step selection; "
        "exact <= bound for every state, and strictly below it even on "
        "the second eigenvector: the bound is not attained"
    )
    table.add_note(
        f"monte_carlo: {trials} batched one-step replicas; |z| <= 4 has a "
        "false-alarm rate of 6.3e-5 per row"
    )
    return [table]
