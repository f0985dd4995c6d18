"""EXP-DYN — convergence of the averaging processes on dynamic graphs.

Section 3 cites voter-model analyses on *dynamic* graphs; the
convex-hull and discrepancy invariants are per-step facts that hold on
whatever snapshot is active, so the NodeModel and EdgeModel still
converge when the topology rotates through connected snapshots.  This
experiment measures ``T_eps`` on a time-varying topology — a
:class:`~repro.engine.dynamic.GraphSchedule` over random regular
snapshots — against the static baseline of its first snapshot, for
both models, through the batch engine's dynamic path (per-snapshot
neighbour sampling, switch-aligned kernel blocks, exact chunked
detection).

On well-mixing snapshot pools the dynamic/static ratio stays O(1): each
segment contracts the potential at the rate of its own snapshot, and
rotating among expanders neither helps nor hurts beyond constants.  The
schedule kind (``cyclic`` / ``random`` / ``rewire``) is a declared
parameter, exposed on the CLI as ``--schedule`` with ``--switch-every``
and ``--snapshots``.
"""

from __future__ import annotations

from repro.api import (
    ParamSpec,
    experiment,
    graph_schedule_param,
    kernel_param,
)
from repro.core.initial import center_simple, rademacher_values
from repro.engine.cache import ResultCache
from repro.engine.driver import EngineSpec, sample_t_eps_batch
from repro.engine.dynamic import build_schedule
from repro.graphs.adjacency import Adjacency
from repro.graphs.generators import random_regular_graph
from repro.sim.results import ResultTable

ALPHA = 0.5
EPSILON = 1e-8
DEGREE = 4


@experiment(
    "EXP-DYN",
    artefact="Section 3: NodeModel/EdgeModel convergence on dynamic graphs",
    params={
        "n": ParamSpec(int, "nodes per snapshot"),
        "snapshots": ParamSpec(int, "snapshot pool size"),
        "switch_every": ParamSpec(int, "rounds per topology segment"),
        "replicas": ParamSpec(int, "Monte-Carlo replicas per cell"),
        "graph_schedule": graph_schedule_param(),
        "kernel": kernel_param(),
        "cache_dir": ParamSpec(
            str,
            "on-disk engine result cache; re-runs at the same seed "
            "resume for free ('' disables)",
            default="",
        ),
    },
    presets={
        "fast": {"n": 24, "snapshots": 3, "switch_every": 16, "replicas": 24},
        "full": {"n": 96, "snapshots": 5, "switch_every": 64, "replicas": 200},
    },
)
def run(
    n: int,
    snapshots: int,
    switch_every: int,
    replicas: int,
    seed: int = 0,
    graph_schedule: str = "cyclic",
    kernel: str = "auto",
    cache_dir: str = "",
) -> list[ResultTable]:
    """Measure ``T_eps`` on a snapshot schedule vs the static baseline."""
    cache = ResultCache(cache_dir) if cache_dir else None
    graphs = [
        Adjacency.from_graph(
            random_regular_graph(n, DEGREE, seed=seed + 101 * s + 1)
        )
        for s in range(snapshots)
    ]
    schedule = build_schedule(graph_schedule, graphs, switch_every, seed=seed)
    initial = center_simple(rademacher_values(n, seed=seed + 7))

    table = ResultTable(
        title=(
            "Section 3: T_eps on a dynamic topology vs its static first "
            f"snapshot (eps = {EPSILON:g})"
        ),
        columns=[
            "model",
            "schedule",
            "switch_every",
            "T_static",
            "T_dynamic",
            "ratio",
        ],
    )
    for kind in ("node", "edge"):
        static_spec = EngineSpec(
            kind, schedule.snapshots[0], initial, ALPHA, k=1,
            kernel=kernel
        )
        dynamic_spec = EngineSpec.for_schedule(
            kind, schedule, initial, ALPHA, k=1, kernel=kernel
        )
        t_static = sample_t_eps_batch(
            static_spec, EPSILON, replicas, seed=seed + 11,
            max_steps=200_000_000, cache=cache,
        )
        t_dynamic = sample_t_eps_batch(
            dynamic_spec, EPSILON, replicas, seed=seed + 13,
            max_steps=200_000_000, cache=cache,
        )
        table.add_row(
            kind,
            schedule.kind,
            schedule.switch_every,
            float(t_static.mean()),
            float(t_dynamic.mean()),
            float(t_dynamic.mean() / t_static.mean()),
        )
    table.add_note(
        f"{snapshots} random {DEGREE}-regular snapshots on n = {n} nodes; "
        "per-step hull/discrepancy invariants make every segment contract, "
        "so the dynamic/static ratio stays O(1) on well-mixing pools"
    )
    table.add_note(
        "dynamic runs use the batch engine's stacked multi-snapshot "
        "backends; hitting times are exact and block-size invariant "
        "across switch boundaries"
    )
    return [table]
