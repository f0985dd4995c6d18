"""Golden-trajectory regression fixtures.

A small matrix of (model x kernel x backend x static/dynamic) cells is
run at frozen seeds and the exact end state hashed; the hashes live in
``tests/golden/trajectories.json``.  Future kernel or backend refactors
cannot silently change a realized trajectory: any drift fails here with
the offending cell named.

Everything in a cell is deterministic by construction — circulant and
wheel graphs (no generator RNG), a linear-ramp initial vector, integer
PCG64 seeds (stream-compatible across NumPy versions) — so the hashes
are portable across machines and Python/NumPy versions.

To regenerate after an *intentional* trajectory change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden.py

and commit the rewritten JSON together with the change that justifies
it.  The jit kernel has no hashes of its own: it is bit-identical to
fused by contract, asserted directly wherever its C loop builds.
"""

import hashlib
import json
import os
import pathlib

import networkx as nx
import numpy as np
import pytest

from repro.core.initial import center_simple, linear_ramp
from repro.engine import (
    BatchCoalescing,
    BatchDiffusion,
    BatchEdgeModel,
    BatchNodeModel,
    BatchWalks,
    CyclicSchedule,
    resolve_kernel,
)
from repro.graphs.adjacency import Adjacency

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "trajectories.json"

N = 16
STEPS = 300  # crosses the default 256-round block boundary
REPLICAS = 3
SEED = 2024
SWITCH_EVERY = 13

#: Deterministic topologies: two 4-regular circulants and one irregular
#: wheel (d_min = 3, so k = 2 stays valid everywhere).
CIRC_A = Adjacency.from_graph(nx.circulant_graph(N, [1, 2]))
CIRC_B = Adjacency.from_graph(nx.circulant_graph(N, [1, 3]))
WHEEL = Adjacency.from_graph(nx.wheel_graph(N))


def _graph(topology: str):
    if topology == "static":
        return CIRC_A
    if topology == "static-irregular":
        return WHEEL
    return CyclicSchedule([CIRC_A, WHEEL, CIRC_B], SWITCH_EVERY)


#: cell id -> construction recipe.  Kernel "jit" is deliberately absent
#: (bit-identical to "fused"; see test_jit_matches_fused_cells).
CELLS = {
    "node-k1.numpy.dense.static": ("node", "numpy", "dense", "static", 1, False),
    "node-k1.fused.dense.static": ("node", "fused", "dense", "static", 1, False),
    "node-k1.fused.csr.static": ("node", "fused", "csr", "static", 1, False),
    "node-k2.fused.dense.static-irregular": (
        "node", "fused", "dense", "static-irregular", 2, False,
    ),
    "node-k1-lazy.fused.dense.static": (
        "node", "fused", "dense", "static", 1, True,
    ),
    "edge.numpy.dense.static": ("edge", "numpy", "dense", "static", 1, False),
    "edge.fused.dense.static": ("edge", "fused", "dense", "static", 1, False),
    "node-k1.numpy.dense.dynamic": ("node", "numpy", "dense", "dynamic", 1, False),
    "node-k1.fused.dense.dynamic": ("node", "fused", "dense", "dynamic", 1, False),
    "node-k1.fused.csr.dynamic": ("node", "fused", "csr", "dynamic", 1, False),
    "node-k2.fused.dense.dynamic": ("node", "fused", "dense", "dynamic", 2, False),
    "node-k1-lazy.fused.dense.dynamic": (
        "node", "fused", "dense", "dynamic", 1, True,
    ),
    "edge.numpy.dense.dynamic": ("edge", "numpy", "dense", "dynamic", 1, False),
    "edge.fused.dense.dynamic": ("edge", "fused", "dense", "dynamic", 1, False),
}


#: Dual-engine cells: kind, backend, topology key, k, alpha.  The
#: diffusion/walk/coalescing batch processes are deterministic at the
#: frozen seed exactly like the primal ones.
DUAL_CELLS = {
    "dual-diffusion-k1.dense.static": ("diffusion", "dense", "static", 1, 0.5),
    "dual-diffusion-k2.csr.static-irregular": (
        "diffusion", "csr", "static-irregular", 2, 0.25,
    ),
    "dual-walks-k1.dense.static": ("walks", "dense", "static", 1, 0.5),
    "dual-walks-k2.dense.static-irregular": (
        "walks", "dense", "static-irregular", 2, 0.5,
    ),
    "dual-coalescing.dense.static": ("coalescing", "dense", "static", 1, 0.25),
}


def _run_dual_cell(recipe):
    kind, backend, topology, k, alpha = recipe
    cost = center_simple(linear_ramp(N, 0.0, 1.0))
    adjacency = _graph(topology)
    if kind == "diffusion":
        batch = BatchDiffusion(
            adjacency, cost=cost, alpha=alpha, k=k, replicas=REPLICAS,
            seed=SEED, backend=backend,
        )
    elif kind == "walks":
        batch = BatchWalks(
            adjacency, cost=cost, alpha=alpha, k=k, replicas=REPLICAS,
            seed=SEED, backend=backend,
        )
    else:
        batch = BatchCoalescing(
            adjacency, alpha=alpha, replicas=REPLICAS, seed=SEED,
            backend=backend,
        )
    batch.run(STEPS)
    return batch


def _dual_state_hash(batch) -> str:
    if isinstance(batch, BatchDiffusion):
        payload = np.ascontiguousarray(batch.loads).tobytes()
    else:
        payload = np.ascontiguousarray(batch.positions).tobytes()
        if isinstance(batch, BatchCoalescing):
            payload += np.ascontiguousarray(batch.num_clusters).tobytes()
    return hashlib.sha256(payload).hexdigest()[:24]


def _run_cell(recipe):
    model, kernel, backend, topology, k, lazy = recipe
    initial = center_simple(linear_ramp(N, 0.0, 1.0))
    graph = _graph(topology)
    if model == "node":
        batch = BatchNodeModel(
            graph, initial, 0.5, k=k, replicas=REPLICAS, seed=SEED,
            lazy=lazy, backend=backend, kernel=kernel,
        )
    else:
        batch = BatchEdgeModel(
            graph, initial, 0.5, replicas=REPLICAS, seed=SEED,
            lazy=lazy, backend=backend, kernel=kernel,
        )
    batch.run(STEPS)
    return batch


def _state_hash(batch) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(batch.values).tobytes()
    ).hexdigest()[:24]


def _load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_every_cell():
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        pytest.skip("regeneration pass (see test_regenerate_golden)")
    golden = _load_golden()
    assert set(golden["cells"]) == set(CELLS)
    assert set(golden["dual_cells"]) == set(DUAL_CELLS)


@pytest.mark.parametrize("cell_id", sorted(CELLS))
def test_end_state_matches_golden(cell_id):
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        pytest.skip("regeneration pass (see test_regenerate_golden)")
    golden = _load_golden()
    actual = _state_hash(_run_cell(CELLS[cell_id]))
    assert actual == golden["cells"][cell_id], (
        f"trajectory drift in cell {cell_id!r}: hash {actual} != "
        f"golden {golden['cells'][cell_id]}; if the change is intentional, "
        "regenerate with REPRO_REGEN_GOLDEN=1 and commit the new fixtures"
    )


@pytest.mark.parametrize("cell_id", sorted(DUAL_CELLS))
def test_dual_end_state_matches_golden(cell_id):
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        pytest.skip("regeneration pass (see test_regenerate_golden)")
    golden = _load_golden()
    actual = _dual_state_hash(_run_dual_cell(DUAL_CELLS[cell_id]))
    assert actual == golden["dual_cells"][cell_id], (
        f"trajectory drift in dual cell {cell_id!r}: hash {actual} != "
        f"golden {golden['dual_cells'][cell_id]}; if the change is "
        "intentional, regenerate with REPRO_REGEN_GOLDEN=1 and commit the "
        "new fixtures"
    )


@pytest.mark.skipif(
    not os.environ.get("REPRO_REGEN_GOLDEN"),
    reason="set REPRO_REGEN_GOLDEN=1 to rewrite the fixtures",
)
def test_regenerate_golden():
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "meta": {
            "n": N,
            "steps": STEPS,
            "replicas": REPLICAS,
            "seed": SEED,
            "switch_every": SWITCH_EVERY,
            "hash": "sha256(values.tobytes())[:24]",
            "dual_hash": (
                "sha256(loads|positions[+num_clusters] .tobytes())[:24]"
            ),
        },
        "cells": {
            cell_id: _state_hash(_run_cell(recipe))
            for cell_id, recipe in sorted(CELLS.items())
        },
        "dual_cells": {
            cell_id: _dual_state_hash(_run_dual_cell(recipe))
            for cell_id, recipe in sorted(DUAL_CELLS.items())
        },
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2) + "\n")


@pytest.mark.parametrize("cell_id", sorted(CELLS))
def test_end_state_matches_golden_under_tracing(cell_id):
    """The off-state contract, asserted in the on-state: an enabled
    tracer observes but never perturbs — every golden hash is
    bit-identical with tracing active (numpy and fused kernels alike)."""
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        pytest.skip("regeneration pass (see test_regenerate_golden)")
    from repro.obs import Tracer, activate

    golden = _load_golden()
    tracer = Tracer()
    with activate(tracer):
        actual = _state_hash(_run_cell(CELLS[cell_id]))
    assert actual == golden["cells"][cell_id], (
        f"tracing perturbed cell {cell_id!r}: hash {actual} != "
        f"golden {golden['cells'][cell_id]} — instrumentation must never "
        "touch RNG state or values"
    )


@pytest.mark.skipif(
    resolve_kernel("auto") != "jit", reason="no C compiler for the jit loop"
)
@pytest.mark.parametrize(
    "cell_id",
    sorted(c for c in CELLS if CELLS[c][1] == "fused"),
)
def test_jit_matches_fused_cells(cell_id):
    """jit is hashed implicitly: bit-identical to the fused golden."""
    model, _, backend, topology, k, lazy = CELLS[cell_id]
    fused = _run_cell((model, "fused", backend, topology, k, lazy))
    jit = _run_cell((model, "jit", backend, topology, k, lazy))
    assert jit.kernel == "jit"
    np.testing.assert_array_equal(fused.values, jit.values)
