"""Tests for dynamic-graph averaging."""

import networkx as nx
import numpy as np
import pytest

from repro.core.dynamic import DynamicAveraging
from repro.exceptions import ConvergenceError, ParameterError


@pytest.fixture
def snapshots():
    return [
        nx.cycle_graph(12),
        nx.random_regular_graph(4, 12, seed=1),
        nx.complete_graph(12),
    ]


class TestDynamicAveraging:
    def test_construction_validation(self, snapshots, rng):
        initial = rng.normal(size=12)
        with pytest.raises(ParameterError):
            DynamicAveraging([], initial)
        with pytest.raises(ParameterError):
            DynamicAveraging(snapshots, initial, model="gossip")
        with pytest.raises(ParameterError):
            DynamicAveraging(snapshots, initial, switch_every=0)
        with pytest.raises(ParameterError):
            DynamicAveraging(snapshots, rng.normal(size=5))
        with pytest.raises(ParameterError):
            # k = 3 exceeds the cycle snapshot's degree 2.
            DynamicAveraging(snapshots, initial, k=3)

    def test_mismatched_node_sets_rejected(self, rng):
        with pytest.raises(ParameterError, match="same node set"):
            DynamicAveraging(
                [nx.cycle_graph(10), nx.cycle_graph(12)], rng.normal(size=10)
            )

    def test_snapshot_rotation(self, snapshots, rng):
        process = DynamicAveraging(
            snapshots, rng.normal(size=12), switch_every=50, seed=2
        )
        assert process.current_snapshot == 0
        process.run(50)
        assert process.current_snapshot == 1
        process.run(100)
        assert process.current_snapshot == 0  # wrapped around 3 snapshots

    def test_partial_runs_respect_switch_boundary(self, snapshots, rng):
        process = DynamicAveraging(
            snapshots, rng.normal(size=12), switch_every=64, seed=3
        )
        process.run(30)
        assert process.current_snapshot == 0
        process.run(34)
        assert process.current_snapshot == 1

    def test_convex_hull_preserved_across_switches(self, snapshots, rng):
        initial = rng.normal(size=12)
        process = DynamicAveraging(snapshots, initial, switch_every=10, seed=4)
        process.run(3_000)
        assert process.values.min() >= initial.min() - 1e-12
        assert process.values.max() <= initial.max() + 1e-12

    def test_converges_on_dynamic_graphs(self, snapshots, rng):
        initial = rng.normal(size=12)
        process = DynamicAveraging(snapshots, initial, switch_every=25, seed=5)
        value, steps = process.run_to_consensus(discrepancy_tol=1e-9)
        assert steps > 0
        assert initial.min() <= value <= initial.max()

    def test_shuffled_rotation(self, snapshots, rng):
        process = DynamicAveraging(
            snapshots, rng.normal(size=12), switch_every=5, shuffle=True, seed=6
        )
        seen = set()
        for _ in range(60):
            process.run(5)
            seen.add(process.current_snapshot)
        assert len(seen) >= 2

    def test_edge_model_variant(self, snapshots, rng):
        initial = rng.normal(size=12)
        process = DynamicAveraging(
            snapshots, initial, model="edge", switch_every=20, seed=7
        )
        value, _ = process.run_to_consensus(discrepancy_tol=1e-8)
        assert initial.min() <= value <= initial.max()

    def test_budget_exhaustion(self, snapshots, rng):
        process = DynamicAveraging(snapshots, rng.normal(size=12), seed=8)
        with pytest.raises(ConvergenceError):
            process.run_to_consensus(discrepancy_tol=1e-15, max_steps=100)

    def test_regular_snapshots_keep_average_martingale(self, rng):
        """All snapshots regular (possibly different graphs, same degree):
        the simple average stays a martingale across switches."""
        snapshots = [
            nx.random_regular_graph(4, 14, seed=s) for s in range(3)
        ]
        initial = rng.normal(size=14)
        avg0 = float(initial.mean())
        finals = []
        for s in range(600):
            process = DynamicAveraging(
                snapshots, initial, switch_every=7, seed=s
            )
            process.run(300)
            finals.append(process.simple_average)
        finals = np.asarray(finals)
        stderr = finals.std(ddof=1) / np.sqrt(len(finals))
        assert abs(finals.mean() - avg0) < 4 * stderr + 1e-12
