"""Tests for eps-convergence detection and T_eps measurement."""

import pytest

from repro.core.convergence import measure_t_eps, run_to_consensus
from repro.core.edge_model import EdgeModel
from repro.core.node_model import NodeModel
from repro.exceptions import ConvergenceError, ParameterError


class TestMeasureTEps:
    def test_returns_zero_when_already_converged(self, triangle):
        process = NodeModel(triangle, [1.0, 1.0, 1.0], alpha=0.5, seed=0)
        assert measure_t_eps(process, 1e-6, 1_000) == 0

    def test_measures_first_crossing(self, small_regular, rng):
        initial = rng.normal(size=10)
        process = NodeModel(small_regular, initial, alpha=0.5, k=1, seed=1)
        t = measure_t_eps(process, 1e-6, 10_000_000)
        assert t > 0
        assert process.phi <= 1e-6

    def test_tight_crossing_not_overshot(self, small_regular, rng):
        # Re-running the same seed step by step must cross at the same t.
        initial = rng.normal(size=10)
        fast = NodeModel(small_regular, initial, alpha=0.5, k=1, seed=5)
        t_fast = measure_t_eps(fast, 1e-6, 10_000_000)
        slow = NodeModel(small_regular, initial, alpha=0.5, k=1, seed=5)
        t_slow = 0
        while slow.phi > 1e-6:
            slow.step()
            t_slow += 1
        # Same generator, but the fast loop consumes randomness in batches;
        # the laws agree but not the sample paths, so compare magnitudes.
        assert 0.2 < t_fast / max(t_slow, 1) < 5.0

    def test_budget_exhaustion_raises(self, cycle6, rng):
        process = NodeModel(cycle6, rng.normal(size=6), alpha=0.5, seed=2)
        with pytest.raises(ConvergenceError):
            measure_t_eps(process, 1e-12, 10)

    def test_epsilon_validation(self, triangle):
        process = NodeModel(triangle, [1.0, 2.0, 3.0], alpha=0.5, seed=0)
        with pytest.raises(ParameterError):
            measure_t_eps(process, 0.0, 100)

    def test_edge_model_supported(self, star5, rng):
        process = EdgeModel(star5, rng.normal(size=6), alpha=0.5, seed=3)
        t = measure_t_eps(process, 1e-8, 10_000_000)
        assert t > 0 and process.phi <= 1e-8


class TestRunToConsensus:
    def test_reaches_tolerance(self, small_regular, rng):
        initial = rng.normal(size=10)
        process = NodeModel(small_regular, initial, alpha=0.5, k=2, seed=4)
        result = run_to_consensus(process, discrepancy_tol=1e-9)
        assert result.residual_discrepancy <= 1e-9
        assert initial.min() <= result.value <= initial.max()

    def test_value_within_hull(self, star5, rng):
        initial = rng.normal(size=6)
        process = EdgeModel(star5, initial, alpha=0.5, seed=5)
        result = run_to_consensus(process, discrepancy_tol=1e-9)
        assert initial.min() - 1e-9 <= result.value <= initial.max() + 1e-9

    def test_budget_exhaustion(self, cycle6, rng):
        process = NodeModel(cycle6, rng.normal(size=6), alpha=0.5, seed=6)
        with pytest.raises(ConvergenceError):
            run_to_consensus(process, discrepancy_tol=1e-12, max_steps=50)

    def test_parameter_validation(self, triangle):
        process = NodeModel(triangle, [1.0, 2.0, 3.0], alpha=0.5, seed=0)
        with pytest.raises(ParameterError):
            run_to_consensus(process, discrepancy_tol=0.0)
        with pytest.raises(ParameterError):
            run_to_consensus(process, check_every=0)

    def test_t_counts_only_new_steps(self, small_regular, rng):
        initial = rng.normal(size=10)
        process = NodeModel(small_regular, initial, alpha=0.5, seed=7)
        process.run(100)
        result = run_to_consensus(process, discrepancy_tol=1e-8)
        assert result.t == process.t - 100


class TestEpsilonForDiscrepancy:
    def test_guarantee_holds_empirically(self, small_regular, rng):
        # Converging to (eps/n)^6 in phi forces discrepancy <= eps.
        initial = rng.normal(size=10)
        # Keep (eps/n)^6 above the float64 noise floor of the potential.
        target_discrepancy = 0.5
        epsilon = (target_discrepancy / 10) ** 6
        process = NodeModel(small_regular, initial, alpha=0.5, seed=8)
        measure_t_eps(process, epsilon, 50_000_000)
        assert process.discrepancy <= target_discrepancy
