"""Tests for the Monte-Carlo harness and moment estimation."""

import numpy as np
import pytest

from repro.engine import EngineSpec
from repro.exceptions import ParameterError
from repro.graphs.adjacency import Adjacency
from repro.sim.montecarlo import (
    estimate_moments,
    sample_f_values,
    sample_t_eps,
)


@pytest.fixture
def spec10(small_regular, rng):
    """NodeModel(alpha = 1/2, k = 1) on the 10-node expander."""
    return EngineSpec(
        "node", Adjacency.from_graph(small_regular), rng.normal(size=10), 0.5
    )


class TestLoopEngine:
    """``engine="loop"``: one scalar process per child seed (the oracle)."""

    def test_runs_requested_count(self, spec10):
        times = sample_t_eps(spec10, 1e-6, 7, seed=1, engine="loop")
        assert times.shape == (7,)
        assert np.all(times > 0)

    def test_reproducible_with_seed(self, spec10):
        a = sample_f_values(spec10, 5, seed=42, engine="loop")
        b = sample_f_values(spec10, 5, seed=42, engine="loop")
        np.testing.assert_array_equal(a, b)

    def test_replica_independence(self, spec10):
        values = sample_f_values(spec10, 10, seed=3, engine="loop")
        assert len(np.unique(np.round(values, 12))) > 1  # F is random

    def test_f_values_in_hull(self, spec10):
        initial = spec10.initial_values
        values = sample_f_values(
            spec10, 5, seed=4, discrepancy_tol=1e-8, engine="loop"
        )
        assert np.all(values >= initial.min()) and np.all(values <= initial.max())

    def test_validation(self, spec10):
        with pytest.raises(ParameterError):
            sample_f_values(spec10, 0, seed=1, engine="loop")


class TestSamplers:
    def test_sample_f_values_in_hull(self, spec10):
        initial = spec10.initial_values
        values = sample_f_values(spec10, 10, seed=5, discrepancy_tol=1e-7)
        assert np.all(values >= initial.min() - 1e-7)
        assert np.all(values <= initial.max() + 1e-7)

    def test_sample_t_eps_positive(self, spec10):
        times = sample_t_eps(spec10, 1e-6, 6, seed=6)
        assert np.all(times > 0)


class TestEstimateMoments:
    def test_known_sample(self):
        data = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        estimate = estimate_moments(data, seed=1)
        assert estimate.count == 5
        assert estimate.mean == pytest.approx(3.0)
        assert estimate.variance == pytest.approx(2.5)

    def test_gaussian_sample_cis_cover_truth(self):
        rng = np.random.default_rng(7)
        data = rng.normal(2.0, 3.0, size=4_000)
        estimate = estimate_moments(data, seed=2)
        assert estimate.mean_ci[0] <= 2.0 <= estimate.mean_ci[1]
        assert estimate.variance_ci[0] <= 9.0 <= estimate.variance_ci[1]
        assert abs(estimate.skewness) < 0.15
        assert abs(estimate.kurtosis_excess) < 0.3

    def test_skewed_sample_detected(self):
        rng = np.random.default_rng(8)
        data = rng.exponential(1.0, size=4_000)
        estimate = estimate_moments(data, seed=3)
        assert estimate.skewness > 1.0  # exponential skewness = 2

    def test_constant_sample_degenerate(self):
        estimate = estimate_moments(np.full(10, 3.0), seed=4)
        assert estimate.variance == pytest.approx(0.0)
        assert estimate.skewness == 0.0

    def test_ci_width_shrinks_with_confidence(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=500)
        wide = estimate_moments(data, confidence=0.99, seed=5)
        narrow = estimate_moments(data, confidence=0.8, seed=5)
        assert (wide.variance_ci[1] - wide.variance_ci[0]) > (
            narrow.variance_ci[1] - narrow.variance_ci[0]
        )

    def test_variance_within(self):
        rng = np.random.default_rng(10)
        estimate = estimate_moments(rng.normal(size=200), seed=6)
        assert estimate.variance_within(0.5, 2.0)
        assert not estimate.variance_within(100.0, 200.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            estimate_moments([1.0], seed=1)
        with pytest.raises(ParameterError):
            estimate_moments([1.0, 2.0], confidence=1.5, seed=1)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(11)
        data = rng.normal(size=100)
        a = estimate_moments(data, seed=12)
        b = estimate_moments(data, seed=12)
        assert a == b
