"""Tests for initial-value workloads."""

import numpy as np
import pytest

from repro.core import initial
from repro.exceptions import ParameterError
from repro.graphs.spectral import (
    lazy_walk_matrix,
    laplacian_matrix,
    second_laplacian_eigenpair,
    second_walk_eigenpair,
    stationary_distribution,
)


class TestPlainFamilies:
    def test_indicator(self):
        values = initial.indicator_values(5, node=2, scale=3.0)
        assert values[2] == 3.0
        assert values.sum() == pytest.approx(3.0)

    def test_indicator_bounds(self):
        with pytest.raises(ParameterError):
            initial.indicator_values(5, node=5)

    def test_linear_ramp_endpoints(self):
        values = initial.linear_ramp(11, -1.0, 1.0)
        assert values[0] == -1.0 and values[-1] == 1.0
        assert np.all(np.diff(values) > 0)

    def test_uniform_range(self):
        values = initial.uniform_values(500, -2.0, 3.0, seed=1)
        assert values.min() >= -2.0 and values.max() <= 3.0

    def test_uniform_invalid_range(self):
        with pytest.raises(ParameterError):
            initial.uniform_values(5, 1.0, 1.0)

    def test_gaussian_moments(self):
        values = initial.gaussian_values(20_000, mean=1.0, std=2.0, seed=2)
        assert values.mean() == pytest.approx(1.0, abs=0.1)
        assert values.std() == pytest.approx(2.0, abs=0.1)

    def test_gaussian_negative_std(self):
        with pytest.raises(ParameterError):
            initial.gaussian_values(5, std=-1.0)

    def test_rademacher_values_pm_one(self):
        values = initial.rademacher_values(100, seed=3)
        assert set(np.unique(values)) <= {-1.0, 1.0}

    def test_rademacher_norm(self):
        values = initial.rademacher_values(64, seed=3)
        assert np.sum(values**2) == pytest.approx(64.0)


class TestCentering:
    def test_center_simple(self, rng):
        values = initial.center_simple(rng.normal(2.0, 1.0, size=50))
        assert values.mean() == pytest.approx(0.0, abs=1e-12)

    def test_center_degree_weighted(self, star5, rng):
        values = initial.center_degree_weighted(star5, rng.normal(size=6))
        pi = stationary_distribution(star5)
        assert float(np.sum(pi * values)) == pytest.approx(0.0, abs=1e-12)

    def test_centering_coincides_on_regular(self, petersen, rng):
        values = rng.normal(size=10)
        simple = initial.center_simple(values)
        weighted = initial.center_degree_weighted(petersen, values)
        assert np.allclose(simple, weighted)


class TestWorstCases:
    def test_second_eigenvector_aligned_is_eigenvector(self, petersen):
        values = initial.second_eigenvector_aligned(petersen)
        lambda2, _ = second_walk_eigenpair(petersen)
        p = lazy_walk_matrix(petersen)
        assert np.allclose(p @ values, lambda2 * values, atol=1e-8)

    def test_second_eigenvector_default_scale_n(self, petersen):
        values = initial.second_eigenvector_aligned(petersen)
        pi = stationary_distribution(petersen)
        # f_2 has <f,f>_pi = 1, scaled by n -> <v,v>_pi = n^2.
        assert float(np.sum(pi * values * values)) == pytest.approx(100.0)

    def test_fiedler_aligned_is_eigenvector(self, petersen):
        values = initial.fiedler_aligned(petersen, scale=2.0)
        lambda2, _ = second_laplacian_eigenpair(petersen)
        laplacian = laplacian_matrix(petersen)
        assert np.allclose(laplacian @ values, lambda2 * values, atol=1e-8)

    def test_worst_cases_are_centered(self, petersen):
        node_state = initial.second_eigenvector_aligned(petersen)
        edge_state = initial.fiedler_aligned(petersen)
        pi = stationary_distribution(petersen)
        assert float(np.sum(pi * node_state)) == pytest.approx(0.0, abs=1e-9)
        assert edge_state.mean() == pytest.approx(0.0, abs=1e-9)
