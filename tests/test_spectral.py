"""Tests for the spectral toolkit (Section 4 objects)."""

import math

import networkx as nx
import numpy as np
import pytest

from repro.graphs import spectral


class TestWalkMatrices:
    def test_simple_walk_rows_sum_to_one(self, petersen):
        p = spectral.simple_walk_matrix(petersen)
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_lazy_walk_definition(self, cycle6):
        lazy = spectral.lazy_walk_matrix(cycle6)
        assert np.allclose(np.diag(lazy), 0.5)
        assert lazy[0, 1] == pytest.approx(0.25)  # 1/(2 d) with d = 2

    def test_lazy_walk_rows_sum_to_one(self, star5):
        lazy = spectral.lazy_walk_matrix(star5)
        assert np.allclose(lazy.sum(axis=1), 1.0)

    def test_lazy_eigenvalues_in_unit_interval(self, small_regular):
        eigenvalues, _ = spectral.walk_spectrum(small_regular)
        assert np.all(eigenvalues >= -1e-12)
        assert np.all(eigenvalues <= 1.0 + 1e-12)

    def test_top_eigenvalue_is_one(self, petersen):
        eigenvalues, _ = spectral.walk_spectrum(petersen)
        assert eigenvalues[0] == pytest.approx(1.0)


class TestStationary:
    def test_pi_proportional_to_degree(self, star5):
        pi = spectral.stationary_distribution(star5)
        degrees = np.array([star5.degree(u) for u in sorted(star5.nodes())], float)
        assert np.allclose(pi, degrees / degrees.sum())

    def test_pi_invariant_under_lazy_walk(self, petersen):
        pi = spectral.stationary_distribution(petersen)
        p = spectral.lazy_walk_matrix(petersen)
        assert np.allclose(pi @ p, pi)

    def test_pi_invariant_under_simple_walk_irregular(self, star5):
        pi = spectral.stationary_distribution(star5)
        p = spectral.simple_walk_matrix(star5)
        assert np.allclose(pi @ p, pi)


class TestSecondEigenpair:
    def test_cycle_lazy_lambda2_closed_form(self):
        # Lazy cycle walk: lambda_2 = (1 + cos(2 pi / n)) / 2.
        n = 12
        lambda2, _ = spectral.second_walk_eigenpair(nx.cycle_graph(n))
        expected = (1.0 + math.cos(2.0 * math.pi / n)) / 2.0
        assert lambda2 == pytest.approx(expected, abs=1e-10)

    def test_complete_lazy_lambda2_closed_form(self):
        # K_n simple walk has lambda_2 = -1/(n-1); lazy: (1 - 1/(n-1))/2.
        n = 8
        lambda2, _ = spectral.second_walk_eigenpair(nx.complete_graph(n))
        expected = (1.0 - 1.0 / (n - 1)) / 2.0
        assert lambda2 == pytest.approx(expected, abs=1e-10)

    def test_f2_is_eigenvector(self, small_regular):
        lambda2, f2 = spectral.second_walk_eigenpair(small_regular)
        p = spectral.lazy_walk_matrix(small_regular)
        assert np.allclose(p @ f2, lambda2 * f2, atol=1e-9)

    def test_f2_pi_normalised_and_orthogonal_to_ones(self, small_regular):
        _, f2 = spectral.second_walk_eigenpair(small_regular)
        pi = spectral.stationary_distribution(small_regular)
        assert np.sum(pi * f2 * f2) == pytest.approx(1.0)
        assert np.sum(pi * f2) == pytest.approx(0.0, abs=1e-10)

    def test_f2_eigenvector_irregular(self, star5):
        lambda2, f2 = spectral.second_walk_eigenpair(star5)
        p = spectral.lazy_walk_matrix(star5)
        assert np.allclose(p @ f2, lambda2 * f2, atol=1e-9)


class TestLaplacian:
    def test_laplacian_rows_sum_to_zero(self, petersen):
        laplacian = spectral.laplacian_matrix(petersen)
        assert np.allclose(laplacian.sum(axis=1), 0.0)

    def test_laplacian_psd(self, small_regular):
        eigenvalues, _ = spectral.laplacian_spectrum(small_regular)
        assert eigenvalues[0] == pytest.approx(0.0, abs=1e-10)
        assert np.all(eigenvalues >= -1e-10)

    def test_cycle_lambda2_closed_form(self):
        n = 10
        lambda2, _ = spectral.second_laplacian_eigenpair(nx.cycle_graph(n))
        expected = 2.0 * (1.0 - math.cos(2.0 * math.pi / n))
        assert lambda2 == pytest.approx(expected, abs=1e-10)

    def test_complete_lambda2_is_n(self):
        lambda2, _ = spectral.second_laplacian_eigenpair(nx.complete_graph(7))
        assert lambda2 == pytest.approx(7.0)

    def test_fiedler_vector_is_eigenvector(self, small_regular):
        lambda2, fiedler = spectral.second_laplacian_eigenpair(small_regular)
        laplacian = spectral.laplacian_matrix(small_regular)
        assert np.allclose(laplacian @ fiedler, lambda2 * fiedler, atol=1e-9)

    def test_lambda2_matches_networkx(self, petersen):
        lambda2, _ = spectral.second_laplacian_eigenpair(petersen)
        expected = sorted(nx.laplacian_spectrum(petersen))[1]
        assert lambda2 == pytest.approx(float(expected), abs=1e-8)

    def test_regular_relation_between_gaps(self, petersen):
        # For d-regular graphs, 1 - lambda2(P_lazy) = lambda2(L) / (2d).
        d = 3
        gap = 1.0 - spectral.second_walk_eigenpair(petersen)[0]
        lambda2_l, _ = spectral.second_laplacian_eigenpair(petersen)
        assert gap == pytest.approx(lambda2_l / (2 * d), abs=1e-10)


class TestAdjacencyInput:
    def test_accepts_adjacency_objects(self, cycle6, cycle6_adjacency):
        from_graph = spectral.lazy_walk_matrix(cycle6)
        from_adjacency = spectral.lazy_walk_matrix(cycle6_adjacency)
        assert np.allclose(from_graph, from_adjacency)
