"""Tests for mixing-time utilities."""

import networkx as nx
import numpy as np
import pytest

from repro.dual.qchain import QChain
from repro.exceptions import ParameterError
from repro.theory.mixing import (
    empirical_mixing_time,
    qchain_mixing_tolerance,
    spectral_mixing_bound,
    total_variation,
)


class TestTotalVariation:
    def test_identical_distributions(self):
        p = np.array([0.25, 0.75])
        assert total_variation(p, p) == 0.0

    def test_disjoint_distributions(self):
        assert total_variation(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_symmetric(self):
        p = np.array([0.2, 0.8])
        q = np.array([0.5, 0.5])
        assert total_variation(p, q) == total_variation(q, p) == pytest.approx(0.3)

    def test_shape_mismatch(self):
        with pytest.raises(ParameterError):
            total_variation(np.array([1.0]), np.array([0.5, 0.5]))


class TestSpectralBound:
    def test_formula(self):
        bound = spectral_mixing_bound(0.5, 0.1, 0.01)
        assert bound == pytest.approx(np.log(1.0 / (0.01 * 0.1)) / 0.5)

    def test_validation(self):
        with pytest.raises(ParameterError):
            spectral_mixing_bound(1.0, 0.1, 0.01)
        with pytest.raises(ParameterError):
            spectral_mixing_bound(0.5, 0.0, 0.01)
        with pytest.raises(ParameterError):
            spectral_mixing_bound(0.5, 0.1, 1.5)


class TestEmpiricalMixingTime:
    def test_two_state_chain(self):
        q = np.array([[0.9, 0.1], [0.1, 0.9]])
        stationary = np.array([0.5, 0.5])
        t = empirical_mixing_time(q, stationary, epsilon=0.01)
        # TV from worst start after t steps is 0.5 * (0.8)^t.
        expected = int(np.ceil(np.log(0.02) / np.log(0.8)))
        assert t == expected

    def test_already_mixed(self):
        q = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert empirical_mixing_time(q, np.array([0.5, 0.5]), 0.1) == 1

    def test_monotone_in_epsilon(self):
        q = np.array([[0.9, 0.1], [0.2, 0.8]])
        mu = np.array([2 / 3, 1 / 3])
        loose = empirical_mixing_time(q, mu, 0.1)
        tight = empirical_mixing_time(q, mu, 0.001)
        assert tight >= loose

    def test_budget_exceeded(self):
        q = np.array([[1.0 - 1e-9, 1e-9], [1e-9, 1.0 - 1e-9]])
        with pytest.raises(ParameterError):
            empirical_mixing_time(q, np.array([0.5, 0.5]), 0.01, max_time=16)

    def test_qchain_mixes_to_lemma57_law(self):
        """The Q-chain mixes to its closed-form stationary law; the
        empirical mixing time is finite and consistent with the spectral
        scale (n^2-state chain on K5)."""
        graph = nx.complete_graph(5)
        chain = QChain(graph, alpha=0.5, k=2)
        q = chain.transition_matrix()
        mu = chain.stationary_closed_form()
        t = empirical_mixing_time(q, mu, epsilon=1e-6)
        assert t >= 1
        power = np.linalg.matrix_power(q, t)
        worst = 0.5 * np.abs(power - mu[None, :]).sum(axis=1).max()
        assert worst <= 1e-6


class TestQChainTolerance:
    def test_formula(self):
        assert qchain_mixing_tolerance(10, 2.0) == pytest.approx(
            1.0 / (4.0 * 10**7)
        )

    def test_validation(self):
        with pytest.raises(ParameterError):
            qchain_mixing_tolerance(0, 1.0)
        with pytest.raises(ParameterError):
            qchain_mixing_tolerance(10, 0.0)


class TestSparseSpectral:
    def test_matches_dense_on_regular_graph(self):
        from repro.graphs.spectral import (
            second_walk_eigenpair,
            second_walk_eigenpair_sparse,
        )

        graph = nx.random_regular_graph(4, 60, seed=3)
        dense_l2, dense_f2 = second_walk_eigenpair(graph)
        sparse_l2, sparse_f2 = second_walk_eigenpair_sparse(graph)
        assert sparse_l2 == pytest.approx(dense_l2, abs=1e-8)
        # Eigenvectors match up to sign.
        alignment = abs(float(np.dot(dense_f2, sparse_f2))) / (
            np.linalg.norm(dense_f2) * np.linalg.norm(sparse_f2)
        )
        assert alignment == pytest.approx(1.0, abs=1e-6)

    def test_matches_dense_on_irregular_graph(self):
        from repro.graphs.spectral import (
            second_walk_eigenpair,
            second_walk_eigenpair_sparse,
        )

        graph = nx.barbell_graph(6, 2)
        dense_l2, _ = second_walk_eigenpair(graph)
        sparse_l2, _ = second_walk_eigenpair_sparse(graph)
        assert sparse_l2 == pytest.approx(dense_l2, abs=1e-8)
