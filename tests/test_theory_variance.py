"""Tests for the variance bounds (Lemma 5.7 / Prop 5.8 / Thm 2.2(2))."""

import networkx as nx
import numpy as np
import pytest

from repro.core.initial import center_simple, rademacher_values
from repro.dual.qchain import QChain
from repro.exceptions import NotRegularError, ParameterError
from repro.theory import variance as var


class TestMuDifferences:
    def test_algebraic_forms(self):
        """mu_0 - mu_+ = (1-a)(kd + d - 2k) ell and
        mu_1 - mu_+ = (1-a)(1-k) ell — the simplifications used in the
        Theorem 2.2(2) proof."""
        n, d, k, alpha = 20, 5, 3, 0.4
        gamma = k * (1 + alpha) - (1 - alpha)
        ell = 1.0 / (n * (n * (d * gamma - 2 * alpha * k) + 2 * (1 - alpha) * (d - k)))
        diff0, diff1 = var.mu_differences(n, d, k, alpha)
        assert diff0 == pytest.approx((1 - alpha) * (k * d + d - 2 * k) * ell)
        assert diff1 == pytest.approx((1 - alpha) * (1 - k) * ell)

    def test_diff1_zero_for_k1(self):
        _, diff1 = var.mu_differences(20, 5, 1, 0.4)
        assert diff1 == pytest.approx(0.0)

    def test_diff0_positive_diff1_nonpositive(self):
        for k in (1, 2, 5):
            diff0, diff1 = var.mu_differences(20, 5, k, 0.4)
            assert diff0 > 0
            assert diff1 <= 1e-15


class TestEdgeCrossTerm:
    def test_matches_direct_sum(self, petersen, rng):
        values = rng.normal(size=10)
        direct = sum(
            values[u] * values[v] + values[v] * values[u]
            for u, v in petersen.edges()
        )
        assert var.edge_cross_term(petersen, values) == pytest.approx(direct)

    def test_quadratic_identity(self, petersen, rng):
        """sum_{E+} xi_u xi_v + d ||xi||^2 = sum_{{u,v} in E} (xi_u + xi_v)^2
        (used in the Theorem 2.2(2) proof), hence in [0, 2d ||xi||^2]."""
        values = rng.normal(size=10)
        d = 3
        cross = var.edge_cross_term(petersen, values)
        norm_sq = float(np.sum(values**2))
        edge_sum = sum((values[u] + values[v]) ** 2 for u, v in petersen.edges())
        assert cross + d * norm_sq == pytest.approx(edge_sum)
        assert -d * norm_sq <= cross <= 2 * d * norm_sq - d * norm_sq + 1e-9


class TestVarianceBounds:
    def test_requires_regular(self, star5):
        with pytest.raises(NotRegularError):
            var.variance_bounds(star5, np.zeros(6), alpha=0.5)

    def test_requires_centered(self, petersen):
        with pytest.raises(ParameterError, match="centered"):
            var.variance_bounds(petersen, np.ones(10), alpha=0.5)

    def test_bounds_bracket_core(self, petersen, rng):
        values = center_simple(rng.normal(size=10))
        bounds = var.variance_bounds(petersen, values, alpha=0.5, k=2)
        assert bounds.lower <= bounds.core <= bounds.upper
        assert bounds.upper - bounds.lower == pytest.approx(2.0 / 10**5)

    def test_core_within_envelope(self, petersen, rng):
        values = center_simple(rng.normal(size=10))
        bounds = var.variance_bounds(petersen, values, alpha=0.5, k=2)
        assert bounds.lower_envelope - 1e-12 <= bounds.core <= bounds.upper_envelope + 1e-12

    def test_core_equals_quadratic_form_of_exact_mu(self, petersen, rng):
        """Cross-validation against the full Q-chain stationary vector:
        core = sum_{u,v} mu(u,v) xi_u xi_v (with Avg(0) = 0)."""
        values = center_simple(rng.normal(size=10))
        for k in (1, 2, 3):
            bounds = var.variance_bounds(petersen, values, alpha=0.4, k=k)
            chain = QChain(petersen, alpha=0.4, k=k)
            mu = chain.stationary_numeric()
            quadratic = var.variance_quadratic_form(mu, values)
            assert bounds.core == pytest.approx(quadratic, abs=1e-10)

    def test_k1_core_is_placement_independent(self, rng):
        """For k = 1, core = (mu_0 - mu_+) ||xi||^2 — permuting values
        across nodes cannot change it."""
        graph = nx.cycle_graph(12)
        values = center_simple(rng.normal(size=12))
        permuted = values[rng.permutation(12)]
        a = var.variance_bounds(graph, values, alpha=0.5, k=1)
        b = var.variance_bounds(graph, permuted, alpha=0.5, k=1)
        assert a.core == pytest.approx(b.core)

    def test_envelope_theta_scaling(self):
        """Both envelope ends are Theta(||xi||^2 / n^2): growing n by 4x at
        fixed d, k, alpha and ||xi||^2 = n shrinks the variance ~4x."""
        alpha, d, k = 0.5, 4, 2
        low_small, high_small = var.variance_envelope(50, d, k, alpha, 50.0)
        low_big, high_big = var.variance_envelope(200, d, k, alpha, 200.0)
        assert high_small / high_big == pytest.approx(4.0, rel=0.15)
        assert low_small / low_big == pytest.approx(4.0, rel=0.15)

    def test_envelope_graph_independence(self):
        """The envelope depends only on (n, d, k, alpha, ||xi||^2) — the
        'clique vs cycle' statement for graphs of equal degree."""
        a = var.variance_envelope(30, 4, 2, 0.5, 30.0)
        b = var.variance_envelope(30, 4, 2, 0.5, 30.0)
        assert a == b

    def test_contains(self, petersen, rng):
        values = center_simple(rng.normal(size=10))
        bounds = var.variance_bounds(petersen, values, alpha=0.5, k=1)
        assert bounds.contains(bounds.core)
        assert not bounds.contains(bounds.upper + 1.0)


class TestTimeBounds:
    def test_weighted_formula(self):
        assert var.variance_time_bound_weighted(100, 4, 20, 2.0) == pytest.approx(
            100 * (4 * 2.0 / 40.0) ** 2
        )

    def test_avg_formula(self):
        assert var.variance_time_bound_avg(100, 10, 2.0) == pytest.approx(
            100 * 4.0 / 100.0
        )

    def test_monotone_in_t(self):
        assert var.variance_time_bound_avg(200, 10, 2.0) > var.variance_time_bound_avg(
            100, 10, 2.0
        )

    def test_validation(self):
        with pytest.raises(ParameterError):
            var.variance_time_bound_weighted(-1, 4, 20, 2.0)
        with pytest.raises(ParameterError):
            var.variance_time_bound_avg(10, 0, 2.0)


class TestMonteCarloAgreement:
    def test_variance_of_f_matches_core_small_complete_graph(self):
        """End-to-end: Monte-Carlo Var(F) on K5 vs the Prop 5.8 core."""
        from repro.engine import EngineSpec
        from repro.graphs.adjacency import Adjacency
        from repro.sim.montecarlo import sample_f_values

        graph = nx.complete_graph(5)
        values = center_simple(rademacher_values(5, seed=3))
        bounds = var.variance_bounds(graph, values, alpha=0.5, k=1)
        spec = EngineSpec("node", Adjacency.from_graph(graph), values, 0.5, 1)
        sample = sample_f_values(spec, 400, seed=11, discrepancy_tol=1e-7)
        measured = float(np.var(sample, ddof=1))
        # 400 replicas: relative sd of the variance ~ sqrt(2/399) ~ 7%.
        assert measured == pytest.approx(bounds.core, rel=0.35)
