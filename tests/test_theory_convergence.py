"""Tests for the convergence-time bound expressions."""

import math

import pytest

from repro.exceptions import ParameterError
from repro.theory import convergence as conv


class TestNodeBounds:
    def test_upper_bound_formula(self):
        value = conv.node_model_upper_bound(10, 0.5, 4.0, 1e-3)
        assert value == pytest.approx(10 * math.log(10 * 4.0 / 1e-3) / 0.5)

    def test_upper_bound_monotone_in_gap(self):
        tight = conv.node_model_upper_bound(10, 0.9, 4.0, 1e-3)
        loose = conv.node_model_upper_bound(10, 0.1, 4.0, 1e-3)
        assert tight > loose

    def test_upper_bound_monotone_in_epsilon(self):
        assert conv.node_model_upper_bound(10, 0.5, 4.0, 1e-6) > conv.node_model_upper_bound(
            10, 0.5, 4.0, 1e-3
        )

    def test_lower_bound_scales_with_alpha(self):
        moderate = conv.node_model_lower_bound(10, 0.5, 4.0, 1e-3, alpha=0.5)
        stubborn = conv.node_model_lower_bound(10, 0.5, 4.0, 1e-3, alpha=0.9)
        assert stubborn > moderate  # more self-weight -> slower

    def test_validation(self):
        with pytest.raises(ParameterError):
            conv.node_model_upper_bound(1, 0.5, 4.0, 1e-3)
        with pytest.raises(ParameterError):
            conv.node_model_upper_bound(10, 1.0, 4.0, 1e-3)
        with pytest.raises(ParameterError):
            conv.node_model_upper_bound(10, 0.5, 0.0, 1e-3)
        with pytest.raises(ParameterError):
            conv.node_model_upper_bound(10, 0.5, 4.0, 0.0)
        with pytest.raises(ParameterError):
            conv.node_model_lower_bound(10, 0.5, 4.0, 1e-3, alpha=0.0)


class TestEdgeBounds:
    def test_upper_bound_formula(self):
        value = conv.edge_model_upper_bound(10, 15, 2.0, 4.0, 1e-3)
        assert value == pytest.approx(15 * math.log(10 * 4.0 / 1e-3) / 2.0)

    def test_regular_graph_consistency_with_node_bound(self):
        """For d-regular graphs 1 - lambda2(P_lazy) = lambda2(L)/(2d) and
        m = n d / 2, so the two theorem expressions agree up to the fixed
        constant 4 (the paper: "both theorems give the same bound ... there
        is a factor of d between 1 - lambda2(P) and lambda2(L)")."""
        n, d = 20, 4
        m = n * d // 2
        lambda2_l = 0.8
        lambda2_p = 1.0 - lambda2_l / (2 * d)
        node = conv.node_model_upper_bound(n, lambda2_p, 5.0, 1e-4)
        edge = conv.edge_model_upper_bound(n, m, lambda2_l, 5.0, 1e-4)
        assert node == pytest.approx(4.0 * edge)

    def test_validation(self):
        with pytest.raises(ParameterError):
            conv.edge_model_upper_bound(10, 0, 2.0, 4.0, 1e-3)
        with pytest.raises(ParameterError):
            conv.edge_model_upper_bound(10, 15, 0.0, 4.0, 1e-3)
        with pytest.raises(ParameterError):
            conv.edge_model_lower_bound(10, 15, 2.0, 4.0, 1e-3, alpha=1.0)


class TestSharpPredictions:
    def test_predicted_zero_when_already_converged(self):
        assert conv.predicted_t_eps_node(10, 0.5, 0.5, 1, phi0=1e-9, epsilon=1e-3) == 0.0

    def test_predicted_positive(self):
        value = conv.predicted_t_eps_node(10, 0.5, 0.5, 1, phi0=1.0, epsilon=1e-6)
        assert value > 0

    def test_prediction_decreases_with_k(self):
        slow = conv.predicted_t_eps_node(10, 0.5, 0.5, 1, phi0=1.0, epsilon=1e-6)
        fast = conv.predicted_t_eps_node(10, 0.5, 0.5, 4, phi0=1.0, epsilon=1e-6)
        assert fast <= slow
        assert slow / fast <= 2.0 + 1e-9  # the paper's (1 + 1/k) band

    def test_validation(self):
        with pytest.raises(ParameterError):
            conv.predicted_t_eps_node(10, 0.5, 0.5, 1, phi0=0.0, epsilon=1e-3)
