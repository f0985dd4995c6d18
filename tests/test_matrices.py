"""Tests for the step matrices B(t), F(t) and products R(t)."""

import numpy as np
import pytest

from repro.core.node_model import NodeModel
from repro.core.schedule import Schedule, SelectionStep
from repro.dual import matrices
from repro.exceptions import ParameterError


class TestDiffusionStepMatrix:
    def test_matches_eq4_entries(self):
        # n = 3, selection (u=0, S={1, 2}), alpha = 1/2: column 0 spreads.
        b = matrices.diffusion_step_matrix(3, SelectionStep(0, (1, 2)), alpha=0.5)
        expected = np.array(
            [
                [0.5, 0.0, 0.0],
                [0.25, 1.0, 0.0],
                [0.25, 0.0, 1.0],
            ]
        )
        assert np.allclose(b, expected)

    def test_column_stochastic(self):
        b = matrices.diffusion_step_matrix(4, SelectionStep(2, (0, 3)), alpha=0.3)
        assert np.allclose(b.sum(axis=0), 1.0)

    def test_noop_is_identity(self):
        b = matrices.diffusion_step_matrix(3, SelectionStep(1, ()), alpha=0.5)
        assert np.allclose(b, np.eye(3))

    def test_validation(self):
        with pytest.raises(ParameterError):
            matrices.diffusion_step_matrix(3, SelectionStep(5, (1,)), alpha=0.5)
        with pytest.raises(ParameterError):
            matrices.diffusion_step_matrix(3, SelectionStep(0, (7,)), alpha=0.5)
        with pytest.raises(ParameterError):
            matrices.diffusion_step_matrix(3, SelectionStep(0, (1,)), alpha=1.0)


class TestAveragingStepMatrix:
    def test_is_transpose_of_b(self):
        step = SelectionStep(1, (0, 2))
        b = matrices.diffusion_step_matrix(3, step, alpha=0.25)
        f = matrices.averaging_step_matrix(3, step, alpha=0.25)
        assert np.allclose(f, b.T)

    def test_row_stochastic_not_doubly(self):
        f = matrices.averaging_step_matrix(3, SelectionStep(0, (1,)), alpha=0.5)
        assert matrices.is_stochastic(f, axis=1)
        assert not matrices.is_stochastic(f, axis=0)

    def test_applies_definition_21(self):
        # xi' = F xi must equal the unilateral update.
        f = matrices.averaging_step_matrix(3, SelectionStep(0, (1, 2)), alpha=0.5)
        xi = np.array([6.0, 8.0, 9.0])
        expected = np.array([0.5 * 6 + 0.25 * 8 + 0.25 * 9, 8.0, 9.0])
        assert np.allclose(f @ xi, expected)


class TestProducts:
    def test_product_accumulates_left(self):
        steps = [SelectionStep(0, (1,)), SelectionStep(1, (2,))]
        r = matrices.product_matrix(3, steps, alpha=0.5)
        b1 = matrices.diffusion_step_matrix(3, steps[0], alpha=0.5)
        b2 = matrices.diffusion_step_matrix(3, steps[1], alpha=0.5)
        assert np.allclose(r, b2 @ b1)

    def test_averaging_product_maps_initial_to_final(self, petersen, rng):
        initial = rng.normal(size=10)
        process = NodeModel(
            petersen, initial, alpha=0.5, k=2, seed=1, record_schedule=True
        )
        process.run(100)
        product = np.eye(10)
        for step in process.schedule:
            product = matrices.averaging_step_matrix(10, step, 0.5) @ product
        assert np.allclose(product @ initial, process.values)

    def test_product_column_stochastic(self):
        schedule = Schedule.from_pairs([(0, (1,)), (2, (0,)), (1, (2,))])
        r = matrices.product_matrix(3, schedule, alpha=0.3)
        assert matrices.is_stochastic(r, axis=0)

    def test_empty_product_is_identity(self):
        assert np.allclose(matrices.product_matrix(4, Schedule(), 0.5), np.eye(4))


class TestIsStochastic:
    def test_rejects_negative_entries(self):
        matrix = np.array([[1.5, -0.5], [0.0, 1.0]])
        assert not matrices.is_stochastic(matrix)

    def test_rejects_bad_row_sums(self):
        matrix = np.array([[0.5, 0.2], [0.0, 1.0]])
        assert not matrices.is_stochastic(matrix)
