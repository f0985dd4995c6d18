"""Tests for decay fitting and result-table diffs."""

import json

import numpy as np
import pytest

from repro.analysis.decay import DecayFit, decay_summary, fit_decay_rate
from repro.api import Provenance, RunResult, RunSpec
from repro.api.store import diff_tables
from repro.core.node_model import NodeModel
from repro.core.runner import Trajectory, record_trajectory
from repro.exceptions import ParameterError
from repro.graphs.spectral import second_walk_eigenpair
from repro.sim.results import ResultTable
from repro.theory.contraction import node_model_contraction_factor


def synthetic_trajectory(rate: float, phi0: float = 1.0, points: int = 20) -> Trajectory:
    times = np.arange(points) * 100
    phi = phi0 * np.exp(-rate * times)
    zeros = np.zeros(points)
    return Trajectory(
        times=times, phi=phi, discrepancy=zeros,
        simple_average=zeros, weighted_average=zeros,
    )


class TestDecayFit:
    def test_recovers_exact_exponential(self):
        fit = fit_decay_rate(synthetic_trajectory(rate=1e-3))
        assert fit.rate == pytest.approx(1e-3, rel=1e-9)
        assert fit.phi0 == pytest.approx(1.0, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0)

    def test_half_life(self):
        fit = DecayFit(rate=np.log(2.0), phi0=1.0, r_squared=1.0)
        assert fit.half_life == pytest.approx(1.0)
        assert DecayFit(rate=0.0, phi0=1.0, r_squared=1.0).half_life == np.inf

    def test_factor(self):
        fit = DecayFit(rate=0.1, phi0=1.0, r_squared=1.0)
        assert fit.factor() == pytest.approx(np.exp(-0.1))

    def test_floor_samples_dropped(self):
        trajectory = synthetic_trajectory(rate=2e-3, points=40)
        trajectory.phi[-10:] = 1e-16  # noise floor
        fit = fit_decay_rate(trajectory, floor=1e-13)
        assert fit.rate == pytest.approx(2e-3, rel=1e-6)

    def test_too_few_points_raises(self):
        trajectory = synthetic_trajectory(rate=1.0, points=3)
        trajectory.phi[:] = 1e-20
        with pytest.raises(ParameterError):
            fit_decay_rate(trajectory)

    def test_real_process_decay_at_least_theoretical(self, small_regular, rng):
        """Measured phi decay should not be slower than the Prop B.1 bound
        (averaged over a long run)."""
        initial = rng.normal(size=10)
        process = NodeModel(small_regular, initial, alpha=0.5, k=1, seed=1)
        # Short sampling interval: phi hits the float noise floor after a
        # few thousand steps on this 10-node expander.
        trajectory = record_trajectory(process, steps=4_000, sample_every=200)
        fit = fit_decay_rate(trajectory)
        lambda2, _ = second_walk_eigenpair(small_regular)
        factor = node_model_contraction_factor(10, lambda2, 0.5, 1)
        summary = decay_summary(trajectory, factor)
        assert summary.rate_ratio > 0.8
        assert fit.r_squared > 0.8

    def test_decay_summary_validation(self):
        with pytest.raises(ParameterError):
            decay_summary(synthetic_trajectory(1e-3), theoretical_factor=1.0)


class TestDiffTables:
    def test_identical_tables(self):
        a = ResultTable("t", ["x"], rows=[[1.0]])
        b = ResultTable("t", ["x"], rows=[[1.0]])
        assert diff_tables(a, b) == []

    def test_within_tolerance(self):
        a = ResultTable("t", ["x"], rows=[[1.0]])
        b = ResultTable("t", ["x"], rows=[[1.1]])
        assert diff_tables(a, b, rel_tol=0.25) == []

    def test_numeric_drift_detected(self):
        a = ResultTable("t", ["x"], rows=[[1.0]])
        b = ResultTable("t", ["x"], rows=[[2.0]])
        problems = diff_tables(a, b)
        assert len(problems) == 1
        assert "column 'x'" in problems[0]

    def test_structural_changes_detected(self):
        a = ResultTable("t", ["x"], rows=[[1.0]])
        b = ResultTable("t", ["y"], rows=[[1.0]])
        assert "columns changed" in diff_tables(a, b)[0]
        c = ResultTable("t", ["x"], rows=[[1.0], [2.0]])
        assert "row count changed" in diff_tables(a, c)[0]

    def test_bool_cells_compared_exactly(self):
        a = ResultTable("t", ["ok"], rows=[[True]])
        b = ResultTable("t", ["ok"], rows=[[False]])
        assert len(diff_tables(a, b)) == 1

    @pytest.mark.parametrize(
        "old, new, drifted",
        [
            (1.0, float("nan"), True),
            (float("nan"), 1.0, True),
            (1.0, float("inf"), True),
            (float("inf"), 1.0, True),
            (float("inf"), float("-inf"), True),
            (float("nan"), float("nan"), False),
            (float("inf"), float("inf"), False),
        ],
    )
    def test_non_finite_cells(self, old, new, drifted):
        a = ResultTable("t", ["x"], rows=[[old]])
        b = ResultTable("t", ["x"], rows=[[new]])
        assert len(diff_tables(a, b, rel_tol=0.25)) == int(drifted)


class TestBundleStoreInterop:
    """Archived run payloads and table diffs share one table codec."""

    def test_json_payload_roundtrip_without_disk(self):
        table = ResultTable("demo", ["x", "ok"])
        table.add_row(1.25, True)
        result = RunResult(
            spec=RunSpec("EXP-F1", preset="full", seed=4),
            tables=[table],
            provenance=Provenance(
                parameters={}, engine=None, version="1.0.0",
                graph_hashes=[], wall_time_s=0.0, timestamp=0.0,
            ),
        )
        payload = json.loads(json.dumps(result.to_payload()))
        rebuilt = RunResult.from_payload(payload)
        assert rebuilt.tables[0] == table
        assert rebuilt.spec.seed == 4 and rebuilt.spec.preset == "full"

    def test_diff_tables_mixed_cell_types(self):
        a = ResultTable("t", ["label", "v"], rows=[["x", 1.0]])
        b = ResultTable("t", ["label", "v"], rows=[["y", 1.0]])
        problems = diff_tables(a, b)
        assert len(problems) == 1 and "label" in problems[0]
