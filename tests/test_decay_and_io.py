"""Tests for result-table diffs and the archived payload codec."""

import json

import pytest

from repro.api import Provenance, RunResult, RunSpec
from repro.api.store import diff_tables
from repro.sim.results import ResultTable


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
