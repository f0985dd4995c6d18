"""Tests for result tables, scaling fits and RNG helpers."""

import json

import numpy as np
import pytest

from repro.analysis.fits import ratio_statistics
from repro.exceptions import ParameterError
from repro.rng import as_generator, spawn
from repro.sim.results import ResultTable


class TestResultTable:
    def test_add_row_and_render(self):
        table = ResultTable("demo", ["a", "b"])
        table.add_row(1, 2.34567)
        text = table.render()
        assert "demo" in text
        assert "2.346" in text

    def test_row_length_checked(self):
        table = ResultTable("demo", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_row_length_error_names_table(self):
        table = ResultTable("demo", ["a", "b"])
        with pytest.raises(ValueError, match="table 'demo'"):
            table.add_row(1)

    def test_column_extraction(self):
        table = ResultTable("demo", ["a", "b"])
        table.add_row(1, 10.0)
        table.add_row(2, 20.0)
        assert table.column("b") == [10.0, 20.0]

    def test_missing_column_error_lists_available(self):
        table = ResultTable("demo", ["a", "b"])
        with pytest.raises(ValueError) as excinfo:
            table.column("nope")
        message = str(excinfo.value)
        assert "table 'demo'" in message
        assert "'nope'" in message
        assert "'a'" in message and "'b'" in message

    def test_payload_roundtrip(self):
        table = ResultTable("demo", ["x", "y"])
        table.add_row(1, "v")
        table.add_note("n")
        rebuilt = ResultTable.from_payload(table.to_payload())
        assert rebuilt == table

    def test_bool_rendering(self):
        table = ResultTable("demo", ["ok"])
        table.add_row(True)
        table.add_row(False)
        assert "yes" in table.render()
        assert "no" in table.render()

    def test_markdown_rendering(self):
        table = ResultTable("demo", ["x"])
        table.add_row(1.5)
        markdown = table.render_markdown()
        assert markdown.startswith("**demo**")
        assert "| x |" in markdown

    def test_notes_rendered(self):
        table = ResultTable("demo", ["x"])
        table.add_row(1)
        table.add_note("hello world")
        assert "hello world" in table.render()
        assert "hello world" in table.render_markdown()

    def test_json_roundtrip(self):
        table = ResultTable("demo", ["x", "y"])
        table.add_row(1, "v")
        payload = json.loads(table.to_json())
        assert payload["title"] == "demo"
        assert payload["rows"] == [[1, "v"]]

    def test_empty_table_renders(self):
        table = ResultTable("empty", ["only"])
        assert "only" in table.render()


class TestRatioStatistics:
    def test_band(self):
        stats = ratio_statistics([1.0, 2.0, 4.0], [1.0, 1.0, 1.0])
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0
        assert stats.band == 4.0
        assert stats.geometric_mean == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            ratio_statistics([1.0], [1.0, 2.0])
        with pytest.raises(ParameterError):
            ratio_statistics([1.0], [0.0])


class TestRngHelpers:
    def test_as_generator_idempotent(self):
        generator = np.random.default_rng(0)
        assert as_generator(generator) is generator

    def test_as_generator_from_int(self):
        a = as_generator(5).random()
        b = as_generator(5).random()
        assert a == b

    def test_spawn_children_independent_and_reproducible(self):
        first = [g.random() for g in spawn(7, 3)]
        second = [g.random() for g in spawn(7, 3)]
        assert first == second
        assert len(set(first)) == 3

    def test_spawn_from_generator(self):
        children = spawn(np.random.default_rng(1), 2)
        assert len(children) == 2

    def test_spawn_negative_count(self):
        with pytest.raises(ValueError):
            spawn(1, -1)
