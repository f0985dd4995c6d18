"""Tests for the declarative run API (repro.api)."""

import json

import pytest

from repro.api import (
    ArtifactStore,
    ParamSpec,
    Provenance,
    RunResult,
    RunSpec,
    diff_results,
    execute,
    expand_grid,
    experiment_ids,
    get_experiment,
    resolve_spec,
)
from repro.exceptions import ArtifactError, SpecError
from repro.sim.results import ResultTable


class TestRunSpec:
    def test_json_roundtrip_lossless(self):
        spec = RunSpec(
            "EXP-T222",
            preset="full",
            seed=7,
            engine="loop",
            overrides={"n": 24, "tol": 1e-5},
            markdown=True,
        )
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_roundtrip_normalises_tuples(self):
        spec = RunSpec("EXP-T221", overrides={"sizes": (16, 32)})
        assert spec.overrides["sizes"] == [16, 32]
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_unknown_payload_field_rejected(self):
        with pytest.raises(SpecError, match="unknown fields"):
            RunSpec.from_payload({"experiment_id": "EXP-F1", "bogus": 1})

    def test_missing_experiment_id_rejected(self):
        with pytest.raises(SpecError):
            RunSpec.from_payload({"preset": "fast"})

    def test_bad_seed_rejected(self):
        with pytest.raises(SpecError):
            RunSpec("EXP-F1", seed="zero")

    def test_key_stable_and_override_sensitive(self):
        base = RunSpec("EXP-T222")
        assert base.key() == "EXP-T222.fast.s0"
        varied = RunSpec("EXP-T222", overrides={"n": 24})
        assert varied.key() != base.key()
        assert varied.key() == RunSpec("EXP-T222", overrides={"n": 24}).key()

    def test_key_treats_engine_as_override(self):
        via_field = RunSpec("EXP-T222", engine="loop")
        via_override = RunSpec("EXP-T222", overrides={"engine": "loop"})
        assert via_field.key() == via_override.key()

    def test_key_ignores_engine_that_cannot_affect_resolution(self):
        # EXP-VT declares no engine parameter: the field is a no-op and
        # must not split the configuration's identity.
        assert RunSpec("EXP-VT", engine="batch").key() == RunSpec("EXP-VT").key()
        assert RunSpec("EXP-VT", engine="loop").key() == RunSpec("EXP-VT").key()
        # The declared default is equally a no-op.
        assert (
            RunSpec("EXP-T222", engine="batch").key()
            == RunSpec("EXP-T222").key()
        )

    def test_key_keeps_engine_for_unknown_experiment(self):
        base = RunSpec("EXP-FUTURE")
        assert RunSpec("EXP-FUTURE", engine="loop").key() != base.key()

    def test_key_ignores_override_equal_to_preset_value(self):
        # n=36 IS the fast preset's value: resolution is identical, so
        # the configuration identity must be too.
        assert (
            RunSpec("EXP-T222", overrides={"n": 36}).key()
            == RunSpec("EXP-T222").key()
        )
        assert (
            RunSpec("EXP-T222", overrides={"engine": "batch"}).key()
            == RunSpec("EXP-T222").key()
        )

    def test_key_identical_for_string_and_typed_overrides(self):
        assert (
            RunSpec("EXP-T222", overrides={"n": "48"}).key()
            == RunSpec("EXP-T222", overrides={"n": 48}).key()
        )

    def test_malformed_provenance_value_reported_cleanly(self):
        payload = {
            "parameters": {},
            "version": "1.0.0",
            "graph_hashes": [],
            "wall_time_s": "not-a-number",
            "timestamp": 0.0,
        }
        with pytest.raises(SpecError, match="malformed provenance"):
            Provenance.from_payload(payload)


class TestRegistry:
    def test_all_ids_registered(self):
        assert set(experiment_ids()) == {
            "EXP-F1", "EXP-F4", "EXP-T221", "EXP-T221K", "EXP-T221LB",
            "EXP-T222", "EXP-T241", "EXP-T242", "EXP-L41", "EXP-L57",
            "EXP-PB1", "EXP-CE2", "EXP-PRICE", "EXP-MOM", "EXP-IRR",
            "EXP-ABL", "EXP-VT", "EXP-DYN", "EXP-DYNM", "EXP-COAL",
        }

    def test_unknown_id_lists_known(self):
        with pytest.raises(SpecError, match="EXP-F1"):
            get_experiment("EXP-NOPE")

    def test_preset_resolution(self):
        exp = get_experiment("EXP-T222")
        fast = exp.resolve("fast")
        full = exp.resolve("full")
        assert fast == {
            "n": 36,
            "replicas": 160,
            "tol": 1e-6,
            "engine": "batch",
            "kernel": "auto",
        }
        assert full["n"] == 100 and full["replicas"] == 600

    def test_overrides_win_over_preset(self):
        exp = get_experiment("EXP-T222")
        assert exp.resolve("fast", {"n": 99})["n"] == 99

    def test_unknown_preset_rejected(self):
        with pytest.raises(SpecError, match="preset"):
            get_experiment("EXP-T222").resolve("huge")

    def test_unknown_override_rejected(self):
        with pytest.raises(SpecError, match="declared parameters"):
            get_experiment("EXP-T222").resolve("fast", {"bogus": 1})

    def test_string_coercion(self):
        exp = get_experiment("EXP-T222")
        resolved = exp.resolve("fast", {"n": "48", "tol": "1e-7"})
        assert resolved["n"] == 48 and resolved["tol"] == 1e-7

    def test_choice_validation(self):
        with pytest.raises(SpecError, match="engine"):
            get_experiment("EXP-T222").resolve("fast", {"engine": "gpu"})

    def test_sequence_coercion(self):
        exp = get_experiment("EXP-T221")
        resolved = exp.resolve("fast", {"sizes": "8,16"})
        assert resolved["sizes"] == [8, 16]


class TestParamSpec:
    def test_bool_coercion(self):
        spec = ParamSpec(bool, "flag")
        assert spec.coerce("x", "true") is True
        assert spec.coerce("x", "0") is False
        with pytest.raises(SpecError):
            spec.coerce("x", "maybe")

    def test_int_rejects_bool_and_garbage(self):
        spec = ParamSpec(int, "count")
        with pytest.raises(SpecError):
            spec.coerce("x", True)
        with pytest.raises(SpecError):
            spec.coerce("x", "1.5")

    def test_float_accepts_int(self):
        assert ParamSpec(float, "tol").coerce("x", 1) == 1.0


class TestExecute:
    def test_engine_field_ignored_without_engine_param(self):
        # EXP-VT declares no engine; the spec-level field is a no-op,
        # matching the legacy CLI's --engine behaviour.
        assert "engine" not in resolve_spec(RunSpec("EXP-VT", engine="loop"))

    def test_engine_field_applies_when_declared(self):
        assert resolve_spec(RunSpec("EXP-T222", engine="loop"))["engine"] == "loop"

    def test_explicit_override_beats_engine_field(self):
        spec = RunSpec("EXP-T222", engine="loop", overrides={"engine": "batch"})
        assert resolve_spec(spec)["engine"] == "batch"

    def test_provenance_recorded(self):
        import repro

        result = execute(RunSpec("EXP-F1", overrides={"steps": 5}, seed=3))
        assert result.provenance.version == repro.__version__
        assert result.provenance.parameters["steps"] == 5
        assert result.provenance.parameters["engine"] == "batch"
        assert result.provenance.wall_time_s > 0
        assert result.provenance.graph_hashes  # graphs were frozen
        assert all(len(h) == 64 for h in result.provenance.graph_hashes)

    def test_result_json_roundtrip(self):
        result = execute(RunSpec("EXP-F4"))
        rebuilt = RunResult.from_json(result.to_json())
        assert rebuilt.spec == result.spec
        assert rebuilt.tables == result.tables
        assert rebuilt.provenance == result.provenance

    def test_deterministic_at_fixed_seed(self):
        spec = RunSpec("EXP-F1", overrides={"steps": 5}, seed=1)
        first, second = execute(spec), execute(spec)
        assert [t.to_payload() for t in first.tables] == [
            t.to_payload() for t in second.tables
        ]


class TestExpandGrid:
    def test_grid_order_and_coercion(self):
        specs = expand_grid("EXP-T222", {"n": ["24", "36"], "tol": ["1e-5"]})
        assert [s.overrides for s in specs] == [
            {"n": 24, "tol": 1e-5},
            {"n": 36, "tol": 1e-5},
        ]

    def test_last_axis_varies_fastest(self):
        specs = expand_grid("EXP-T222", {"n": [24, 36], "tol": [1e-5, 1e-6]})
        assert [s.overrides for s in specs] == [
            {"n": 24, "tol": 1e-5},
            {"n": 24, "tol": 1e-6},
            {"n": 36, "tol": 1e-5},
            {"n": 36, "tol": 1e-6},
        ]

    def test_undeclared_axis_rejected(self):
        with pytest.raises(SpecError):
            expand_grid("EXP-T222", {"bogus": [1, 2]})

    def test_axis_collision_with_override_rejected(self):
        with pytest.raises(SpecError, match="collides"):
            expand_grid("EXP-T222", {"n": [24]}, overrides={"n": 36})

    def test_empty_axes_rejected(self):
        with pytest.raises(SpecError):
            expand_grid("EXP-T222", {})


def _result(experiment_id="EXP-F4", seed=0, value=2.5, preset="fast"):
    table = ResultTable("demo", ["x", "y"])
    table.add_row(1, value)
    return RunResult(
        spec=RunSpec(experiment_id, preset=preset, seed=seed),
        tables=[table],
        provenance=Provenance(
            parameters={},
            engine=None,
            version="1.0.0",
            graph_hashes=[],
            wall_time_s=0.1,
            timestamp=float(seed),
        ),
    )


class TestArtifactStore:
    def test_save_creates_manifest_and_artefact(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path = store.save(_result())
        assert path.name == "EXP-F4.fast.s0.json"
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["schema"] == 1
        assert "EXP-F4.fast.s0" in manifest["records"]
        record = manifest["records"]["EXP-F4.fast.s0"]
        assert record["experiment_id"] == "EXP-F4"
        assert record["file"] == "EXP-F4.fast.s0.json"
        assert record["version"] == "1.0.0"

    def test_same_configuration_overwrites(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save(_result(value=1.0))
        store.save(_result(value=2.0))
        assert len(store.records()) == 1
        assert store.load("EXP-F4.fast.s0").tables[0].rows == [[1, 2.0]]

    def test_load_spec_and_find(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save(_result(seed=0))
        store.save(_result(seed=1))
        store.save(_result(experiment_id="EXP-F1", seed=0))
        assert len(store.records()) == 3
        assert len(store.find(experiment_id="EXP-F4")) == 2
        assert len(store.find(experiment_id="EXP-F4", seed=1)) == 1
        loaded = store.load_spec(RunSpec("EXP-F4", seed=1))
        assert loaded.spec.seed == 1

    def test_latest_picks_newest_timestamp(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save(_result(seed=0))   # timestamp 0.0
        store.save(_result(seed=5))   # timestamp 5.0
        assert store.latest("EXP-F4").spec.seed == 5

    def test_missing_key_lists_known(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save(_result())
        with pytest.raises(ArtifactError, match="EXP-F4.fast.s0"):
            store.load("EXP-NOPE.fast.s0")

    def test_latest_without_runs_errors(self, tmp_path):
        with pytest.raises(ArtifactError):
            ArtifactStore(tmp_path).latest("EXP-F4")

    def test_corrupt_manifest_rebuilt_from_artifacts(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save(_result())
        (tmp_path / "manifest.json").write_text("{not json")
        records = store.records()
        assert [record.key for record in records] == ["EXP-F4.fast.s0"]
        assert store.load("EXP-F4.fast.s0").spec.experiment_id == "EXP-F4"
        # fsck's read-only mode still reports the corruption verbatim.
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(ArtifactError, match="corrupt manifest"):
            store._read_manifest(heal=False)


class TestDiffResults:
    def test_identical_runs_match(self):
        assert diff_results(_result(), _result()) == []

    def test_numeric_drift_detected(self):
        problems = diff_results(_result(value=1.0), _result(value=100.0))
        assert problems and "demo" in problems[0]

    def test_within_tolerance_matches(self):
        assert diff_results(_result(value=1.0), _result(value=1.1)) == []

    def test_different_experiments_flagged(self):
        problems = diff_results(_result("EXP-F4"), _result("EXP-F1"))
        assert problems == ["experiment changed: EXP-F4 -> EXP-F1"]

    def test_table_set_changes_flagged(self):
        extra = _result()
        second = ResultTable("extra", ["z"])
        second.add_row(0)
        extra.tables.append(second)
        problems = diff_results(_result(), extra)
        assert any("appeared" in p for p in problems)
        problems = diff_results(extra, _result())
        assert any("disappeared" in p for p in problems)


class TestExecuteMany:
    def test_identical_specs_invoke_engine_once(self, monkeypatch):
        from repro.api import execute_many
        from repro.obs.metrics import METRICS

        experiment = get_experiment("EXP-F4")
        calls = []
        real_fn = experiment.fn

        def counting_fn(*args, **kwargs):
            calls.append(1)
            return real_fn(*args, **kwargs)

        monkeypatch.setattr(experiment, "fn", counting_fn)
        base = METRICS.value("api.memo_hits")
        specs = [RunSpec("EXP-F4", seed=1) for _ in range(6)]
        results = execute_many(specs)
        assert len(calls) == 1  # six identical specs, one engine run
        assert len(results) == 6
        assert METRICS.value("api.memo_hits") - base == 5
        first = results[0]
        for result in results[1:]:
            assert result.provenance is first.provenance
            assert [t.to_payload() for t in result.tables] == [
                t.to_payload() for t in first.tables
            ]

    def test_distinct_specs_each_execute(self, monkeypatch):
        from repro.api import execute_many

        experiment = get_experiment("EXP-F4")
        calls = []
        real_fn = experiment.fn

        def counting_fn(*args, **kwargs):
            calls.append(1)
            return real_fn(*args, **kwargs)

        monkeypatch.setattr(experiment, "fn", counting_fn)
        results = execute_many([RunSpec("EXP-F4", seed=1),
                                RunSpec("EXP-F4", seed=2)])
        assert len(calls) == 2
        assert results[0].spec.seed == 1 and results[1].spec.seed == 2

    def test_memo_false_forces_every_run(self, monkeypatch):
        from repro.api import execute_many

        experiment = get_experiment("EXP-F4")
        calls = []
        real_fn = experiment.fn

        def counting_fn(*args, **kwargs):
            calls.append(1)
            return real_fn(*args, **kwargs)

        monkeypatch.setattr(experiment, "fn", counting_fn)
        execute_many([RunSpec("EXP-F4"), RunSpec("EXP-F4")], memo=False)
        assert len(calls) == 2

    def test_memo_hit_keeps_each_specs_output_options(self):
        from repro.api import execute_many

        plain = RunSpec("EXP-F4", seed=3)
        marked = RunSpec("EXP-F4", seed=3, markdown=True)
        results = execute_many([plain, marked])
        assert results[0].spec is plain
        assert results[1].spec is marked  # memo hit, own spec preserved
