"""Tests for the CLI entry point (the subcommand parser)."""

import json
import re

import pytest

from repro.api import PRESETS, all_experiments, experiment_ids
from repro.cli import build_cli_parser, main


class TestParser:
    def test_subcommand_run_flags(self):
        args = build_cli_parser().parse_args(
            ["run", "EXP-F1", "--full", "--seed", "3",
             "--set", "steps=7", "--json"]
        )
        assert args.command == "run"
        assert args.ids == ["EXP-F1"]
        assert args.full
        assert args.seed == 3
        assert args.overrides == ["steps=7"]
        assert args.json

    def test_kernel_flag_all_parsers(self):
        args = build_cli_parser().parse_args(
            ["run", "EXP-T222", "--kernel", "fused"]
        )
        assert args.kernel == "fused"
        args = build_cli_parser().parse_args(
            ["sweep", "EXP-T222", "--set", "n=24,36", "--kernel", "numpy"]
        )
        assert args.kernel == "numpy"

    def test_kernel_reaches_provenance(self, capsys):
        assert main(
            ["run", "EXP-T221", "--kernel", "fused",
             "--set", "replicas=2", "--set", "sizes=8", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["provenance"]["parameters"]["kernel"] == "fused"
        assert payload[0]["spec"]["kernel"] == "fused"

    def test_subcommand_diff_flags(self):
        args = build_cli_parser().parse_args(
            ["diff", "a.json", "b.json", "--rel-tol", "0.5"]
        )
        assert args.command == "diff"
        assert args.left == "a.json"
        assert args.right == "b.json"
        assert args.rel_tol == 0.5


class TestRunCommand:
    def test_run_prints_tables(self, capsys):
        assert main(["run", "EXP-F4"]) == 0
        out = capsys.readouterr().out
        assert "EXP-F4" in out
        assert "Figure 4" in out

    def test_run_json_payload(self, capsys):
        assert main(["run", "EXP-F4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and len(payload) == 1
        (entry,) = payload
        assert entry["spec"]["experiment_id"] == "EXP-F4"
        assert entry["provenance"]["version"]
        assert entry["provenance"]["graph_hashes"]
        assert entry["tables"][0]["title"].startswith("Figure 4")

    def test_run_unknown_id(self, capsys):
        assert main(["run", "EXP-NOPE"]) == 2
        assert "unknown experiment ids" in capsys.readouterr().err

    def test_run_unknown_override_fails_cleanly(self, capsys):
        assert main(["run", "EXP-F4", "--set", "bogus=1"]) == 2
        assert "no parameter 'bogus'" in capsys.readouterr().err

    def test_run_set_overrides_declared_param(self, capsys):
        assert main(["run", "EXP-F1", "--set", "steps=5", "--json"]) == 0
        (entry,) = json.loads(capsys.readouterr().out)
        assert entry["provenance"]["parameters"]["steps"] == 5

    def test_run_markdown_rendering(self, capsys):
        assert main(["run", "EXP-F4", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert "| t |" in out

    def test_run_save_archives_to_store(self, tmp_path, capsys):
        assert main(["run", "EXP-F4", "--save", str(tmp_path)]) == 0
        assert (tmp_path / "manifest.json").exists()
        assert "saved ->" in capsys.readouterr().out

    def test_run_all_validates_overrides_before_executing(self, capsys):
        # 'steps' is declared by EXP-F1 but not EXP-F4: the batch must
        # fail up front, before any experiment runs or archives.
        assert main(["run", "EXP-F1", "EXP-F4", "--set", "steps=5"]) == 2
        captured = capsys.readouterr()
        assert "### EXP-F1" not in captured.out
        assert "no parameter 'steps'" in captured.err

    def test_flag_before_subcommand_gets_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--seed", "3", "run", "EXP-F4"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "run" in err and "usage" in err.lower()

    @pytest.mark.parametrize(
        "argv", [[], ["EXP-F1"], ["--list"]], ids=["bare", "id", "list"]
    )
    def test_pre_subcommand_invocation_gets_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "usage" in captured.err.lower()
        assert captured.out == ""  # nothing ran


class TestListCommand:
    def test_list_text(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in experiment_ids():
            assert key in out

    def test_list_json_schema(self, capsys):
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_id = {entry["id"]: entry for entry in payload}
        assert set(by_id) == set(experiment_ids())
        t222 = by_id["EXP-T222"]
        assert t222["params"]["engine"]["choices"] == ["batch", "loop"]
        assert t222["presets"]["fast"]["n"] == 36
        assert t222["presets"]["full"]["n"] == 100


class TestSweepCommand:
    def test_sweep_runs_grid(self, capsys):
        assert main(["sweep", "EXP-F1", "--set", "steps=4,6"]) == 0
        out = capsys.readouterr().out
        assert "sweep summary" in out

    def test_sweep_requires_axis(self, capsys):
        assert main(["sweep", "EXP-F1", "--set", "steps=4"]) == 2
        assert "axis" in capsys.readouterr().err

    def test_sweep_json(self, capsys):
        assert main(["sweep", "EXP-F1", "--set", "steps=4,6", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["results"]) == 2
        assert payload["summary"]["columns"][0] == "steps"

    def test_sweep_commas_fix_list_typed_params(self, capsys):
        # For a list-typed parameter a comma builds ONE value (as under
        # `run`); the sweep axis must come from another parameter.
        assert main(["sweep", "EXP-T221", "--set", "sizes=8,12",
                     "--set", "replicas=1,2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["columns"][0] == "replicas"
        assert [r["provenance"]["parameters"]["sizes"]
                for r in payload["results"]] == [[8, 12], [8, 12]]

    def test_sweep_semicolon_sweeps_list_typed_params(self, capsys):
        assert main(["sweep", "EXP-F1", "--set", "steps=4,6", "--json"]) == 0
        capsys.readouterr()
        assert main(["sweep", "EXP-T221", "--set", "sizes=8;12",
                     "--set", "replicas=1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["provenance"]["parameters"]["sizes"]
                for r in payload["results"]] == [[8], [12]]


class TestDiffCommand:
    def _save_one(self, tmp_path, capsys, seed="0"):
        assert main(["run", "EXP-F4", "--seed", seed,
                     "--save", str(tmp_path)]) == 0
        capsys.readouterr()

    def test_self_diff_exits_zero(self, tmp_path, capsys):
        self._save_one(tmp_path, capsys)
        path = str(tmp_path / "EXP-F4.fast.s0.json")
        assert main(["diff", path, path]) == 0
        assert "match" in capsys.readouterr().out

    def test_diff_by_id_with_store(self, tmp_path, capsys):
        self._save_one(tmp_path, capsys)
        assert main(["diff", "EXP-F4", "EXP-F4", "--store", str(tmp_path)]) == 0

    def test_diff_detects_drift(self, tmp_path, capsys):
        self._save_one(tmp_path, capsys)
        path = tmp_path / "EXP-F4.fast.s0.json"
        payload = json.loads(path.read_text())
        payload["tables"][0]["rows"][0][1] = 1e6
        other = tmp_path / "tampered.json"
        other.write_text(json.dumps(payload))
        assert main(["diff", str(path), str(other)]) == 1
        assert "->" in capsys.readouterr().out

    @pytest.mark.parametrize("rel_tol", ["-1", "nan", "inf"])
    def test_diff_rejects_bad_rel_tol(self, rel_tol, tmp_path, capsys):
        self._save_one(tmp_path, capsys)
        assert main(["diff", "EXP-F4", "EXP-F4", "--store", str(tmp_path),
                     "--rel-tol", rel_tol]) == 2
        captured = capsys.readouterr()
        assert "rel_tol must be finite and >= 0" in captured.err
        assert captured.out == ""

    def test_diff_missing_store_errors(self, capsys):
        assert main(["diff", "EXP-F4", "EXP-F4"]) == 2
        assert "--store" in capsys.readouterr().err

    def test_diff_reports_missing_artefact_file_not_unknown_id(
        self, tmp_path, capsys
    ):
        self._save_one(tmp_path, capsys)
        (tmp_path / "EXP-F4.fast.s0.json").unlink()
        assert main(["diff", "EXP-F4.fast.s0", "EXP-F4.fast.s0",
                     "--store", str(tmp_path)]) == 2
        assert "missing" in capsys.readouterr().err


class TestRegistryIntegrity:
    """The decorator registry, DESIGN.md and the presets stay in sync."""

    def test_all_ids_documented_in_design(self):
        with open("DESIGN.md", encoding="utf-8") as handle:
            design = handle.read()
        for key in experiment_ids():
            assert key in design, f"{key} missing from DESIGN.md"

    def test_design_index_rows_match_registry(self):
        """Every `| EXP-... |` row of the DESIGN.md index is registered."""
        with open("DESIGN.md", encoding="utf-8") as handle:
            design = handle.read()
        indexed = re.findall(r"^\| (EXP-[A-Z0-9]+) \|", design, re.MULTILINE)
        assert indexed, "DESIGN.md experiment index not found"
        assert set(indexed) == set(experiment_ids())

    def test_every_experiment_declares_both_presets(self):
        for exp in all_experiments():
            for preset in PRESETS:
                assert preset in exp.presets, (exp.id, preset)
                # Resolution must succeed: presets + defaults cover params.
                resolved = exp.resolve(preset)
                assert set(resolved) == set(exp.params), exp.id

    def test_preset_keys_are_declared_params(self):
        for exp in all_experiments():
            for preset, values in exp.presets.items():
                unknown = set(values) - set(exp.params)
                assert not unknown, (exp.id, preset, unknown)

    def test_engine_declared_only_by_monte_carlo_runners(self):
        """Engine selection: the nine MC runners plus the dual workloads."""
        with_engine = {
            exp.id for exp in all_experiments() if "engine" in exp.params
        }
        assert with_engine == {
            "EXP-T221", "EXP-T221K", "EXP-T221LB", "EXP-T222", "EXP-T241",
            "EXP-T242", "EXP-MOM", "EXP-IRR", "EXP-ABL",
            "EXP-F1", "EXP-F4", "EXP-L57", "EXP-COAL",
        }


class TestJobServiceParsers:
    def test_serve_flags(self):
        args = build_cli_parser().parse_args(
            ["serve", "--root", "jobs/", "--workers", "3",
             "--heartbeat-timeout", "2.5", "--until-idle", "--timeout", "9"]
        )
        assert args.command == "serve"
        assert args.root == "jobs/"
        assert args.workers == 3
        assert args.heartbeat_timeout == 2.5
        assert args.until_idle
        assert args.timeout == 9.0

    def test_submit_mirrors_run_flags(self):
        args = build_cli_parser().parse_args(
            ["submit", "EXP-F1", "--root", "jobs/", "--seed", "5",
             "--set", "steps=7", "--trace", "--max-retries", "1",
             "--wait", "--timeout", "30", "--json"]
        )
        assert args.command == "submit"
        assert args.ids == ["EXP-F1"]
        assert args.seed == 5
        assert args.overrides == ["steps=7"]
        assert args.trace and args.wait and args.json
        assert args.max_retries == 1

    def test_status_fetch_jobs_flags(self):
        args = build_cli_parser().parse_args(["status", "j0ddc0ffee"])
        assert args.command == "status" and args.job == "j0ddc0ffee"
        args = build_cli_parser().parse_args(
            ["fetch", "jab", "--wait", "--timeout", "4", "--json"]
        )
        assert args.command == "fetch" and args.wait and args.timeout == 4.0
        args = build_cli_parser().parse_args(["jobs", "list", "--json"])
        assert args.command == "jobs" and args.action == "list"
        args = build_cli_parser().parse_args(["jobs", "cancel", "jab"])
        assert args.action == "cancel" and args.job == "jab"
        args = build_cli_parser().parse_args(["jobs", "stop"])
        assert args.action == "stop"

    def test_submit_timeout_s_flag(self):
        args = build_cli_parser().parse_args(
            ["submit", "EXP-F1", "--timeout-s", "2.5"]
        )
        assert args.timeout_s == 2.5
        assert build_cli_parser().parse_args(
            ["submit", "EXP-F1"]
        ).timeout_s is None

    def test_fsck_flags(self):
        args = build_cli_parser().parse_args(
            ["fsck", "--root", "jobs/", "--cache", "c/", "--repair",
             "--grace", "0", "--json"]
        )
        assert args.command == "fsck"
        assert args.root == "jobs/"
        assert args.cache == "c/"
        assert args.repair and args.json
        assert args.grace == 0.0


class TestJobServiceCommands:
    """Inline-worker coverage; full subprocess E2E lives in test_jobs.py."""

    @staticmethod
    def _drain(root):
        from repro.jobs import Worker

        Worker(root, poll=0.01).run(idle_exit=0.05)

    def test_submit_validates_before_enqueueing(self, tmp_path, capsys):
        root = str(tmp_path)
        assert main(["submit", "EXP-NOPE", "--root", root]) == 2
        assert "unknown experiment ids" in capsys.readouterr().err
        assert main(["submit", "EXP-F4", "--set", "bogus=1",
                     "--root", root]) == 2
        assert "no parameter 'bogus'" in capsys.readouterr().err
        from repro.jobs import JobQueue

        assert JobQueue(root).jobs() == []  # nothing leaked into the queue

    def test_submit_status_fetch_round_trip(self, tmp_path, capsys):
        root = str(tmp_path)
        assert main(["submit", "EXP-F4", "--root", root, "--json"]) == 0
        [entry] = json.loads(capsys.readouterr().out)
        assert entry["state"] == "queued"
        self._drain(root)
        assert main(["status", entry["job"], "--root", root, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["state"] == "done"
        assert main(["fetch", entry["job"], "--root", root, "--json"]) == 0
        fetched = json.loads(capsys.readouterr().out)
        assert fetched["spec"]["experiment_id"] == "EXP-F4"
        assert fetched["tables"][0]["title"].startswith("Figure 4")

    def test_duplicate_submission_reports_coalescence(self, tmp_path, capsys):
        root = str(tmp_path)
        assert main(["submit", "EXP-F4", "--root", root, "--json"]) == 0
        capsys.readouterr()
        assert main(["submit", "EXP-F4", "--root", root, "--json"]) == 0
        [entry] = json.loads(capsys.readouterr().out)
        assert entry["state"] == "coalesced"
        assert entry["coalesced_into"]

    def test_jobs_list_cancel_and_stop(self, tmp_path, capsys):
        root = str(tmp_path)
        assert main(["submit", "EXP-F4", "--root", root, "--json"]) == 0
        [entry] = json.loads(capsys.readouterr().out)
        assert main(["jobs", "list", "--root", root, "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert listing["stats"]["jobs"] == 1
        assert listing["jobs"][0]["id"] == entry["job"]
        assert main(["jobs", "cancel", entry["job"], "--root", root]) == 0
        assert "cancelled" in capsys.readouterr().out
        assert main(["jobs", "stop", "--root", root]) == 0
        capsys.readouterr()
        from repro.jobs import JobQueue

        assert JobQueue(root).stop_requested()

    def test_fetch_unfinished_job_errors(self, tmp_path, capsys):
        root = str(tmp_path)
        assert main(["submit", "EXP-F4", "--root", root, "--json"]) == 0
        [entry] = json.loads(capsys.readouterr().out)
        assert main(["fetch", entry["job"], "--root", root]) == 2
        assert "not done" in capsys.readouterr().err

    def test_submit_timeout_s_lands_on_spec(self, tmp_path, capsys):
        root = str(tmp_path)
        assert main(["submit", "EXP-F4", "--root", root,
                     "--timeout-s", "7", "--json"]) == 0
        [entry] = json.loads(capsys.readouterr().out)
        from repro.jobs import JobQueue

        job = JobQueue(root).get(entry["job"])
        assert job.spec.timeout_s == 7.0


class TestFsckCommand:
    def test_clean_root_exits_zero(self, tmp_path, capsys):
        root = str(tmp_path / "jobs")
        assert main(["submit", "EXP-F4", "--root", root, "--json"]) == 0
        capsys.readouterr()
        from repro.jobs import Worker

        Worker(root, poll=0.01).run(idle_exit=0.05)
        assert main(["fsck", "--root", root, "--grace", "0"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out and "-> clean" in out

    def test_break_detect_repair_cycle(self, tmp_path, capsys):
        root = tmp_path / "jobs"
        assert main(["submit", "EXP-F4", "--root", str(root), "--json"]) == 0
        capsys.readouterr()
        (root / "queued" / "jtorn.json").write_text('{"torn": ')

        # Read-only: report the damage, exit nonzero, touch nothing.
        assert main(["fsck", "--root", str(root), "--grace", "0"]) == 1
        out = capsys.readouterr().out
        assert "unparseable record queued/jtorn.json" in out
        assert "-> NOT clean" in out
        assert (root / "queued" / "jtorn.json").exists()

        # Repair: fix it, report convergence, exit zero.
        assert main(["fsck", "--root", str(root), "--grace", "0",
                     "--repair"]) == 0
        out = capsys.readouterr().out
        assert "repaired" in out and "-> clean" in out
        assert not (root / "queued" / "jtorn.json").exists()
        assert (root / "corrupt" / "jtorn.json").exists()  # set aside

        assert main(["fsck", "--root", str(root), "--grace", "0"]) == 0
        capsys.readouterr()

    def test_json_report(self, tmp_path, capsys):
        root = str(tmp_path / "jobs")
        from repro.jobs import JobQueue

        JobQueue(root).ensure_layout()
        assert main(["fsck", "--root", root, "--grace", "0", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["clean"] is True
        assert report["findings"] == []
        assert "queue" in report and "store" in report
