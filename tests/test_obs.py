"""Tests for the ``repro.obs`` observability layer.

Covers the span/tracer primitives and their off-state contract, the
metric registry, chunk-boundary streams, telemetry assembly and export,
the instrumented engine stack (shard spans, merged multiprocessing
worker traces, counter folding), the visible jit fallback, trace/cache
CLI subcommands, and the disabled-tracer overhead bound the hot loops
rely on.
"""

import json
import time
import warnings

import networkx as nx
import numpy as np
import pytest

from repro.api import ArtifactStore, RunSpec, execute
from repro.cli import main
from repro.core.initial import center_simple, linear_ramp
from repro.engine import (
    BatchNodeModel,
    EngineSpec,
    sample_f_batch,
    sample_t_eps_batch,
)
from repro.engine import kernels as kernels_mod
from repro.engine.cache import ResultCache
from repro.graphs.adjacency import Adjacency
from repro.obs import (
    METRICS,
    TELEMETRY_SCHEMA,
    MetricRegistry,
    Span,
    StreamSet,
    Tracer,
    activate,
    active_tracer,
    build_telemetry,
    chrome_trace,
    render_summary,
    set_active,
    summarize,
    traced,
)

N = 16
ADJ = Adjacency.from_graph(nx.circulant_graph(N, [1, 2]))
INITIAL = center_simple(linear_ramp(N, 0.0, 1.0))


def _spec(kernel: str = "fused") -> EngineSpec:
    return EngineSpec(
        kind="node", adjacency=ADJ, initial_values=INITIAL, alpha=0.5,
        kernel=kernel,
    )


# ----------------------------------------------------------------------
# Span / Tracer primitives
# ----------------------------------------------------------------------
class TestSpan:
    def test_walk_depth_and_self_time(self):
        leaf = Span("leaf", 0.1, 0.2)
        root = Span("root", 0.0, 1.0, children=[leaf])
        assert [(s.name, d) for s, d in root.walk()] == [
            ("root", 0), ("leaf", 1)
        ]
        assert root.depth() == 2
        assert root.self_time == pytest.approx(0.8)

    def test_payload_round_trip(self):
        root = Span(
            "root", 0.5, 1.5, attrs={"k": 1},
            children=[Span("child", 0.6, 0.1)],
        )
        clone = Span.from_payload(root.to_payload())
        assert clone.name == "root"
        assert clone.attrs == {"k": 1}
        assert clone.children[0].name == "child"
        assert clone.children[0].duration == pytest.approx(0.1)

    def test_shifted_moves_whole_subtree(self):
        root = Span("root", 1.0, 2.0, children=[Span("child", 1.5, 0.5)])
        moved = root.shifted(10.0)
        assert moved.start == pytest.approx(11.0)
        assert moved.children[0].start == pytest.approx(11.5)
        # the original is untouched (shifted returns a copy)
        assert root.start == pytest.approx(1.0)


class TestTracer:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("outer", kind="t"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        (root,) = tracer.roots
        assert root.name == "outer"
        assert root.attrs == {"kind": "t"}
        assert [c.name for c in root.children] == ["inner", "inner"]
        assert tracer.depth() == 2
        assert len(tracer.find("inner")) == 2

    def test_disabled_span_is_shared_noop(self):
        tracer = Tracer.disabled
        first = tracer.span("a", big=1)
        second = tracer.span("b")
        assert first is second  # one reusable handle, no allocation
        with first:
            first.add(ignored=True)
        assert tracer.roots == []

    def test_span_budget_drops_but_keeps_timing(self):
        tracer = Tracer(max_spans=2)
        for _ in range(5):
            with tracer.span("s"):
                pass
        assert len(tracer.roots) == 2
        assert tracer.dropped == 3

    def test_attach_shifts_foreign_roots_under_parent(self):
        tracer = Tracer()
        with tracer.span("shard") as handle:
            pass
        foreign = Span("worker", 0.0, 1.0, children=[Span("block", 0.2, 0.1)])
        tracer.attach(handle.span, [foreign], offset=5.0)
        (worker,) = handle.span.children
        assert worker.start == pytest.approx(5.0)
        assert worker.children[0].start == pytest.approx(5.2)

    def test_record_streams_only_when_enabled(self):
        on, off = Tracer(), Tracer(enabled=False)
        on.record("phi", 1.0, 0.5)
        off.record("phi", 1.0, 0.5)
        assert bool(on.streams)
        assert not bool(off.streams)

    def test_activate_installs_and_restores(self):
        assert active_tracer() is Tracer.disabled
        tracer = Tracer()
        with activate(tracer):
            assert active_tracer() is tracer
        assert active_tracer() is Tracer.disabled

    def test_traced_decorator(self):
        @traced("wrapped", tag=3)
        def fn(x):
            return x + 1

        assert fn(1) == 2  # disabled: plain call
        tracer = Tracer()
        with activate(tracer):
            assert fn(2) == 3
        (root,) = tracer.roots
        assert root.name == "wrapped"
        assert root.attrs == {"tag": 3}


# ----------------------------------------------------------------------
# Metrics / streams
# ----------------------------------------------------------------------
class TestMetrics:
    def test_count_gauge_peak(self):
        reg = MetricRegistry()
        reg.count("c")
        reg.count("c", 4)
        reg.gauge("g", 1.5)
        reg.gauge("g", 0.5)
        reg.peak("p", 10)
        reg.peak("p", 3)
        snap = reg.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 0.5  # last write wins
        assert snap["peaks"]["p"] == 10  # raise-only
        assert reg.value("c") == 5
        assert reg.value("missing") == 0

    def test_delta_scopes_counters_to_a_run(self):
        reg = MetricRegistry()
        reg.count("a", 2)
        reg.count("b", 1)
        baseline = reg.snapshot()
        reg.count("a", 3)
        delta = reg.delta(baseline)
        assert delta["counters"] == {"a": 3}  # zero-delta 'b' dropped

    def test_delta_scopes_peaks_and_gauges_to_the_baseline(self):
        reg = MetricRegistry()
        reg.peak("p", 10)
        reg.gauge("g", 1.0)
        outer = reg.snapshot()
        reg.peak("p", 4)
        inner = reg.snapshot()
        reg.peak("p", 3)
        reg.gauge("h", 2.0)
        assert reg.delta(inner) == {
            "counters": {}, "gauges": {"h": 2.0}, "peaks": {"p": 3},
        }
        assert reg.delta(outer)["peaks"] == {"p": 4}  # frames nest
        assert reg.snapshot()["peaks"] == {"p": 10}  # process-wide mark stays


class TestStreams:
    def test_series_appends_and_serialises(self):
        streams = StreamSet()
        streams.series("phi").append(10, 0.5)
        streams.series("phi").append(20, 0.25)
        payload = streams.to_payload()
        assert payload["series"]["phi"] == {"t": [10, 20], "value": [0.5, 0.25]}

    def test_histogram_accumulates_on_frozen_edges(self):
        streams = StreamSet()
        streams.histogram("rounds", np.array([1.0, 2.0, 3.0]), bins=4)
        first = streams.to_payload()["histograms"]["rounds"]
        streams.histogram("rounds", np.array([2.5, 100.0]))  # 100 clips
        second = streams.to_payload()["histograms"]["rounds"]
        assert second["bin_edges"] == first["bin_edges"]
        assert sum(second["counts"]) == 5


# ----------------------------------------------------------------------
# Telemetry assembly + export
# ----------------------------------------------------------------------
def _toy_telemetry() -> dict:
    tracer = Tracer()
    with activate(tracer), tracer.span("run"):
        with tracer.span("engine.shard", shard=0, replicas=4) as handle:
            pass
        tracer.attach(
            handle.span,
            [Span("engine.worker", 0.0, 0.5, attrs={"pid": 4242})],
            handle.span.start,
        )
        tracer.record("engine.phi_max", 10, 0.5)
    return build_telemetry(
        tracer,
        {"counters": {"cache.hits": 1, "cache.misses": 1,
                      "engine.blocks.fused": 7},
         "gauges": {}, "peaks": {"engine.state_peak_bytes": 1024.0}},
    )


class TestExport:
    def test_build_telemetry_block_shape(self):
        telemetry = _toy_telemetry()
        assert telemetry["schema"] == TELEMETRY_SCHEMA
        assert telemetry["dropped_spans"] == 0
        assert telemetry["counters"]["engine.blocks.fused"] == 7
        assert "engine.phi_max" in telemetry["streams"]["series"]
        json.dumps(telemetry)  # must be JSON-serialisable as-is

    def test_chrome_trace_events(self):
        trace = chrome_trace(_toy_telemetry())
        events = trace["traceEvents"]
        assert events[0]["ph"] == "M"  # counters metadata travels along
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {
            "run", "engine.shard", "engine.worker"
        }
        # the merged worker span lands on its own process track
        (worker,) = [e for e in complete if e["name"] == "engine.worker"]
        assert worker["pid"] == 4242
        assert all(e["dur"] >= 0 for e in complete)

    def test_summarize_and_render(self):
        summary = summarize(_toy_telemetry())
        assert summary["span_count"] == 3
        assert summary["depth"] == 3
        assert summary["cache"]["hit_rate"] == pytest.approx(0.5)
        assert summary["kernel"] == {"fused": 7}
        assert summary["shards"]["count"] == 1
        assert summary["shards"]["rows"][0]["workers"] == 1
        text = render_summary(summary)
        assert "wall time" in text
        assert "engine.shard" in text
        assert "kernel blocks  fused=7" in text


# ----------------------------------------------------------------------
# Instrumented engine: invariance, shard spans, worker merge
# ----------------------------------------------------------------------
class TestEngineTracing:
    @pytest.mark.parametrize("kernel", ["numpy", "fused"])
    def test_trajectories_bit_identical_with_tracing(self, kernel):
        def run():
            batch = BatchNodeModel(
                ADJ, INITIAL, 0.5, replicas=3, seed=77, kernel=kernel
            )
            batch.run(300)  # crosses the 256-round block boundary
            return batch.values.copy()

        plain = run()
        tracer = Tracer()
        with activate(tracer):
            traced_values = run()
        np.testing.assert_array_equal(plain, traced_values)

    def test_single_process_shard_spans_and_counters(self):
        baseline = METRICS.snapshot()
        tracer = Tracer()
        with activate(tracer):
            sample_t_eps_batch(
                _spec(), epsilon=1e-2, replicas=8, seed=5,
                max_steps=100_000, shard_size=4,
            )
        counters = METRICS.delta(baseline)["counters"]
        assert tracer.depth() == 2  # sample > shard (no cache, one process)
        shards = tracer.find("engine.shard")
        assert len(shards) == 2
        assert sum(s.attrs["replicas"] for s in shards) == 8
        assert counters["engine.replica_steps"] > 0
        assert counters["engine.blocks.fused"] >= 1
        assert "t_eps_rounds" in tracer.streams.to_payload()["histograms"]

    def test_worker_spans_merge_across_processes(self):
        spec = _spec()
        expected = sample_f_batch(
            spec, replicas=8, seed=11, discrepancy_tol=1e-3,
            shard_size=2, processes=2,
        )
        baseline = METRICS.snapshot()
        tracer = Tracer()
        with activate(tracer):
            out = sample_f_batch(
                spec, replicas=8, seed=11, discrepancy_tol=1e-3,
                shard_size=2, processes=2,
            )
        np.testing.assert_array_equal(out, expected)
        workers = tracer.find("engine.worker")
        assert len(workers) == 4  # one per shard, under its shard span
        assert all("pid" in w.attrs for w in workers)
        shards = tracer.find("engine.shard")
        assert all(
            any(c.name == "engine.worker" for c in s.children) for s in shards
        )
        # worker counters fold back into the parent registry, and the
        # workers' engine timers into the parent tracer
        counters = METRICS.delta(baseline)["counters"]
        assert counters["engine.replica_steps"] > 0
        assert counters["engine.blocks.fused"] >= 4
        assert tracer.timers["engine.time.plan_s"] > 0
        assert tracer.timers["engine.time.execute_s"] > 0

    def test_cache_spans_and_hit_counters(self, tmp_path):
        spec = _spec()
        cache = ResultCache(tmp_path)
        baseline = METRICS.snapshot()
        kwargs = dict(
            epsilon=1e-2, replicas=4, seed=9, max_steps=100_000, cache=cache
        )
        first = sample_t_eps_batch(spec, **kwargs)
        tracer = Tracer()
        with activate(tracer):
            second = sample_t_eps_batch(spec, **kwargs)
        np.testing.assert_array_equal(first, second)
        counters = METRICS.delta(baseline)["counters"]
        assert counters["cache.misses"] == 1
        assert counters["cache.hits"] == 1
        assert counters["cache.bytes_written"] == first.nbytes
        (sample,) = tracer.find("engine.sample_t_eps")
        assert sample.attrs.get("cache") == "hit"
        assert tracer.find("cache.load")


# ----------------------------------------------------------------------
# Visible jit fallback
# ----------------------------------------------------------------------
class TestKernelFallback:
    @pytest.fixture
    def no_compiler(self, monkeypatch, tmp_path):
        """The loop as loaded without a compiler and with an empty cache."""
        loop = kernels_mod.load_blockloop(
            compiler=[str(tmp_path / "no-such-cc")],
            cache_dir=str(tmp_path / "cache"),
        )
        assert loop is None
        monkeypatch.setattr(kernels_mod, "_LOOP", loop)
        monkeypatch.setattr(kernels_mod, "_FALLBACK_WARNED", False)

    def test_explicit_jit_without_compiler_warns_once_and_counts(
        self, no_compiler
    ):
        before = METRICS.value("engine.kernel_fallback")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert kernels_mod.resolve_kernel("jit") == "fused"
            assert kernels_mod.resolve_kernel("jit") == "fused"
        raised = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert len(raised) == 1  # once per process, not per resolve
        assert "compiled block loop" in str(raised[0].message)
        assert METRICS.value("engine.kernel_fallback") == before + 2

    def test_auto_degrades_silently(self, no_compiler):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert kernels_mod.resolve_kernel("auto") == "fused"
        assert not [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]


# ----------------------------------------------------------------------
# API: traced execution, persistence, provenance
# ----------------------------------------------------------------------
class TestApiTelemetry:
    def test_execute_with_trace_attaches_telemetry(self):
        result = execute(
            RunSpec("EXP-F1", overrides={"steps": 5}, seed=3, trace=True)
        )
        telemetry = result.telemetry
        assert telemetry is not None
        assert telemetry["schema"] == TELEMETRY_SCHEMA
        summary = summarize(telemetry)
        assert summary["depth"] >= 3  # run > experiment > engine...
        names = {row["name"] for row in summary["top_spans"]}
        assert {"run", "experiment"} <= names
        assert result.provenance.kernel is not None

    def test_trace_never_changes_results_or_key(self):
        plain = execute(RunSpec("EXP-F1", overrides={"steps": 5}, seed=3))
        traced_run = execute(
            RunSpec("EXP-F1", overrides={"steps": 5}, seed=3, trace=True)
        )
        assert plain.spec.key() == traced_run.spec.key()
        assert plain.telemetry is None
        for old, new in zip(plain.tables, traced_run.tables):
            assert old.to_payload() == new.to_payload()

    def test_peaks_do_not_leak_between_runs(self):
        """A run reports its own state peak, whatever ran before it."""

        def peak(spec):
            return execute(spec).telemetry["peaks"]["engine.state_peak_bytes"]

        t222 = RunSpec(
            "EXP-T222", overrides={"n": 16, "replicas": 8, "tol": 1e-3},
            trace=True,
        )
        solo = peak(t222)
        assert peak(RunSpec("EXP-F1", trace=True)) > solo
        assert peak(t222) == solo

    def test_plan_peak_counts_the_block_plan_arrays(self):
        """Node k = 1 on a regular graph: an (R, 2A) int64 cat_idx plus a
        (2A,) float64 coef, and a scalar pi weight."""
        baseline = METRICS.snapshot()
        batch = BatchNodeModel(
            nx.cycle_graph(12), np.arange(12.0), 0.5, replicas=8, seed=1,
            kernel="fused",
        )
        batch.run(40)
        peaks = METRICS.delta(baseline)["peaks"]
        assert peaks["engine.plan_peak_bytes"] == 40 * 16 * 8 + 16 * 8

    def test_plan_peak_is_reported_only_when_a_plan_grows(self, monkeypatch):
        """The plan path reports a block's plan bytes only when they
        exceed the batch's last report, not once per block."""
        reports = []
        peak = METRICS.peak

        def counted(name, value):
            if name == "engine.plan_peak_bytes":
                reports.append(value)
            peak(name, value)

        monkeypatch.setattr(METRICS, "peak", counted)
        baseline = METRICS.snapshot()
        batch = BatchNodeModel(
            nx.cycle_graph(12), np.arange(12.0), 0.5, replicas=8, seed=1,
            kernel="fused",
        )
        batch.block_rounds = 10
        batch.run(5)
        batch.run(100)  # ten more blocks, each as large as the biggest
        batch.run(7)
        assert reports == [5 * 16 * 8 + 16 * 8, 10 * 16 * 8 + 16 * 8]
        peaks = METRICS.delta(baseline)["peaks"]
        assert peaks["engine.plan_peak_bytes"] == 10 * 16 * 8 + 16 * 8

    @pytest.mark.skipif(
        kernels_mod.resolve_kernel("auto") != "jit",
        reason="no C compiler for the jit loop",
    )
    def test_plan_peak_counts_the_stepper_buffers(self):
        """The jit counterpart: the (R, 2A) int64 decoded-index scratch,
        held once and reused by every block of the batch.  The stepper
        buffers no uniforms: the C loop draws them from the bit stream."""
        baseline = METRICS.snapshot()
        batch = BatchNodeModel(
            nx.cycle_graph(12), np.arange(12.0), 0.5, replicas=8, seed=1,
            kernel="jit",
        )
        batch.run(40)
        buffers = dict(batch._stepper._buffers)
        batch.run(40)
        assert all(batch._stepper._buffers[name] is buffer
                   for name, buffer in buffers.items())
        peaks = METRICS.delta(baseline)["peaks"]
        assert peaks["engine.plan_peak_bytes"] == 40 * 16 * 8
        assert "u" not in buffers

    def test_engine_timers_split_plan_and_execute(self):
        """A traced run times each block's plan and execute on the
        tracer; the counters stay work counts."""
        result = execute(RunSpec(
            "EXP-T222", overrides={"n": 16, "replicas": 8, "tol": 1e-3},
            trace=True,
        ))
        timers = result.telemetry["timers"]
        assert timers["engine.time.plan_s"] > 0
        assert timers["engine.time.execute_s"] > 0
        assert not any(
            name.startswith("engine.time") for name in result.telemetry["counters"]
        )
        summary = summarize(result.telemetry)
        assert summary["engine_time"] == {
            name.removeprefix("engine.time."): value
            for name, value in timers.items()
        }
        assert {"execute_s", "plan_s"} <= set(summary["engine_time"])
        assert "engine time    execute " in render_summary(summary)

    def test_engine_timers_cover_detect_and_resync(self):
        """A hitting-time run also times its detection (fold and rewind)
        and its exact moment resyncs; the summary lists every engine
        timer, and the counters equal an untraced run's."""
        def run(trace):
            baseline = METRICS.snapshot()
            result = execute(RunSpec(
                "EXP-T221", overrides={"sizes": [16], "replicas": 4},
                trace=trace,
            ))
            return result, METRICS.delta(baseline)["counters"]

        plain, plain_counters = run(False)
        traced, traced_counters = run(True)
        assert traced.tables == plain.tables
        assert traced_counters == plain_counters
        timers = traced.telemetry["timers"]
        for name in ("plan_s", "execute_s", "detect_s", "resync_s"):
            assert timers[f"engine.time.{name}"] > 0
        summary = summarize(traced.telemetry)
        assert set(summary["engine_time"]) == {
            "detect_s", "execute_s", "plan_s", "resync_s",
        }
        line = next(
            line for line in render_summary(summary).splitlines()
            if line.startswith("engine time")
        )
        for name in ("plan", "execute", "detect", "resync"):
            assert f"{name} " in line

    @pytest.mark.parametrize("kernel", [
        "fused",
        pytest.param("jit", marks=pytest.mark.skipif(
            kernels_mod.resolve_kernel("auto") != "jit",
            reason="no C compiler for the jit loop",
        )),
    ])
    def test_engine_timers_cover_the_consensus_harvest(self, kernel):
        """A consensus run times every check with the finishing of its
        converged rows (in C under jit, in NumPy under fused); its tables
        and counters equal an untraced run's."""
        def run(trace):
            baseline = METRICS.snapshot()
            result = execute(RunSpec(
                "EXP-T222", overrides={"n": 16, "replicas": 8, "tol": 1e-3},
                kernel=kernel, trace=trace,
            ))
            return result, METRICS.delta(baseline)["counters"]

        plain, plain_counters = run(False)
        traced, traced_counters = run(True)
        assert traced.tables == plain.tables
        assert traced_counters == plain_counters
        assert plain_counters["engine.harvest.rows"] > 0
        assert traced.telemetry["timers"]["engine.time.harvest_s"] > 0
        line = next(
            line for line in render_summary(summarize(traced.telemetry))
            .splitlines() if line.startswith("engine time")
        )
        assert "harvest " in line

    def test_plan_peak_does_not_leak_between_runs(self):
        def peak(spec):
            return execute(spec).telemetry["peaks"]["engine.plan_peak_bytes"]

        f1 = RunSpec("EXP-F1", trace=True)
        solo = peak(f1)
        assert peak(RunSpec(
            "EXP-T222", overrides={"n": 16, "replicas": 8, "tol": 1e-3},
            trace=True,
        )) > solo
        assert peak(f1) == solo

    def test_telemetry_survives_the_artifact_store(self, tmp_path):
        store = ArtifactStore(tmp_path)
        result = execute(
            RunSpec("EXP-F1", overrides={"steps": 5}, seed=3, trace=True)
        )
        store.save(result)
        loaded = store.load(result.spec.key())
        assert loaded.telemetry == result.telemetry


# ----------------------------------------------------------------------
# CLI: repro run --trace / trace summary / trace export / cache
# ----------------------------------------------------------------------
class TestCli:
    def _traced_artifact(self, tmp_path, capsys):
        assert main([
            "run", "EXP-F1", "--set", "steps=5", "--trace",
            "--save", str(tmp_path / "store"),
        ]) == 0
        capsys.readouterr()
        store = ArtifactStore(tmp_path / "store")
        (record,) = store.records()
        return str(tmp_path / "store" / record.file)

    def test_run_trace_json_carries_telemetry(self, capsys):
        assert main([
            "run", "EXP-F1", "--set", "steps=5", "--trace", "--json"
        ]) == 0
        (payload,) = json.loads(capsys.readouterr().out)
        assert payload["telemetry"]["schema"] == TELEMETRY_SCHEMA
        assert payload["telemetry"]["spans"]
        assert payload["provenance"]["kernel"] is not None

    def test_trace_summary_renders(self, tmp_path, capsys):
        artifact = self._traced_artifact(tmp_path, capsys)
        assert main(["trace", "summary", artifact]) == 0
        out = capsys.readouterr().out
        assert "wall time" in out
        assert "experiment" in out

    def test_trace_summary_json(self, tmp_path, capsys):
        artifact = self._traced_artifact(tmp_path, capsys)
        assert main(["trace", "summary", artifact, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["depth"] >= 3

    def test_trace_export_chrome_file(self, tmp_path, capsys):
        artifact = self._traced_artifact(tmp_path, capsys)
        out_path = tmp_path / "trace.json"
        assert main([
            "trace", "export", artifact, "--chrome", str(out_path)
        ]) == 0
        trace = json.loads(out_path.read_text())
        assert trace["traceEvents"]
        assert any(e["ph"] == "X" for e in trace["traceEvents"])

    def test_trace_on_untraced_artifact_fails_cleanly(self, tmp_path, capsys):
        assert main([
            "run", "EXP-F1", "--set", "steps=5",
            "--save", str(tmp_path / "store"),
        ]) == 0
        capsys.readouterr()
        store = ArtifactStore(tmp_path / "store")
        (record,) = store.records()
        artifact = str(tmp_path / "store" / record.file)
        assert main(["trace", "summary", artifact]) == 2
        assert "no telemetry" in capsys.readouterr().err

    def test_cache_stats_and_clear(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        sample_t_eps_batch(
            _spec(), epsilon=1e-2, replicas=4, seed=21,
            max_steps=100_000, cache=cache,
        )
        assert main(["cache", "stats", str(tmp_path), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 1
        assert stats["total_bytes"] > 0
        # --older-than keeps fresh entries ...
        assert main([
            "cache", "clear", str(tmp_path), "--older-than", "3600"
        ]) == 0
        assert "removed 0 entries" in capsys.readouterr().out
        assert len(list(tmp_path.glob("*.npy"))) == 1
        # ... a plain clear removes arrays and their sidecars
        assert main(["cache", "clear", str(tmp_path)]) == 0
        assert "removed 1 entry" in capsys.readouterr().out
        assert list(tmp_path.glob("*.npy")) == []
        assert list(tmp_path.glob("*.json")) == []

    def test_cache_stats_missing_dir(self, tmp_path, capsys):
        assert main([
            "cache", "stats", str(tmp_path / "nope")
        ]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_sweep_prints_slowest_cells(self, capsys):
        assert main(["sweep", "EXP-F1", "--set", "steps=4,6"]) == 0
        out = capsys.readouterr().out
        assert "slowest cells" in out

    def test_sweep_json_carries_timings(self, capsys):
        assert main([
            "sweep", "EXP-F1", "--set", "steps=4,6", "--json"
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        timings = payload["timings"]
        assert len(timings) == 2
        assert timings[0]["wall_time_s"] >= timings[1]["wall_time_s"]
        assert timings[0]["cell"]["steps"] in (4, 6)


# ----------------------------------------------------------------------
# Overhead: the disabled fast path is invisible on the fused hot loop
# ----------------------------------------------------------------------
def test_disabled_tracer_overhead_under_two_percent():
    """The off state must cost < 2% of a fused block.

    The fused path consults the disabled tracer a handful of times per
    256-round block (span open/close at chunk boundaries, hoisted
    ``enabled`` checks); 16 consultations per block is a generous upper
    bound.  Their measured unit cost must vanish against the block
    itself.
    """
    batch = BatchNodeModel(
        ADJ, INITIAL, 0.5, replicas=64, seed=1, kernel="fused"
    )
    batch.run(512)  # warm
    blocks = 20
    started = time.perf_counter()
    batch.run(256 * blocks)
    block_seconds = (time.perf_counter() - started) / blocks

    calls = 20_000
    started = time.perf_counter()
    for _ in range(calls):
        tracer = active_tracer()
        if tracer.enabled:  # the hoisted hot-loop guard
            pass
        with tracer.span("hot"):
            pass
    per_call = (time.perf_counter() - started) / calls

    overhead = 16 * per_call / block_seconds
    assert overhead < 0.02, (
        f"disabled-tracer overhead {overhead:.2%} of a fused block "
        f"(per-call {per_call * 1e9:.0f}ns, block {block_seconds * 1e3:.2f}ms)"
    )


def test_set_active_returns_previous():
    previous = set_active(Tracer.disabled)
    assert previous is Tracer.disabled
