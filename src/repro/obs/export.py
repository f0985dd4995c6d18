"""Telemetry assembly and export: JSON summary + Chrome trace format.

:func:`build_telemetry` freezes one run's observability into a plain
JSON-serialisable dict — the ``telemetry`` block attached to
:class:`~repro.api.spec.RunResult` and persisted by the
:class:`~repro.api.store.ArtifactStore`:

```
{
  "schema": 1,
  "spans": [...span tree...],      "dropped_spans": 0,
  "counters": {...run-scoped...},  "gauges": {...}, "peaks": {...},
  "streams": {"series": {...}, "histograms": {...}},
  "timers": {"engine.time.plan_s": ..., "engine.time.execute_s": ...,
             "engine.time.detect_s": ..., "engine.time.resync_s": ...,
             "engine.time.harvest_s": ...}
}
```

The timers are seconds on the run's tracer: block plan (RNG draw and
decode) and execute, ``run_until_phi``'s detection, exact moment
resyncs, and ``run_to_consensus_batch``'s checks with the finishing of
their converged rows (harvest).

:func:`chrome_trace` converts that block into the Chrome
``chrome://tracing`` / Perfetto event format (``"X"`` complete events,
microsecond timestamps, worker spans on their own ``pid`` track), and
:func:`summarize` aggregates it for the ``repro trace summary``
subcommand: top spans by self time, cache statistics, and the
shard-balance table.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from repro.obs.trace import Span, Tracer

#: Version of the telemetry block layout.
TELEMETRY_SCHEMA = 1


def build_telemetry(
    tracer: Tracer,
    counters: Optional[Mapping[str, Any]] = None,
) -> dict:
    """Freeze ``tracer``'s spans/streams plus run-scoped metrics.

    ``counters`` is the :meth:`~repro.obs.metrics.MetricRegistry.delta`
    dict of the run (falls back to the live registry's snapshot when the
    caller did not scope one).
    """
    if counters is None:
        from repro.obs.metrics import METRICS

        counters = METRICS.snapshot()
    return {
        "schema": TELEMETRY_SCHEMA,
        "spans": tracer.to_payload(),
        "dropped_spans": tracer.dropped,
        "counters": dict(counters.get("counters", {})),
        "gauges": dict(counters.get("gauges", {})),
        "peaks": dict(counters.get("peaks", {})),
        "streams": tracer.streams.to_payload(),
        "timers": dict(tracer.timers),
    }


def _spans(telemetry: Mapping[str, Any]) -> List[Span]:
    return [Span.from_payload(p) for p in telemetry.get("spans", [])]


# ----------------------------------------------------------------------
# Chrome trace event format
# ----------------------------------------------------------------------
def chrome_trace(telemetry: Mapping[str, Any]) -> dict:
    """The telemetry block as a Chrome trace-event JSON object.

    Spans become ``"X"`` (complete) events with microsecond ``ts`` /
    ``dur``; a span whose attrs carry a ``pid`` (merged worker spans)
    lands on that process track.  Counters are attached as one metadata
    event so the numbers travel with the trace file.
    """
    events: List[dict] = [
        {
            "name": "counters",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {
                "counters": dict(telemetry.get("counters", {})),
                "peaks": dict(telemetry.get("peaks", {})),
            },
        }
    ]
    for root in _spans(telemetry):
        _emit(root, events, pid=0)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _emit(span: Span, events: List[dict], pid: int) -> None:
    pid = int(span.attrs.get("pid", pid))
    event = {
        "name": span.name,
        "ph": "X",
        "ts": span.start * 1e6,
        "dur": span.duration * 1e6,
        "pid": pid,
        "tid": 0,
    }
    args = {k: v for k, v in span.attrs.items() if k != "pid"}
    if args:
        event["args"] = args
    events.append(event)
    for child in span.children:
        _emit(child, events, pid)


# ----------------------------------------------------------------------
# Summary (the `repro trace summary` payload)
# ----------------------------------------------------------------------
def summarize(telemetry: Mapping[str, Any], top: int = 12) -> dict:
    """Aggregate a telemetry block for human consumption.

    Returns ``{"wall_s", "span_count", "depth", "top_spans", "cache",
    "kernel", "engine_time", "shards"}`` where ``top_spans`` aggregates
    by span name (calls, total, self time) sorted by self time, ``cache``
    reports the hit/miss/byte counters, ``kernel`` the dispatch counters,
    ``engine_time`` the engine's plan/execute/detect/resync/harvest split
    (timers ``engine.time.*``), and ``shards`` the balance statistics over
    ``engine.shard`` spans.
    """
    roots = _spans(telemetry)
    by_name: Dict[str, dict] = {}
    shard_rows: List[dict] = []
    span_count = 0
    for root in roots:
        for span, _ in root.walk():
            span_count += 1
            entry = by_name.setdefault(
                span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["calls"] += 1
            entry["total_s"] += span.duration
            entry["self_s"] += span.self_time
            if span.name == "engine.shard":
                shard_rows.append(
                    {
                        "shard": span.attrs.get("shard"),
                        "replicas": span.attrs.get("replicas"),
                        "seconds": span.duration,
                        "workers": sum(
                            1
                            for child in span.children
                            if "pid" in child.attrs
                        ),
                    }
                )
    counters = telemetry.get("counters", {})
    hits = counters.get("cache.hits", 0)
    misses = counters.get("cache.misses", 0)
    lookups = hits + misses
    shards: Optional[dict] = None
    if shard_rows:
        seconds = [row["seconds"] for row in shard_rows]
        shards = {
            "count": len(shard_rows),
            "min_s": min(seconds),
            "max_s": max(seconds),
            "mean_s": sum(seconds) / len(seconds),
            "imbalance": max(seconds) / max(min(seconds), 1e-12),
            "rows": shard_rows,
        }
    return {
        "wall_s": sum(root.duration for root in roots),
        "span_count": span_count,
        "dropped_spans": telemetry.get("dropped_spans", 0),
        "depth": max((root.depth() for root in roots), default=0),
        "top_spans": [
            {"name": name, **entry}
            for name, entry in sorted(
                by_name.items(), key=lambda item: -item[1]["self_s"]
            )[:top]
        ],
        "cache": {
            "hits": hits,
            "misses": misses,
            "hit_rate": (hits / lookups) if lookups else None,
            "bytes_read": counters.get("cache.bytes_read", 0),
            "bytes_written": counters.get("cache.bytes_written", 0),
        },
        "kernel": {
            name.removeprefix("engine.blocks."): value
            for name, value in sorted(counters.items())
            if name.startswith("engine.blocks.")
        },
        "engine_time": {
            name.removeprefix("engine.time."): value
            for name, value in sorted(telemetry.get("timers", {}).items())
            if name.startswith("engine.time.")
        },
        "counters": dict(counters),
        "peaks": dict(telemetry.get("peaks", {})),
        "shards": shards,
    }


def render_summary(summary: Mapping[str, Any]) -> str:
    """Plain-text rendering of :func:`summarize` (the CLI transcript)."""
    lines = [
        f"wall time      {summary['wall_s']:.3f}s over "
        f"{summary['span_count']} spans (depth {summary['depth']}"
        + (
            f", {summary['dropped_spans']} dropped)"
            if summary.get("dropped_spans")
            else ")"
        ),
        "",
        f"{'span':<34} {'calls':>6} {'total':>10} {'self':>10}",
    ]
    for row in summary["top_spans"]:
        lines.append(
            f"{row['name']:<34} {row['calls']:>6} "
            f"{row['total_s'] * 1e3:>8.1f}ms {row['self_s'] * 1e3:>8.1f}ms"
        )
    cache = summary["cache"]
    rate = (
        f"{cache['hit_rate'] * 100:.0f}%" if cache["hit_rate"] is not None
        else "n/a"
    )
    lines += [
        "",
        f"cache          {cache['hits']} hits / {cache['misses']} misses "
        f"(rate {rate}), {cache['bytes_read']}B read / "
        f"{cache['bytes_written']}B written",
    ]
    if summary["kernel"]:
        dispatches = ", ".join(
            f"{name}={int(value)}" for name, value in summary["kernel"].items()
        )
        lines.append(f"kernel blocks  {dispatches}")
    if summary.get("engine_time"):
        split = ", ".join(
            f"{name.removesuffix('_s')} {value * 1e3:.1f}ms"
            for name, value in summary["engine_time"].items()
        )
        lines.append(f"engine time    {split}")
    for name, value in summary.get("peaks", {}).items():
        lines.append(f"peak           {name} = {value:.0f}")
    shards = summary.get("shards")
    if shards:
        lines += [
            "",
            f"shards         {shards['count']} shards, "
            f"{shards['min_s'] * 1e3:.1f}-{shards['max_s'] * 1e3:.1f}ms "
            f"(mean {shards['mean_s'] * 1e3:.1f}ms, "
            f"imbalance {shards['imbalance']:.2f}x)",
            f"{'shard':>6} {'replicas':>9} {'seconds':>10} {'workers':>8}",
        ]
        for row in shards["rows"]:
            lines.append(
                f"{str(row['shard']):>6} {str(row['replicas']):>9} "
                f"{row['seconds']:>10.4f} {row['workers']:>8}"
            )
    return "\n".join(lines)
