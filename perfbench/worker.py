"""One benchmark process: set a workload up, then serve its passes.

``run.py`` starts this script in a fresh interpreter for every run and
for every set-up time sample::

    python3 perfbench/worker.py WORKLOAD SEED --out DIR [--smoke] [--probe]

After set-up (imports, inputs, one warm-up block) it sends ``ready``.
With ``--probe`` it exits there.  Otherwise it reads one command a line
on stdin and answers each with one message:

``pass``
    one untraced pass of the workload;
``rebuild``
    re-build the inputs, then one untraced pass: the baseline of
    ``trace``;
``trace``
    the same under a :class:`repro.obs.Tracer`, with the layer wrappers
    of :mod:`layers` installed; writes the Chrome trace into ``--out``;
``exit``
    peak memory figures, then exit.

Messages are JSON on stdout lines that start with ``@perfbench``; any
other output passes through to the caller's stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

from workloads import engine_counts, make_workload

PREFIX = "@perfbench "


def emit(message: dict) -> None:
    sys.stdout.write(PREFIX + json.dumps(message) + "\n")
    sys.stdout.flush()


def measure(workload, rebuild: bool):
    """Time one pass (after re-building the inputs, if asked)."""
    before = engine_counts()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    if rebuild:
        workload.build()
    out = workload.run_pass()
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    after = engine_counts()
    record = {
        "wall_s": wall,
        "cpu_s": cpu,
        "counts": {key: after[key] - before[key] for key in after},
        "exp_wall_s": dict(getattr(workload, "exp_wall_s", {})),
    }
    return out, record


def checked(workload, out, record: dict) -> dict:
    attempted, failed, info = workload.check(out)
    record.update(attempted=attempted, failed=failed, info=info)
    return record


def traced(workload, out_dir: str) -> dict:
    from layers import LayerClock
    from repro.obs import METRICS, Tracer, activate, build_telemetry, chrome_trace

    clock = LayerClock()
    tracer = Tracer(max_spans=200_000)
    baseline = METRICS.snapshot()
    clock.install()
    try:
        with activate(tracer):
            out, record = measure(workload, rebuild=True)
    finally:
        clock.restore()
    record = checked(workload, out, record)
    record["layers"] = clock.metrics(record["wall_s"])
    record["layers"]["driver.shards"] = len(tracer.find("engine.shard"))
    record["missing_targets"] = clock.missing
    record["dropped_spans"] = tracer.dropped
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload.name}-seed{workload.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(build_telemetry(tracer, METRICS.delta(baseline))), fh)
    record["trace_file"] = path
    return record


def final() -> dict:
    from repro.obs import METRICS

    peaks = METRICS.snapshot()["peaks"]
    return {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "state_peak_bytes": peaks.get("engine.state_peak_bytes", 0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import repro.cli  # noqa: F401  -- the start-up a user of the CLI pays

    imported = time.perf_counter()
    workload = make_workload(args.workload, args.seed, args.smoke)
    workload.build()
    built = time.perf_counter()
    workload.warm_up()
    emit({
        "event": "ready",
        "import_s": imported - t0,
        "build_s": built - imported,
        "warm_up_s": time.perf_counter() - built,
        "registry_load_s": getattr(workload, "registry_load_s", 0.0),
    })
    if args.probe:
        return 0
    for line in sys.stdin:
        command = line.strip()
        if command == "pass":
            emit(checked(workload, *measure(workload, rebuild=False)))
        elif command == "rebuild":
            emit(checked(workload, *measure(workload, rebuild=True)))
        elif command == "trace":
            emit(traced(workload, args.out))
        elif command == "exit":
            emit(final())
            return 0
        else:
            raise SystemExit(f"worker: unknown command {command!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
