"""The repository's benchmark: one command, three closed-loop workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload runs in fresh processes started by this script (see
``worker.py``), single-process inside, with the BLAS/OpenMP thread pools
pinned to one thread.

``--trace 0`` measures the end-to-end metrics.  A pass of the workload
starts while at least half of it still fits into ``--seconds`` of pass
time (at least one pass); ``wall_s`` and ``replica_steps_per_s`` are
medians over the passes.  ``setup_s`` is the median time from a fresh
interpreter to ready over several starts, interleaved with the passes.

``--trace 1`` measures the per-layer metrics: one untraced pass, then
one traced pass with the layer wrappers of ``layers.py``, and the
import times from ``python -X importtime``.

Each run prints one ``name value unit`` line per metric and, as its last
line, a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record of the run, with every pass and check, is
written to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKER = os.path.join(HERE, "worker.py")
PREFIX = "@perfbench "

#: Pinned in every process the benchmark starts.  On a 2-core machine a
#: second BLAS thread only spun: same wall time, twice the CPU time.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: Fresh-interpreter starts per run behind ``setup_s``; a single start
#: varies by up to a third.
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 3
#: A run is stopped (and fails) after this long.
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def bench_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARIABLES})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    # The kernel calibration lookup stays inside the checkout (and finds
    # no table, so kernel="auto" resolves the same on every machine).
    env["REPRO_CALIBRATION"] = os.path.join(OUT_DIR, "no-calibration.json")
    return env


class Worker:
    """A ``worker.py`` process driven over its stdin and stdout."""

    def __init__(self, args: list, env: dict, deadline: float) -> None:
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=ROOT,
            text=True,
        )
        self._timer = threading.Timer(
            max(deadline - time.monotonic(), 0.0), self.proc.kill
        )
        self._timer.daemon = True
        self._timer.start()
        try:
            self.ready = self.read()
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - started

    def read(self) -> dict:
        for line in self.proc.stdout:
            if line.startswith(PREFIX):
                return json.loads(line[len(PREFIX):])
            sys.stderr.write(line)
        raise BenchError(f"worker ended with exit code {self.proc.wait()}")

    def call(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self) -> None:
        """End of input lets the worker exit; kill it if it does not."""
        self._timer.cancel()
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Run:
    """One benchmark run of one workload."""

    def __init__(self, args, benchmark: dict) -> None:
        self.args = args
        self.benchmark = benchmark
        self.env = bench_env()
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.worker_args = [args.workload, str(args.seed), "--out", OUT_DIR]
        if args.smoke:
            self.worker_args.append("--smoke")
        self.attempted = 0
        self.failed = 0
        self.checks: list = []
        self.record: dict = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "threads": {name: self.env[name] for name in THREAD_VARIABLES},
        }

    def worker(self, *extra: str) -> Worker:
        return Worker(self.worker_args + list(extra), self.env, self.deadline)

    def setup_sample(self) -> float:
        probe = self.worker("--probe")
        probe.close()
        return probe.setup_s

    def check(self, name: str, attempted: int, failed: int, **info) -> None:
        self.attempted += attempted
        self.failed += failed
        self.checks.append({"check": name, "attempted": attempted, "failed": failed, **info})

    def count_pass(self, label: str, result: dict) -> None:
        self.check(label, result["attempted"], result["failed"], **result["info"])

    def same_counts(self, passes: list) -> None:
        """Work counts at one seed repeat exactly, pass after pass."""
        first = passes[0]["counts"]
        for result in passes[1:]:
            self.check("counts repeat", 1, int(result["counts"] != first),
                       counts=result["counts"], first=first)

    def compare_recorded_counts(self, counts: dict) -> None:
        """Report (not fail) a difference from the counts recorded at the
        canonical seed: a change of the random streams legitimately moves
        them, and later changes cite them as counts."""
        recorded = load_json(os.path.join(HERE, "reference.json")).get("counts", {})
        if self.args.smoke or self.args.seed != recorded.get("seed"):
            return
        expected = recorded.get(self.args.workload, {})
        shared = {key: counts[key] for key in expected if key in counts}
        match = all(shared[key] == expected[key] for key in shared)
        self.record["recorded_counts_match"] = match
        print(f"# work counts at seed {self.args.seed} "
              f"{'match' if match else 'DIFFER FROM'} the recorded ones: {shared}")

    # ------------------------------------------------------------------
    def end_to_end(self) -> dict:
        samples = 2 if self.args.smoke else SETUP_SAMPLES
        if not self.args.smoke:
            self.setup_sample()  # warms the page cache; not a sample
        worker = self.worker()
        try:
            setup = [worker.setup_s]
            passes = []
            while True:
                if len(setup) < samples:
                    setup.append(self.setup_sample())
                passes.append(worker.call("pass"))
                walls = [p["wall_s"] for p in passes]
                if sum(walls) + 0.5 * statistics.mean(walls) > self.args.seconds:
                    break
            while len(setup) < samples:
                setup.append(self.setup_sample())
            final = worker.call("exit")
        finally:
            worker.close()
        for index, result in enumerate(passes):
            self.count_pass(f"pass {index}", result)
        self.same_counts(passes)
        self.compare_recorded_counts(passes[0]["counts"])
        self.record.update(setup_samples=setup, ready=worker.ready, passes=passes, final=final)
        return {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": final["peak_rss_mb"],
            "replica_steps_per_s": statistics.median(
                p["counts"]["engine.replica_steps"] / p["wall_s"] for p in passes
            ),
        }

    def per_layer(self) -> dict:
        worker = self.worker()
        try:
            baseline = worker.call("rebuild")
            traced = worker.call("trace")
            final = worker.call("exit")
        finally:
            worker.close()
        self.count_pass("untraced pass", baseline)
        self.count_pass("traced pass", traced)
        # Tracing reads, it never draws: the traced pass does the same work.
        self.same_counts([baseline, traced])
        layers = traced["layers"]
        self.check("self times within the traced wall time", 1,
                   int(layers["trace.unattributed_s"] < -1e-6))
        metrics = dict(layers)
        metrics.update(import_metrics(self.env, 1 if self.args.smoke else IMPORT_SAMPLES))
        metrics.update(baseline["counts"])
        metrics["api.registry_load_s"] = worker.ready["registry_load_s"]
        metrics["engine.state_peak_bytes"] = final["state_peak_bytes"]
        metrics["trace.wall_s"] = traced["wall_s"]
        metrics["trace.overhead_s"] = traced["wall_s"] - baseline["wall_s"]
        for spec in self.benchmark["per_layer"]:
            name = spec["name"]
            if name.startswith("exp.") and name.endswith(".wall_s"):
                metrics[name] = baseline["exp_wall_s"].get(name[4:-7], 0.0)
        self.compare_recorded_counts(metrics)
        self.record.update(
            ready=worker.ready, baseline=baseline, traced=traced, final=final,
            layer_map=load_json(os.path.join(HERE, "layer_map.json")),
        )
        return metrics

    def execute(self) -> dict:
        if self.args.trace:
            values, specs = self.per_layer(), self.benchmark["per_layer"]
        else:
            values, specs = self.end_to_end(), self.benchmark["end_to_end"]
        metrics = {}
        for spec in specs:
            if spec["name"] not in values:
                raise BenchError(f"metric {spec['name']} was not measured")
            metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
        return metrics


def import_metrics(env: dict, samples: int) -> dict:
    """Cumulative import times from ``-X importtime``, medians of fresh starts."""
    runs = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise BenchError(f"import repro.cli failed:\n{proc.stderr[-2000:]}")
        runs.append(parse_importtime(proc.stderr))
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}


def parse_importtime(text: str) -> dict:
    cumulative = {}
    modules = 0
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, total_us, name = line[len("import time:"):].split("|")
        cumulative[name.strip()] = int(total_us) / 1e6
        modules += 1
    return {
        "import.repro_cli_s": cumulative.get("repro.cli", 0.0),
        "import.numpy_s": cumulative.get("numpy", 0.0),
        "import.networkx_s": cumulative.get("networkx", 0.0),
        "import.modules": modules,
    }


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="seconds-scale sizes of every workload (the smoke test)",
    )
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: src/repro is missing; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    benchmark = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if args.workload not in [w["name"] for w in benchmark["workloads"]]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    run = Run(args, benchmark)
    try:
        metrics = run.execute()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for check in run.checks:
        if check["failed"]:
            print(f"# FAILED {check}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    run.record.update(checks=run.checks, result=result)
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(run.record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
