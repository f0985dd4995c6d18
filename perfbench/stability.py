"""Run the benchmark over several seeds and report each metric's spread.

Run from the root of a checkout::

    python3 perfbench/stability.py --seeds 10 [--first-seed 0] [--workloads a,b]

The runs are interleaved seed by seed (every workload at seed s, then
every workload at seed s+1), so a drift of the machine during the session
spreads over all workloads instead of biasing the one measured last.

For each workload and end-to-end metric it prints the median and the
spread, the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, beside
the metric's bound from BENCHMARK.json; ``ok`` marks a spread below a
third of the bound.  Every run's result goes to
``.perfbench/stability-<first seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import OUT_DIR, load_json  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    benchmark = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in benchmark["workloads"])
    )
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")

    results = {w: [] for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for workload in workloads:
            result = run_once(workload, seed, benchmark["run_seconds"])
            results[workload].append({"seed": seed, **result})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed} failed={result['failed']} {values}", flush=True)

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"stability-{args.first_seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)

    print(f"{'workload':18} {'metric':20} {'median':>12} {'spread':>7} {'bound':>6}")
    for workload in workloads:
        for spec in benchmark["end_to_end"]:
            values = [r["metrics"][spec["name"]]["value"] for r in results[workload]]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            ok = "ok" if spread < spec["bound"] / 3 else "WIDE"
            print(f"{workload:18} {spec['name']:20} {median:12.6g} "
                  f"{spread:7.3f} {spec['bound']:6.2f} {ok}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
