"""Record the benchmark's reference values into ``reference.json``.

Run from the root of a checkout (about four minutes on two cores)::

    python3 perfbench/record_reference.py

It records

* ``teps_mean``: the mean ``T_eps`` of ``teps-4096-b1024`` (and of its
  smoke size) with its standard error, pooled over sampler seeds
  1000-1009, against which every run's mean is z-tested.  The process
  law (graph, initial values, alpha, k, eps) is fixed, so the reference
  stays valid when a change alters the random streams;
* ``counts``: the deterministic work counts of each workload at the
  canonical seed, taken from a traced run: the counts later changes
  may cite as counts.

Re-record only when the process law of a workload changes.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import bench_env, load_json  # noqa: E402

REFERENCE_SEEDS = range(1000, 1010)
CANONICAL_SEED = 2
COUNTS = (
    "engine.replica_steps",
    "engine.rng_blocks",
    "execute.computed_bytes",
    "import.modules",
)


def teps_mean(smoke: bool) -> dict:
    import numpy as np

    from workloads import TEps

    hits = []
    for seed in REFERENCE_SEEDS:
        workload = TEps(seed, smoke)
        workload.build()
        hits.append(workload.run_pass())
    pooled = np.concatenate(hits)
    return {
        "mean": float(pooled.mean()),
        "se": float(pooled.std(ddof=1) / math.sqrt(len(pooled))),
        "samples": int(len(pooled)),
        "seeds": [min(REFERENCE_SEEDS), max(REFERENCE_SEEDS)],
    }


def canonical_counts(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(CANONICAL_SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in COUNTS}


def main() -> int:
    os.environ.update(bench_env())
    sys.path.insert(0, os.environ["PYTHONPATH"])
    path = os.path.join(HERE, "reference.json")
    reference = {
        "teps_mean": {"full": teps_mean(False), "smoke": teps_mean(True)},
        "counts": {"seed": CANONICAL_SEED},
    }
    benchmark = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    for spec in benchmark["workloads"]:
        reference["counts"][spec["name"]] = canonical_counts(spec["name"])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(json.dumps(reference, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
