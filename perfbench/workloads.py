"""The benchmark's three closed-loop workloads.

Each workload is one object with three phases:

* :meth:`build` makes the program's inputs from fixed seeds (graph,
  adjacency, initial values, engine spec; or the experiment registry);
* :meth:`warm_up` runs one engine block so that lazy set-up is done
  before any timing;
* :meth:`run_pass` performs the workload's work once, calling into the
  program one call at a time (a closed loop: each call starts when the
  previous one returned), single-process and without a result cache.

:meth:`check` compares a pass's outputs with a reference and returns the
number of output checks attempted and failed.  Checks run outside the
timed region.

Seeds: the graph (seed 0) and the initial values (seed 1) are fixed, so
the process law never changes and the recorded reference mean of
``T_eps`` stays valid; the benchmark's ``--seed`` is the sampler seed of
the engine workloads and the ``RunSpec`` seed of the suite.
"""

from __future__ import annotations

import json
import math
import os
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

GRAPH_SEED = 0
VALUES_SEED = 1
WARM_UP_SEED = 12345

#: Two-sided z threshold of every statistical check: a false-alarm rate
#: of 6.3e-5 per check (normal approximation).
Z_LIMIT = 4.0

#: Experiments of the seconds-scale suite used by the smoke test.
SMOKE_SUITE = ("EXP-T222", "EXP-DYNM")


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def engine_counts() -> dict:
    """The process-wide engine work counters (deltas give a pass's work)."""
    from repro.obs.metrics import METRICS

    return {
        "engine.replica_steps": METRICS.value("engine.replica_steps"),
        "engine.rng_blocks": METRICS.value("engine.rng_blocks"),
    }


def _regular_spec(n: int):
    """Random 4-regular graph (seed 0), centred N(0, 1) values (seed 1)."""
    from repro.engine import EngineSpec
    from repro.graphs.adjacency import Adjacency
    from repro.graphs.generators import random_regular_graph

    adjacency = Adjacency.from_graph(random_regular_graph(n, 4, seed=GRAPH_SEED))
    values = np.random.default_rng(VALUES_SEED).standard_normal(n)
    return EngineSpec(
        kind="node",
        adjacency=adjacency,
        initial_values=values - values.mean(),
        alpha=0.5,
        k=1,
        kernel="fused",
    )


class SuiteFast:
    """Every registered experiment at its ``fast`` preset, in registry order."""

    name = "suite-fast"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        self.ids: list[str] = []
        self.registry_load_s = 0.0
        self.exp_wall_s: dict[str, float] = {}

    def build(self) -> None:
        from repro.api import experiment_ids

        t0 = time.perf_counter()
        ids = experiment_ids()
        self.registry_load_s = time.perf_counter() - t0
        self.ids = [i for i in ids if i in SMOKE_SUITE] if self.smoke else ids

    def warm_up(self) -> None:
        from repro.engine import BatchNodeModel
        from repro.graphs.generators import cycle_graph

        batch = BatchNodeModel(
            cycle_graph(16), np.arange(16.0), 0.5, replicas=8,
            seed=WARM_UP_SEED, kernel="fused",
        )
        batch.run(batch.block_rounds)

    def run_pass(self):
        from repro.api import RunSpec, execute
        from repro.obs import active_tracer

        results = {}
        for experiment_id in self.ids:
            t0 = time.perf_counter()
            try:
                with active_tracer().span("perfbench.experiment", id=experiment_id):
                    results[experiment_id] = execute(
                        RunSpec(experiment_id, preset="fast", seed=self.seed)
                    ).tables
            except Exception as exc:  # a failed operation, not a crash
                results[experiment_id] = exc
            self.exp_wall_s[experiment_id] = time.perf_counter() - t0
        return results

    def check(self, results) -> tuple[int, int, dict]:
        """An experiment fails when it raised or put a NaN in any table."""
        failed = {}
        for experiment_id, tables in results.items():
            if isinstance(tables, Exception):
                failed[experiment_id] = f"raised {type(tables).__name__}: {tables}"
            elif _has_nan(tables):
                failed[experiment_id] = "NaN in a table"
        return len(results), len(failed), {"failed_experiments": failed}


def _has_nan(tables) -> bool:
    return any(
        isinstance(cell, (float, np.floating)) and math.isnan(cell)
        for table in tables
        for row in table.rows
        for cell in row
    )


class TEps:
    """``sample_t_eps_batch``: n=4096, eps=1e-3, B=1024 in shards of 256."""

    name = "teps-4096-b1024"
    epsilon = 1e-3

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        self.n, self.replicas, self.shard = (
            (256, 64, 32) if smoke else (4096, 1024, 256)
        )
        self.spec = None

    def build(self) -> None:
        self.spec = _regular_spec(self.n)

    def warm_up(self) -> None:
        batch = self.spec.build(self.shard, seed=WARM_UP_SEED)
        batch.run(batch.block_rounds)

    def run_pass(self):
        from repro.engine import sample_t_eps_batch

        return sample_t_eps_batch(
            self.spec, self.epsilon, self.replicas, seed=self.seed,
            shard_size=self.shard, processes=1,
        )

    def check(self, hits) -> tuple[int, int, dict]:
        """Every replica hits; the mean lies within Z_LIMIT SE of the reference.

        The reference mean is pooled over sampler seeds 1000-1009 (see
        ``record_reference.py``); the check is one operation, and each
        replica that did not hit is one failed operation.
        """
        missed = int(np.sum(~(hits > 0)))
        mean = float(hits.mean())
        se = float(hits.std(ddof=1) / math.sqrt(len(hits)))
        info = {"mean_t_eps": mean, "se_t_eps": se, "missed": missed}
        failed = missed
        ref = load_reference().get("teps_mean", {}).get(
            "smoke" if self.smoke else "full"
        )
        if ref is not None:
            z = (mean - ref["mean"]) / math.hypot(se, ref["se"])
            info.update(reference_mean=ref["mean"], z=z)
            failed += int(abs(z) > Z_LIMIT)
        return len(hits) + 1, failed, info


class VarF:
    """``sample_f_batch``: n=512, B=2048 in 1024-row shards, tol 1e-8."""

    name = "varf-512-b2048"
    tolerance = 1e-8

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        self.n, self.replicas, self.shard = (
            (64, 512, 256) if smoke else (512, 2048, None)
        )
        self.spec = None

    def build(self) -> None:
        self.spec = _regular_spec(self.n)

    def warm_up(self) -> None:
        batch = self.spec.build(self.shard or 1024, seed=WARM_UP_SEED)
        batch.run(batch.block_rounds)

    def run_pass(self):
        from repro.engine import sample_f_batch

        return sample_f_batch(
            self.spec, self.replicas, seed=self.seed,
            discrepancy_tol=self.tolerance, shard_size=self.shard, processes=1,
        )

    def check(self, values) -> tuple[int, int, dict]:
        """Finite samples; z-tests of the mean against the pi-weighted start
        and of the variance against Lemma 5.5's quadratic form."""
        from repro.theory.exact import exact_limit_variance

        spec = self.spec
        exact_mean = float(spec.adjacency.stationary_pi() @ spec.initial_values)
        exact_var = exact_limit_variance(
            spec.adjacency, spec.initial_values, spec.alpha, spec.k
        )
        finite = np.isfinite(values)
        sample = values[finite]
        count = len(sample)
        mean = float(sample.mean())
        var = float(sample.var(ddof=1))
        m4 = float(np.mean((sample - mean) ** 4))
        z_mean = (mean - exact_mean) / math.sqrt(var / count)
        z_var = (var - exact_var) / math.sqrt((m4 - var * var) / count)
        failed = int(np.sum(~finite))
        failed += int(abs(z_mean) > Z_LIMIT) + int(abs(z_var) > Z_LIMIT)
        info = {
            "var_f": var, "exact_var_f": exact_var, "z_var": z_var,
            "mean_f": mean, "exact_mean_f": exact_mean, "z_mean": z_mean,
        }
        return len(values) + 2, failed, info


def make_workload(name: str, seed: int, smoke: bool = False):
    classes = {cls.name: cls for cls in (SuiteFast, TEps, VarF)}
    return classes[name](seed, smoke)
