"""The declarative run API: one execution path for every experiment.

It is built from these cooperating pieces (see DESIGN.md section 5):

* :class:`RunSpec` / :class:`RunResult` (:mod:`repro.api.spec`) — typed,
  JSON-round-trippable descriptions of a run and its outcome, the latter
  carrying full :class:`Provenance` (resolved parameters, engine,
  package version, graph content hashes, wall time).
* :func:`experiment` (:mod:`repro.api.registry`) — the registration
  decorator each experiment module uses to declare its id, paper
  artefact, parameter schema and ``fast`` / ``full`` presets as data.
* :func:`execute` (:mod:`repro.api.run`) — resolves a spec against the
  registry and runs it with provenance collection.
* :class:`ArtifactStore` (:mod:`repro.api.store`) — a manifest-indexed
  archive of results, reloadable and regression-diffable by spec.
* :func:`submit` / :class:`JobHandle` (:mod:`repro.jobs`) — the async
  face: file a spec with a ``repro serve`` worker pool and wait on the
  handle instead of blocking in-process (see DESIGN.md section 10).

Quick tour::

    from repro.api import ArtifactStore, RunSpec, execute

    result = execute(RunSpec("EXP-T222", preset="fast", seed=0,
                             overrides={"engine": "loop"}))
    ArtifactStore("results/").save(result)
"""

from repro.api.registry import (
    PRESETS,
    REGISTRY,
    REQUIRED,
    Experiment,
    ParamSpec,
    all_experiments,
    engine_param,
    graph_schedule_param,
    kernel_param,
    experiment,
    experiment_ids,
    get_experiment,
)
from repro.api.run import execute, execute_many, resolve_spec
from repro.api.spec import Provenance, RunResult, RunSpec
from repro.api.store import ArtifactRecord, ArtifactStore, diff_results
from repro.api.sweep import expand_grid, summary_table
from repro.jobs.handle import JobHandle, submit

__all__ = [
    "ArtifactRecord",
    "ArtifactStore",
    "Experiment",
    "JobHandle",
    "PRESETS",
    "ParamSpec",
    "Provenance",
    "REGISTRY",
    "REQUIRED",
    "RunResult",
    "RunSpec",
    "all_experiments",
    "diff_results",
    "engine_param",
    "graph_schedule_param",
    "kernel_param",
    "execute",
    "execute_many",
    "expand_grid",
    "experiment",
    "experiment_ids",
    "get_experiment",
    "resolve_spec",
    "submit",
    "summary_table",
]
