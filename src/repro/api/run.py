"""Execution of :class:`~repro.api.RunSpec`\\ s with recorded provenance.

:func:`execute` is the single path every front end uses — the subcommand
CLI, the legacy shim, the sweep driver, and the CI smoke job all funnel
through it, so a spec archived today replays identically tomorrow.

With ``spec.trace`` the whole run executes under an enabled
:class:`~repro.obs.trace.Tracer`: the instrumented engine stack lights
up (spans, chunk-boundary streams, merged multiprocessing-worker
traces), the run's metric *delta* is taken against a pre-run snapshot of
the process-wide registry, and the frozen block lands on
``RunResult.telemetry`` — persisted by the artifact store, summarised by
``repro trace``.  Tracing never changes what a run computes (the
off-state contract in :mod:`repro.obs.trace` holds in the on-state too:
instrumentation reads, it never draws).
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, List

from repro.api.registry import get_experiment, merge_engine
from repro.api.spec import Provenance, RunResult, RunSpec
from repro.graphs.adjacency import collect_content_hashes


def resolve_spec(spec: RunSpec) -> Dict[str, Any]:
    """Resolved parameter dict for ``spec`` (defaults < preset < overrides).

    ``spec.engine``, ``spec.kernel`` and ``spec.graph_schedule`` are
    folded in per
    :func:`repro.api.registry.merge_engine`: each participates only for
    experiments that declare the corresponding parameter, and explicit
    keys in ``spec.overrides`` win.
    """
    experiment = get_experiment(spec.experiment_id)
    return experiment.resolve(
        spec.preset,
        merge_engine(
            experiment, spec.overrides, spec.engine, spec.kernel,
            spec.graph_schedule,
        ),
    )


def _kernel_provenance(
    parameters: Dict[str, Any],
) -> tuple[str | None, str | None]:
    """``(kernel, reason)`` the engine will actually dispatch.

    Experiments that do not declare a ``kernel`` parameter, and runs on
    the loop engine, report none; for the rest the requested name is
    resolved exactly as the batch models resolve it, so provenance
    records ``"fused"`` when a ``"jit"`` request degraded, with reason
    ``"heuristic"`` for ``kernel="auto"``, ``"explicit"`` for a named
    kernel that ran and ``"fallback"`` for one that did not.
    """
    requested = parameters.get("kernel")
    if requested is None or parameters.get("engine") == "loop":
        return None, None
    from repro.engine.kernels import resolve_kernel

    kernel = resolve_kernel(requested)
    if requested == "auto":
        return kernel, "heuristic"
    return kernel, "explicit" if kernel == requested else "fallback"


def execute(spec: RunSpec) -> RunResult:
    """Run one spec and return its tables with full provenance."""
    import repro

    experiment = get_experiment(spec.experiment_id)
    parameters = resolve_spec(spec)
    telemetry = None
    if spec.trace:
        from repro.obs import METRICS, Tracer, activate, build_telemetry

        baseline = METRICS.snapshot()
        tracer = Tracer()
        with activate(tracer):
            with tracer.span(
                "run", experiment=spec.experiment_id, preset=spec.preset,
                seed=spec.seed,
            ), collect_content_hashes() as hashes:
                started = time.perf_counter()
                with tracer.span("experiment", id=spec.experiment_id):
                    tables = experiment.fn(seed=spec.seed, **parameters)
                wall_time = time.perf_counter() - started
        telemetry = build_telemetry(tracer, METRICS.delta(baseline))
    else:
        with collect_content_hashes() as hashes:
            started = time.perf_counter()
            tables = experiment.fn(seed=spec.seed, **parameters)
            wall_time = time.perf_counter() - started
    kernel, kernel_reason = _kernel_provenance(parameters)
    return RunResult(
        spec=spec,
        tables=list(tables),
        provenance=Provenance(
            parameters=dict(parameters),
            engine=parameters.get("engine"),
            version=repro.__version__,
            graph_hashes=sorted(set(hashes)),
            wall_time_s=wall_time,
            timestamp=time.time(),
            kernel=kernel,
            kernel_reason=kernel_reason,
        ),
        telemetry=telemetry,
    )


def execute_many(
    specs: Iterable[RunSpec], *, memo: bool = True
) -> List[RunResult]:
    """Execute specs in order; fails fast on the first error.

    Identical configurations (equal :meth:`RunSpec.key`, i.e. identical
    resolved parameters and seed) invoke the engine **once**: later
    duplicates reuse the first run's tables and provenance under their
    own spec (output options like ``markdown`` never enter the key, so
    a memo hit is exact).  Hits count as ``api.memo_hits`` in
    :data:`~repro.obs.metrics.METRICS`.  Pass ``memo=False`` to force
    every spec through the engine, e.g. when timing runs.
    """
    results: List[RunResult] = []
    by_key: Dict[str, RunResult] = {}
    for spec in specs:
        key = spec.key() if memo else None
        if key is not None and key in by_key:
            first = by_key[key]
            from repro.obs.metrics import METRICS

            METRICS.count("api.memo_hits")
            results.append(
                RunResult(
                    spec=spec,
                    tables=list(first.tables),
                    provenance=first.provenance,
                    telemetry=first.telemetry,
                )
            )
            continue
        result = execute(spec)
        if key is not None:
            by_key[key] = result
        results.append(result)
    return results
