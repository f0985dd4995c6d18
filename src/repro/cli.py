"""Command-line front end of the declarative run API.

Subcommand interface (the only execution path is
:func:`repro.api.execute`, so CLI runs and archived specs replay
identically)::

    python -m repro.cli run EXP-T222 --set engine=loop --json
    python -m repro.cli run --full --save results/
    python -m repro.cli list --json
    python -m repro.cli sweep EXP-T222 --set n=24,36 --save results/
    python -m repro.cli diff results/EXP-T222.fast.s0.json results/other.json
    python -m repro.cli run EXP-F1 --trace --save results/
    python -m repro.cli trace summary results/EXP-F1.fast.s0.json
    python -m repro.cli trace export results/EXP-F1.fast.s0.json --chrome t.json
    python -m repro.cli cache stats .cache/

Job service (async execution over the same specs, DESIGN.md section 10)::

    python -m repro.cli submit EXP-F1 --root jobs/
    python -m repro.cli serve --root jobs/ --workers 2 --until-idle
    python -m repro.cli status JOB --root jobs/
    python -m repro.cli fetch JOB --root jobs/ --wait --timeout 60
    python -m repro.cli jobs list --root jobs/ --json
    python -m repro.cli jobs cancel JOB --root jobs/
    python -m repro.cli jobs stop --root jobs/

``run`` accepts ``--set key=value`` overrides against each experiment's
declared parameter schema, ``--json`` to emit archived-format payloads,
and ``--save DIR`` to file results in an :class:`~repro.api.ArtifactStore`.
Dynamic-graph experiments additionally take ``--schedule
cyclic|random|rewire``, ``--switch-every N`` and ``--snapshots N``
(each applied, like ``--engine``, only where the experiment declares
the parameter).  The dual-side experiments (EXP-F1, EXP-F4, EXP-L57,
EXP-COAL) honour ``--engine batch|loop`` too — their duality checks,
two-walk occupancy estimates and coalescence-time samples run through
:mod:`repro.engine.dual` by default — and EXP-COAL additionally takes
``--engine exact``, replacing Monte-Carlo with the absorbing-chain
expectations of :mod:`repro.theory.absorbing` where feasible.  The
duality harness of EXP-F1/EXP-F4 honours ``--kernel`` for its primal
forward runs.
``diff`` exits 0 when the runs match within tolerance, 1 otherwise.

``--kernel`` selects the batch engine's stepping kernel (``auto`` |
``numpy`` | ``fused`` | ``jit``; see :mod:`repro.engine.kernels`).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence

from repro.api import (
    REQUIRED,
    ArtifactStore,
    RunResult,
    RunSpec,
    all_experiments,
    diff_results,
    execute,
    expand_grid,
    experiment_ids,
    get_experiment,
    resolve_spec,
    summary_table,
)
from repro.engine.dynamic import SCHEDULE_KINDS
from repro.engine.kernels import KERNEL_CHOICES
from repro.exceptions import ArtifactError, ReproError
from repro.jobs.handle import DEFAULT_ROOT as JOBS_DEFAULT_ROOT


# ----------------------------------------------------------------------
# Parsers
# ----------------------------------------------------------------------
def build_cli_parser() -> argparse.ArgumentParser:
    """The subcommand parser: repro run | list | sweep | diff."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce experiments from 'Distributed Averaging in Opinion "
            "Dynamics' (PODC 2023) via declarative run specs"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute experiments and print/archive tables")
    run.add_argument("ids", nargs="*", metavar="EXPERIMENT",
                     help="experiment ids; default: all")
    run.add_argument("--preset", choices=("fast", "full"), default="fast",
                     help="scale preset (default: fast)")
    run.add_argument("--full", action="store_true",
                     help="shorthand for --preset full")
    run.add_argument("--seed", type=int, default=0, help="experiment seed")
    run.add_argument("--engine", choices=("batch", "loop", "exact"),
                     default=None,
                     help="replica simulator for Monte-Carlo experiments "
                          "('exact' where the experiment supports the "
                          "absorbing-chain solver)")
    run.add_argument("--kernel", choices=KERNEL_CHOICES, default=None,
                     help="stepping kernel of the batch engine")
    run.add_argument("--schedule", dest="graph_schedule",
                     choices=SCHEDULE_KINDS, default=None,
                     help="snapshot stream of dynamic-graph experiments")
    run.add_argument("--switch-every", dest="switch_every", type=int,
                     default=None,
                     help="rounds per topology segment (dynamic experiments)")
    run.add_argument("--snapshots", dest="snapshots", type=int, default=None,
                     help="snapshot pool size (dynamic experiments)")
    run.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE",
                     help="override a declared parameter (repeatable)")
    run.add_argument("--markdown", action="store_true",
                     help="render tables as markdown")
    run.add_argument("--trace", action="store_true",
                     help=(
                         "run under the observability tracer and attach a "
                         "telemetry block to each result (see repro trace)"
                     ))
    run.add_argument("--json", action="store_true",
                     help="emit RunResult JSON payloads instead of tables")
    run.add_argument("--save", metavar="DIR", default=None,
                     help="archive results in an ArtifactStore at DIR")

    lst = sub.add_parser("list", help="list registered experiments")
    lst.add_argument("--json", action="store_true",
                     help="emit the registry (ids, schemas, presets) as JSON")

    swp = sub.add_parser("sweep", help="run one experiment over a parameter grid")
    swp.add_argument("id", metavar="EXPERIMENT", help="experiment id")
    swp.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=V1[,V2,...]",
                     help=(
                         "axis (comma-separated values) or fixed override; "
                         "for list-typed parameters commas build one value "
                         "and ';' separates axis values"
                     ))
    swp.add_argument("--preset", choices=("fast", "full"), default="fast")
    swp.add_argument("--seed", type=int, default=0)
    swp.add_argument("--engine", choices=("batch", "loop", "exact"),
                     default=None)
    swp.add_argument("--kernel", choices=KERNEL_CHOICES, default=None)
    swp.add_argument("--schedule", dest="graph_schedule",
                     choices=SCHEDULE_KINDS, default=None)
    swp.add_argument("--switch-every", dest="switch_every", type=int,
                     default=None)
    swp.add_argument("--snapshots", dest="snapshots", type=int, default=None)
    swp.add_argument("--markdown", action="store_true")
    swp.add_argument("--json", action="store_true",
                     help="emit results + summary as JSON")
    swp.add_argument("--save", metavar="DIR", default=None,
                     help="archive every point in an ArtifactStore at DIR")

    dif = sub.add_parser(
        "diff", help="regression-diff two archived runs (exit 1 on drift)"
    )
    dif.add_argument("left", help="artefact file, store key, or experiment id")
    dif.add_argument("right", help="artefact file, store key, or experiment id")
    dif.add_argument("--store", metavar="DIR", default=None,
                     help="ArtifactStore to resolve keys/ids against")
    dif.add_argument("--rel-tol", type=float, default=0.25,
                     help="relative tolerance for numeric cells (default 0.25)")
    dif.add_argument("--json", action="store_true",
                     help="emit the differences as JSON")

    trc = sub.add_parser(
        "trace", help="inspect/export the telemetry of a traced run"
    )
    trc_sub = trc.add_subparsers(dest="action", required=True)
    tsm = trc_sub.add_parser(
        "summary",
        help="top spans by self time, cache stats, shard balance",
    )
    tsm.add_argument("artifact",
                     help="artefact file, store key, or experiment id")
    tsm.add_argument("--store", metavar="DIR", default=None,
                     help="ArtifactStore to resolve keys/ids against")
    tsm.add_argument("--top", type=int, default=12,
                     help="span rows to show (default 12)")
    tsm.add_argument("--json", action="store_true",
                     help="emit the summary as JSON")
    tex = trc_sub.add_parser(
        "export", help="export the span tree (Chrome trace event format)"
    )
    tex.add_argument("artifact",
                     help="artefact file, store key, or experiment id")
    tex.add_argument("--store", metavar="DIR", default=None,
                     help="ArtifactStore to resolve keys/ids against")
    tex.add_argument("--chrome", metavar="OUT", default=None,
                     help="write chrome://tracing JSON to OUT (else stdout)")

    cch = sub.add_parser(
        "cache", help="inspect/evict the engine's on-disk result cache"
    )
    cch_sub = cch.add_subparsers(dest="action", required=True)
    cst = cch_sub.add_parser(
        "stats", help="entries, total bytes, hit/miss since process start"
    )
    cst.add_argument("dir", metavar="DIR", help="cache directory")
    cst.add_argument("--json", action="store_true",
                     help="emit the statistics as JSON")
    ccl = cch_sub.add_parser("clear", help="delete cache entries")
    ccl.add_argument("dir", metavar="DIR", help="cache directory")
    ccl.add_argument("--older-than", dest="older_than", type=float,
                     default=None, metavar="SECONDS",
                     help="evict only entries older than this age")

    # ------------------------------------------------------------------
    # Job service (repro.jobs)
    # ------------------------------------------------------------------
    def add_root(p: argparse.ArgumentParser) -> None:
        p.add_argument("--root", metavar="DIR", default=JOBS_DEFAULT_ROOT,
                       help=f"service root (default: {JOBS_DEFAULT_ROOT})")

    srv = sub.add_parser(
        "serve", help="run a worker pool over a job-queue root"
    )
    add_root(srv)
    srv.add_argument("--workers", type=int, default=2,
                     help="worker processes to keep alive (default 2)")
    srv.add_argument("--heartbeat-timeout", dest="heartbeat_timeout",
                     type=float, default=5.0,
                     help=(
                         "seconds of heartbeat silence after which a "
                         "claimed job is requeued (default 5)"
                     ))
    srv.add_argument("--until-idle", dest="until_idle", action="store_true",
                     help="exit (cleanly) once the queue drains")
    srv.add_argument("--timeout", type=float, default=None,
                     help="stop serving after this many seconds")
    srv.add_argument("--json", action="store_true",
                     help="emit the final service stats as JSON")

    sbm = sub.add_parser(
        "submit", help="file run specs with the job service (non-blocking)"
    )
    sbm.add_argument("ids", nargs="+", metavar="EXPERIMENT",
                     help="experiment ids to submit")
    add_root(sbm)
    sbm.add_argument("--preset", choices=("fast", "full"), default="fast")
    sbm.add_argument("--seed", type=int, default=0)
    sbm.add_argument("--engine", choices=("batch", "loop", "exact"),
                     default=None)
    sbm.add_argument("--kernel", choices=KERNEL_CHOICES, default=None)
    sbm.add_argument("--schedule", dest="graph_schedule",
                     choices=SCHEDULE_KINDS, default=None)
    sbm.add_argument("--switch-every", dest="switch_every", type=int,
                     default=None)
    sbm.add_argument("--snapshots", dest="snapshots", type=int, default=None)
    sbm.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE")
    sbm.add_argument("--trace", action="store_true",
                     help="execute under the tracer (telemetry on the artefact)")
    sbm.add_argument("--max-retries", dest="max_retries", type=int, default=3,
                     help="requeues before quarantine (default 3)")
    sbm.add_argument("--timeout-s", dest="timeout_s", type=float, default=None,
                     metavar="SECONDS",
                     help=(
                         "wall-clock deadline per job; a worker abandons "
                         "the run past it and the job retries with backoff"
                     ))
    sbm.add_argument("--wait", action="store_true",
                     help="block until completion and print the result")
    sbm.add_argument("--timeout", type=float, default=None,
                     help="with --wait: give up after this many seconds")
    sbm.add_argument("--markdown", action="store_true")
    sbm.add_argument("--json", action="store_true",
                     help="emit job ids (and, with --wait, results) as JSON")

    sts = sub.add_parser("status", help="report one job's lifecycle state")
    sts.add_argument("job", metavar="JOB", help="job id")
    add_root(sts)
    sts.add_argument("--json", action="store_true")

    fch = sub.add_parser("fetch", help="retrieve a completed job's result")
    fch.add_argument("job", metavar="JOB", help="job id")
    add_root(fch)
    fch.add_argument("--wait", action="store_true",
                     help="block until the job completes first")
    fch.add_argument("--timeout", type=float, default=None,
                     help="with --wait: give up after this many seconds")
    fch.add_argument("--markdown", action="store_true")
    fch.add_argument("--json", action="store_true",
                     help="emit the full RunResult payload as JSON")

    jbs = sub.add_parser("jobs", help="inspect/manage the job queue")
    jbs_sub = jbs.add_subparsers(dest="action", required=True)
    jls = jbs_sub.add_parser("list", help="all job records plus service stats")
    add_root(jls)
    jls.add_argument("--json", action="store_true")
    jcn = jbs_sub.add_parser("cancel", help="cancel a queued/coalesced job")
    jcn.add_argument("job", metavar="JOB", help="job id")
    add_root(jcn)
    jst = jbs_sub.add_parser(
        "stop", help="ask serve loops and workers on this root to exit"
    )
    add_root(jst)
    jtr = jbs_sub.add_parser(
        "trace", help="service timeline as a telemetry block / Chrome trace"
    )
    add_root(jtr)
    jtr.add_argument("--chrome", metavar="OUT", default=None,
                     help="write chrome://tracing JSON to OUT (else stdout)")

    fsk = sub.add_parser(
        "fsck",
        help="check (or repair) a service root's on-disk invariants",
    )
    add_root(fsk)
    fsk.add_argument("--cache", metavar="DIR", default=None,
                     help="also check an engine cache directory")
    fsk.add_argument("--repair", action="store_true",
                     help="fix findings in place (default: read-only report)")
    fsk.add_argument("--grace", type=float, default=5.0, metavar="SECONDS",
                     help=(
                         "ignore files younger than this, so live workers' "
                         "in-flight writes are not reported (default 5)"
                     ))
    fsk.add_argument("--json", action="store_true",
                     help="emit the full report as JSON")
    return parser


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _parse_overrides(pairs: Sequence[str]) -> Dict[str, str]:
    overrides: Dict[str, str] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ReproError(f"--set expects KEY=VALUE, got {pair!r}")
        overrides[key] = value
    return overrides


def _coerce_overrides(experiment_id: str, raw: Dict[str, str]) -> Dict[str, Any]:
    """Coerce CLI strings against the declared schema where possible.

    Unknown keys pass through untouched so resolution reports them with
    the experiment's full parameter list.
    """
    params = get_experiment(experiment_id).params
    return {
        key: params[key].coerce(key, value) if key in params else value
        for key, value in raw.items()
    }


def _fold_dynamic_flags(
    experiment_id: str, overrides: Dict[str, Any], args: argparse.Namespace
) -> Dict[str, Any]:
    """Fold ``--switch-every`` / ``--snapshots`` into override form.

    Like ``--engine``, each flag applies only to experiments that
    declare the corresponding parameter, and an explicit ``--set``
    override always wins.
    """
    params = get_experiment(experiment_id).params
    for name in ("switch_every", "snapshots"):
        value = getattr(args, name, None)
        if value is not None and name in params and name not in overrides:
            overrides[name] = params[name].coerce(name, value)
    return overrides


def _check_ids(ids: Sequence[str]) -> int:
    known = experiment_ids()
    unknown = [i for i in ids if i not in known]
    if unknown:
        print(f"unknown experiment ids: {', '.join(unknown)}", file=sys.stderr)
        print(f"known ids: {', '.join(known)}", file=sys.stderr)
        return 2
    return 0


def _print_result(result: RunResult, markdown: bool) -> None:
    elapsed = result.provenance.wall_time_s
    print(f"\n### {result.spec.experiment_id}  ({elapsed:.1f}s)\n")
    for table in result.tables:
        print(table.render_markdown() if markdown else table.render())
        print()


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _run_cmd(args: argparse.Namespace) -> int:
    ids = args.ids or experiment_ids()
    status = _check_ids(ids)
    if status:
        return status
    preset = "full" if args.full else args.preset
    store = ArtifactStore(args.save) if args.save else None
    # Build and fully resolve every spec before executing any: a bad
    # --set override must fail up front, not midway through a run-all.
    specs = []
    for experiment_id in ids:
        spec = RunSpec(
            experiment_id=experiment_id,
            preset=preset,
            seed=args.seed,
            engine=args.engine,
            kernel=args.kernel,
            graph_schedule=args.graph_schedule,
            overrides=_fold_dynamic_flags(
                experiment_id,
                _coerce_overrides(
                    experiment_id, _parse_overrides(args.overrides)
                ),
                args,
            ),
            markdown=args.markdown,
            trace=args.trace,
        )
        resolve_spec(spec)
        specs.append(spec)
    payloads = []
    for spec in specs:
        result = execute(spec)
        if args.json:
            payloads.append(result.to_payload())
        else:
            _print_result(result, args.markdown)
        if store is not None:
            path = store.save(result)
            if not args.json:
                print(f"saved -> {path}")
    if args.json:
        print(json.dumps(payloads, indent=2, default=str))
    return 0


def _list_cmd(args: argparse.Namespace) -> int:
    experiments = all_experiments()
    if args.json:
        payload = [
            {
                "id": exp.id,
                "artefact": exp.artefact,
                "module": exp.module,
                "params": {
                    name: {
                        "kind": spec.kind_name,
                        "help": spec.help,
                        "default": (
                            "required" if spec.default is REQUIRED
                            else spec.default
                        ),
                        "choices": list(spec.choices),
                    }
                    for name, spec in exp.params.items()
                },
                "presets": exp.presets,
            }
            for exp in experiments
        ]
        print(json.dumps(payload, indent=2, default=str))
        return 0
    width = max(len(exp.id) for exp in experiments)
    for exp in experiments:
        print(f"{exp.id.ljust(width)}  {exp.artefact}")
    return 0


def _sweep_cmd(args: argparse.Namespace) -> int:
    status = _check_ids([args.id])
    if status:
        return status
    params = get_experiment(args.id).params
    axes: Dict[str, List[str]] = {}
    fixed: Dict[str, str] = {}
    for key, value in _parse_overrides(args.overrides).items():
        # For list-typed parameters a comma is part of one value
        # (`--set sizes=16,32` fixes sizes=[16, 32], same as under
        # `run`); axis points for them are separated by ';'
        # (`--set sizes=16,32;48,64` sweeps two size lists).
        is_sequence = key in params and params[key].kind_name in (
            "ints", "floats"
        )
        separator = ";" if is_sequence else ","
        values = [part for part in value.split(separator) if part != ""]
        if len(values) > 1:
            axes[key] = values
        else:
            fixed[key] = values[0] if values else value
    if not axes:
        raise ReproError(
            "sweep needs at least one multi-valued --set axis "
            "(e.g. --set n=24,36; use ';' between axis values of "
            "list-typed parameters)"
        )
    specs = expand_grid(
        args.id,
        axes,
        preset=args.preset,
        seed=args.seed,
        engine=args.engine,
        kernel=args.kernel,
        graph_schedule=args.graph_schedule,
        overrides=_fold_dynamic_flags(
            args.id, _coerce_overrides(args.id, fixed), args
        ),
    )
    store = ArtifactStore(args.save) if args.save else None
    results = []
    for spec in specs:
        result = execute(spec)
        results.append(result)
        if not args.json:
            _print_result(result, args.markdown)
        if store is not None:
            path = store.save(result)
            if not args.json:
                print(f"saved -> {path}")
    summary = summary_table(axes, results)
    timings = _cell_timings(axes, results)
    if args.json:
        print(json.dumps(
            {
                "results": [result.to_payload() for result in results],
                "summary": summary.to_payload(),
                "timings": timings,
            },
            indent=2,
            default=str,
        ))
    else:
        print(summary.render_markdown() if args.markdown else summary.render())
        print()
        print(_render_cell_timings(timings))
    return 0


def _cell_timings(
    axes: Dict[str, List[str]], results: List[RunResult]
) -> List[dict]:
    """Per-cell wall times, slowest first — the adaptive governor's
    first real input signal (see ROADMAP)."""
    rows = []
    for result in results:
        resolved = result.provenance.parameters
        cell = {
            name: resolved.get(name, result.spec.overrides.get(name))
            for name in axes
        }
        rows.append({
            "cell": cell,
            "wall_time_s": result.provenance.wall_time_s,
            "key": result.spec.key(),
        })
    rows.sort(key=lambda row: -row["wall_time_s"])
    return rows


def _render_cell_timings(timings: List[dict], top: int = 8) -> str:
    total = sum(row["wall_time_s"] for row in timings)
    lines = [f"slowest cells ({total:.1f}s total):"]
    for row in timings[:top]:
        cell = ", ".join(f"{k}={v}" for k, v in row["cell"].items())
        share = row["wall_time_s"] / total if total else 0.0
        lines.append(
            f"  {row['wall_time_s']:>8.2f}s  {share:>4.0%}  {cell}"
        )
    return "\n".join(lines)


def _diff_operand(token: str, store: ArtifactStore | None) -> RunResult:
    path = Path(token)
    if path.is_file():
        return RunResult.from_json(path.read_text())
    if store is None:
        raise ArtifactError(
            f"{token!r} is not an artefact file; pass --store DIR to "
            "resolve store keys or experiment ids"
        )
    try:
        return store.load(token)
    except ArtifactError:
        # Fall back to experiment-id resolution only when the manifest
        # does not know the token as a key; a known key that fails to
        # load (e.g. its artefact file was deleted) is a real error.
        if any(record.key == token for record in store.records()):
            raise
        return store.latest(token)


def _trace_cmd(args: argparse.Namespace) -> int:
    store = ArtifactStore(args.store) if args.store else None
    result = _diff_operand(args.artifact, store)
    if result.telemetry is None:
        print(
            f"error: {args.artifact!r} carries no telemetry; re-run the "
            "experiment with --trace",
            file=sys.stderr,
        )
        return 2
    if args.action == "summary":
        from repro.obs import render_summary, summarize

        summary = summarize(result.telemetry, top=args.top)
        if args.json:
            print(json.dumps(summary, indent=2, default=str))
        else:
            print(f"trace of {result.spec.label()}")
            print()
            print(render_summary(summary))
        return 0
    from repro.obs import chrome_trace

    payload = json.dumps(chrome_trace(result.telemetry), default=str)
    if args.chrome:
        Path(args.chrome).write_text(payload)
        print(f"wrote -> {args.chrome}")
    else:
        print(payload)
    return 0


def _cache_cmd(args: argparse.Namespace) -> int:
    from repro.engine.cache import ResultCache

    directory = Path(args.dir)
    if not directory.is_dir():
        print(f"error: {args.dir!r} is not a directory", file=sys.stderr)
        return 2
    cache = ResultCache(directory)
    if args.action == "stats":
        stats = cache.stats()
        if args.json:
            print(json.dumps(stats, indent=2))
        else:
            print(f"cache      {stats['directory']}")
            print(f"entries    {stats['entries']}")
            print(f"bytes      {stats['total_bytes']}")
            print(
                f"process    {stats['hits']} hits / {stats['misses']} misses, "
                f"{stats['bytes_read']}B read / "
                f"{stats['bytes_written']}B written"
            )
        return 0
    removed = cache.clear(older_than_seconds=args.older_than)
    scope = (
        f" older than {args.older_than:.0f}s"
        if args.older_than is not None
        else ""
    )
    print(f"removed {removed} entr{'y' if removed == 1 else 'ies'}{scope}")
    return 0


# ----------------------------------------------------------------------
# Job service subcommands
# ----------------------------------------------------------------------
def _serve_cmd(args: argparse.Namespace) -> int:
    from repro.jobs import Orchestrator

    orchestrator = Orchestrator(
        args.root,
        workers=args.workers,
        heartbeat_timeout=args.heartbeat_timeout,
    )
    try:
        stats = orchestrator.serve(
            until_idle=args.until_idle, timeout=args.timeout
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive
        orchestrator.shutdown()
        stats = orchestrator.queue.stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
    else:
        states = ", ".join(
            f"{state}={count}"
            for state, count in sorted(stats["states"].items())
        ) or "(none)"
        print(
            f"served {stats['jobs']} job(s): {states}; "
            f"deduped={stats['deduped']} retried={stats['retried']}"
        )
    return 0


def _submit_cmd(args: argparse.Namespace) -> int:
    from repro.jobs import submit

    status = _check_ids(args.ids)
    if status:
        return status
    # Validate every spec up front, exactly as `run` does: a bad
    # override must fail before anything enters the queue.
    specs = []
    for experiment_id in args.ids:
        spec = RunSpec(
            experiment_id=experiment_id,
            preset=args.preset,
            seed=args.seed,
            engine=args.engine,
            kernel=args.kernel,
            graph_schedule=args.graph_schedule,
            overrides=_fold_dynamic_flags(
                experiment_id,
                _coerce_overrides(
                    experiment_id, _parse_overrides(args.overrides)
                ),
                args,
            ),
            markdown=args.markdown,
            trace=args.trace,
            timeout_s=args.timeout_s,
        )
        resolve_spec(spec)
        specs.append(spec)
    handles = [
        submit(spec, root=args.root, max_retries=args.max_retries)
        for spec in specs
    ]
    payloads = []
    for handle in handles:
        job = handle.status(follow=False)
        entry = {
            "job": job.id,
            "key": job.key,
            "state": job.state,
            "coalesced_into": job.coalesced_into,
        }
        if args.json and not args.wait:
            payloads.append(entry)
        elif not args.json:
            note = (
                f" (coalesced into {job.coalesced_into})"
                if job.coalesced_into else ""
            )
            print(f"submitted {job.id}  {job.spec.label()}{note}")
    if args.wait:
        for handle in handles:
            result = handle.wait(timeout=args.timeout)
            if args.json:
                payloads.append(result.to_payload())
            else:
                _print_result(result, args.markdown)
    if args.json:
        print(json.dumps(payloads, indent=2, default=str))
    return 0


def _job_payload(queue: "JobQueue", job: "Job") -> dict:  # noqa: F821
    heartbeat = queue.read_heartbeat(job.id)
    payload = job.to_payload()
    payload["heartbeat"] = heartbeat
    return payload


def _status_cmd(args: argparse.Namespace) -> int:
    from repro.jobs import JobQueue

    queue = JobQueue(args.root)
    job = queue.get(args.job)
    resolved = queue.resolve(job)
    if args.json:
        payload = _job_payload(queue, job)
        if resolved.id != job.id:
            payload["resolved"] = _job_payload(queue, resolved)
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
        return 0
    print(f"job        {job.id}")
    print(f"spec       {job.spec.label()}")
    print(f"state      {job.state}"
          + (f" (follows {resolved.id}: {resolved.state})"
             if resolved.id != job.id else ""))
    print(f"attempts   {resolved.attempts}/{resolved.max_retries}")
    if resolved.error:
        print(f"error      {resolved.error.strip().splitlines()[-1]}")
    heartbeat = queue.read_heartbeat(resolved.id)
    if heartbeat:
        age = time.time() - heartbeat["t"]
        steps = heartbeat.get("counters", {}).get("engine.replica_steps")
        progress = f", {steps:.0f} replica-steps" if steps else ""
        print(f"worker     pid {heartbeat['pid']}, heartbeat {age:.1f}s ago"
              f"{progress}")
    return 0


def _fetch_cmd(args: argparse.Namespace) -> int:
    from repro.jobs import JobHandle, JobQueue

    handle = JobHandle(JobQueue(args.root), args.job)
    result = (
        handle.wait(timeout=args.timeout) if args.wait else handle.result()
    )
    if args.json:
        print(json.dumps(result.to_payload(), indent=2, default=str))
    else:
        _print_result(result, args.markdown)
    return 0


def _jobs_cmd(args: argparse.Namespace) -> int:
    from repro.jobs import JobQueue, jobs_telemetry

    queue = JobQueue(args.root)
    if args.action == "list":
        jobs = queue.jobs()
        stats = queue.stats()
        if args.json:
            print(json.dumps(
                {
                    "jobs": [_job_payload(queue, job) for job in jobs],
                    "stats": stats,
                },
                indent=2, sort_keys=True, default=str,
            ))
            return 0
        if not jobs:
            print(f"no jobs under {queue.root}")
            return 0
        for job in jobs:
            target = f" -> {job.coalesced_into}" if job.coalesced_into else ""
            print(
                f"{job.id}  {job.state:<11}  attempts={job.attempts}  "
                f"{job.spec.label()}{target}"
            )
        states = ", ".join(
            f"{state}={count}"
            for state, count in sorted(stats["states"].items())
        )
        print(f"\n{stats['jobs']} job(s): {states}; "
              f"deduped={stats['deduped']} retried={stats['retried']}")
        return 0
    if args.action == "cancel":
        job = queue.cancel(args.job)
        print(f"cancelled {job.id}")
        return 0
    if args.action == "stop":
        queue.request_stop()
        print(f"stop requested -> {queue.stop_path}")
        return 0
    # action == "trace": the service timeline through the obs tooling.
    telemetry = jobs_telemetry(queue)
    if args.chrome:
        from repro.obs import chrome_trace

        Path(args.chrome).write_text(
            json.dumps(chrome_trace(telemetry), default=str)
        )
        print(f"wrote -> {args.chrome}")
    else:
        print(json.dumps(telemetry, indent=2, default=str))
    return 0


def _fsck_cmd(args: argparse.Namespace) -> int:
    from repro.jobs import fsck

    report = fsck(
        args.root,
        cache_dir=args.cache,
        repair=args.repair,
        grace_s=args.grace,
    )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
        return 0 if report["clean"] else 1
    for finding in report["findings"]:
        print(finding)
    verdict = "clean" if report["clean"] else "NOT clean"
    tail = f", repaired {report['repaired']}" if args.repair else ""
    print(
        f"fsck {args.root}: {len(report['findings'])} finding(s){tail} "
        f"-> {verdict}"
    )
    return 0 if report["clean"] else 1


def _diff_cmd(args: argparse.Namespace) -> int:
    store = ArtifactStore(args.store) if args.store else None
    left = _diff_operand(args.left, store)
    right = _diff_operand(args.right, store)
    problems = diff_results(left, right, rel_tol=args.rel_tol)
    if args.json:
        print(json.dumps({"differences": problems}, indent=2))
    else:
        for problem in problems:
            print(problem)
        if not problems:
            print(
                f"match: {left.spec.label()} vs {right.spec.label()} "
                f"(rel_tol={args.rel_tol})"
            )
    return 1 if problems else 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_cli_parser().parse_args(argv)
        handler = {
            "run": _run_cmd,
            "list": _list_cmd,
            "sweep": _sweep_cmd,
            "diff": _diff_cmd,
            "trace": _trace_cmd,
            "cache": _cache_cmd,
            "serve": _serve_cmd,
            "submit": _submit_cmd,
            "status": _status_cmd,
            "fetch": _fetch_cmd,
            "jobs": _jobs_cmd,
            "fsck": _fsck_cmd,
        }[args.command]
        return handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
