"""Spec-level parameter sweeps: one RunSpec per grid point.

This module expands a cartesian grid of *parameter overrides* into
concrete :class:`~repro.api.RunSpec`\\ s — the shape the ``repro sweep``
subcommand executes and archives.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterator, List, Mapping, Sequence

from repro.api.registry import get_experiment, merge_engine
from repro.api.spec import RunSpec
from repro.exceptions import SpecError
from repro.sim.results import ResultTable


def grid(axes: Mapping[str, Sequence[Any]]) -> Iterator[dict]:
    """Yield one ``{axis: value}`` dict per point of the cartesian product.

    Points appear in lexicographic axis order (last axis fastest).
    """
    names = list(axes)
    for combo in itertools.product(*(axes[name] for name in names)):
        yield dict(zip(names, combo))


def expand_grid(
    experiment_id: str,
    axes: Mapping[str, Sequence[Any]],
    *,
    preset: str = "fast",
    seed: int = 0,
    engine: str | None = None,
    kernel: str | None = None,
    graph_schedule: str | None = None,
    overrides: Mapping[str, Any] | None = None,
) -> List[RunSpec]:
    """One validated :class:`RunSpec` per point of ``axes``' product.

    ``axes`` maps declared parameter names to candidate values;
    ``overrides`` holds scalar settings shared by every point.  Axis
    names must be declared parameters of the experiment and must not
    collide with ``overrides``.
    """
    experiment = get_experiment(experiment_id)
    if not axes:
        raise SpecError("a sweep needs at least one axis")
    common = dict(overrides or {})
    for name in axes:
        if name in common:
            raise SpecError(f"axis {name!r} collides with a fixed override")
        if name not in experiment.params:
            raise SpecError(
                f"experiment {experiment_id!r} has no parameter {name!r}; "
                f"declared parameters: {', '.join(experiment.params) or '(none)'}"
            )
    # Coerce every value up front: a bad grid fails before any point runs,
    # and the archived specs carry typed values, not CLI strings.
    coerced_axes = {
        name: [experiment.params[name].coerce(name, value) for value in values]
        for name, values in axes.items()
    }
    specs = []
    for point in grid(coerced_axes):
        spec = RunSpec(
            experiment_id=experiment_id,
            preset=preset,
            seed=seed,
            engine=engine,
            kernel=kernel,
            graph_schedule=graph_schedule,
            overrides={**common, **point},
        )
        experiment.resolve(
            preset,
            merge_engine(
                experiment, spec.overrides, spec.engine, spec.kernel,
                spec.graph_schedule,
            ),
        )
        specs.append(spec)
    return specs


def summary_table(
    axes: Mapping[str, Sequence[Any]], results: Sequence
) -> ResultTable:
    """Compact per-point summary of executed sweep results."""
    names = list(axes)
    table = ResultTable(
        title="sweep summary",
        columns=[*names, "tables", "rows", "wall_time_s"],
    )
    for result in results:
        point = [result.spec.overrides.get(name) for name in names]
        table.add_row(
            *point,
            len(result.tables),
            sum(len(t.rows) for t in result.tables),
            result.provenance.wall_time_s,
        )
    return table
