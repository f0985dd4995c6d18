"""Experiment registry: declarative registration of paper artefacts.

Each experiment module declares itself with the :func:`experiment`
decorator: a stable id, the paper artefact it reproduces, a typed
parameter schema, and the ``fast`` / ``full`` scale presets as *data*.
The run API executes the decorated function through
:meth:`Experiment.run` with fully resolved parameters.

Which parameters an experiment accepts (``engine``, ``kernel``, ...) is
declared here, not guessed from the runner's signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping

from repro.engine.dynamic import SCHEDULE_KINDS
from repro.engine.kernels import KERNEL_CHOICES
from repro.exceptions import SpecError
from repro.sim.results import ResultTable

#: Sentinel for parameters that every preset must supply.
REQUIRED = object()

#: Names of the scale presets every experiment declares.
PRESETS = ("fast", "full")

_SCALARS = {"int": int, "float": float, "str": str, "bool": bool}
_SEQUENCES = {"ints": int, "floats": float}


@dataclass(frozen=True)
class ParamSpec:
    """Schema of one experiment parameter.

    ``kind`` is a scalar type (``int``, ``float``, ``str``, ``bool``) or
    the strings ``"ints"`` / ``"floats"`` for comma-separable sequences.
    ``default`` is :data:`REQUIRED` when every preset must supply the
    value.  ``choices`` restricts admissible values (e.g. the engine).
    """

    kind: Any
    help: str
    default: Any = REQUIRED
    choices: tuple = ()

    @property
    def kind_name(self) -> str:
        return self.kind if isinstance(self.kind, str) else self.kind.__name__

    def coerce(self, name: str, value: Any) -> Any:
        """Validate ``value`` (coercing CLI/JSON strings) or raise SpecError."""
        try:
            value = self._convert(value)
        except (TypeError, ValueError):
            raise SpecError(
                f"parameter {name!r} expects {self.kind_name}, "
                f"got {value!r}"
            ) from None
        if self.choices and value not in self.choices:
            raise SpecError(
                f"parameter {name!r} must be one of "
                f"{', '.join(map(repr, self.choices))}; got {value!r}"
            )
        return value

    def _convert(self, value: Any) -> Any:
        kind = self.kind_name
        if kind in _SEQUENCES:
            item = _SEQUENCES[kind]
            if isinstance(value, str):
                value = [part for part in value.split(",") if part.strip()]
            if not isinstance(value, (list, tuple)):
                raise ValueError(value)
            return [item(v) for v in value]
        scalar = _SCALARS[kind]
        if scalar is bool:
            if isinstance(value, bool):
                return value
            if isinstance(value, str):
                lowered = value.strip().lower()
                if lowered in ("true", "1", "yes", "on"):
                    return True
                if lowered in ("false", "0", "no", "off"):
                    return False
            raise ValueError(value)
        if isinstance(value, bool):  # bool is an int subclass; reject it
            raise ValueError(value)
        if scalar in (int, float) and isinstance(value, str):
            return scalar(value)
        if scalar is float and isinstance(value, int):
            return float(value)
        if not isinstance(value, scalar):
            raise ValueError(value)
        return value


def engine_param(include_exact: bool = False) -> ParamSpec:
    """The shared ``engine`` parameter of the Monte-Carlo experiments.

    Experiments whose quantities have an absorbing-chain analytic
    backend (:mod:`repro.theory.absorbing`) pass ``include_exact=True``
    to additionally accept ``engine="exact"``, which replaces sampling
    with the fundamental-matrix expectation where feasible.
    """
    if include_exact:
        return ParamSpec(
            str,
            "replica simulator: vectorized batch engine, per-replica "
            "loop, or the exact absorbing-chain solver",
            default="batch",
            choices=("batch", "loop", "exact"),
        )
    return ParamSpec(
        str,
        "replica simulator: vectorized batch engine or per-replica loop",
        default="batch",
        choices=("batch", "loop"),
    )


def kernel_param() -> ParamSpec:
    """The shared ``kernel`` parameter of the Monte-Carlo experiments.

    Selects the batch engine's stepping kernel
    (:mod:`repro.engine.kernels`); ignored by ``engine="loop"``.
    ``auto`` resolves to ``jit`` when the compiled C block loop loads
    and to ``fused`` otherwise; an explicit ``jit`` degrades to
    ``fused`` without a C compiler.
    """
    return ParamSpec(
        str,
        "batch stepping kernel: auto (jit if its C loop builds, else "
        "fused), per-round numpy, fused blocks, or the compiled C jit "
        "(falls back to fused without a C compiler)",
        default="auto",
        choices=tuple(KERNEL_CHOICES),
    )


def graph_schedule_param() -> ParamSpec:
    """The shared ``graph_schedule`` parameter of dynamic experiments.

    Selects how the snapshot stream is generated
    (:mod:`repro.engine.dynamic`): cyclic rotation, seeded random
    choice per segment, or an edge-rewiring churn stream.
    """
    return ParamSpec(
        str,
        "time-varying topology stream: cyclic rotation, seeded random "
        "snapshot choice, or an edge-rewiring churn stream",
        default="cyclic",
        choices=tuple(SCHEDULE_KINDS),
    )


@dataclass
class Experiment:
    """One registered paper artefact: runner plus declared schema."""

    id: str
    artefact: str
    fn: Callable[..., List[ResultTable]]
    params: Dict[str, ParamSpec]
    presets: Dict[str, Dict[str, Any]]
    module: str = ""

    def resolve(
        self, preset: str = "fast", overrides: Mapping[str, Any] | None = None
    ) -> Dict[str, Any]:
        """Fully resolved parameter dict: defaults < preset < overrides."""
        if preset not in self.presets:
            raise SpecError(
                f"experiment {self.id!r} has no preset {preset!r}; "
                f"declared presets: {', '.join(self.presets)}"
            )
        resolved = {
            name: spec.default
            for name, spec in self.params.items()
            if spec.default is not REQUIRED
        }
        resolved.update(self.presets[preset])
        for name, value in (overrides or {}).items():
            if name not in self.params:
                raise SpecError(
                    f"experiment {self.id!r} has no parameter {name!r}; "
                    f"declared parameters: {', '.join(self.params) or '(none)'}"
                )
            resolved[name] = self.params[name].coerce(name, value)
        missing = [name for name in self.params if name not in resolved]
        if missing:
            raise SpecError(
                f"experiment {self.id!r}: preset {preset!r} leaves required "
                f"parameters unset: {', '.join(missing)}"
            )
        return resolved

    def run(
        self,
        preset: str = "fast",
        seed: int = 0,
        overrides: Mapping[str, Any] | None = None,
    ) -> List[ResultTable]:
        """Execute the runner with resolved parameters (no provenance)."""
        return self.fn(seed=seed, **self.resolve(preset, overrides))


def merge_engine(
    experiment: Experiment,
    overrides: Mapping[str, Any] | None,
    engine: str | None,
    kernel: str | None = None,
    graph_schedule: str | None = None,
) -> Dict[str, Any]:
    """Fold spec-level engine/kernel/schedule selections into overrides.

    The single home of the rule every front end shares: each selection
    participates only when the experiment *declares* the corresponding
    parameter (the old CLI applied ``--engine`` solely to the
    Monte-Carlo runners), and an explicit override always wins.
    """
    merged = dict(overrides or {})
    selections = {
        "engine": engine, "kernel": kernel, "graph_schedule": graph_schedule,
    }
    for name, value in selections.items():
        if value is not None and name in experiment.params:
            merged.setdefault(name, value)
    return merged


#: Experiment id -> :class:`Experiment`, in registration order.
REGISTRY: Dict[str, Experiment] = {}


def experiment(
    experiment_id: str,
    *,
    artefact: str,
    params: Mapping[str, ParamSpec] | None = None,
    presets: Mapping[str, Mapping[str, Any]] | None = None,
) -> Callable:
    """Register a runner under ``experiment_id`` with a declared schema.

    The decorated function must accept ``seed`` plus one keyword per
    declared parameter.  The decorator validates the declaration (preset
    keys must be declared parameters, both scale presets must exist, and
    each preset must complete the required parameters), registers the
    :class:`Experiment`, and returns ``fn`` unchanged.
    """

    def decorate(fn: Callable[..., List[ResultTable]]) -> Callable:
        declared = dict(params or {})
        scale = {name: dict(values) for name, values in (presets or {}).items()}
        for name in PRESETS:
            scale.setdefault(name, {})
        if experiment_id in REGISTRY:
            raise SpecError(f"duplicate experiment id {experiment_id!r}")
        exp = Experiment(
            id=experiment_id,
            artefact=artefact,
            fn=fn,
            params=declared,
            presets=scale,
            module=fn.__module__,
        )
        for preset_name, values in scale.items():
            unknown = [name for name in values if name not in declared]
            if unknown:
                raise SpecError(
                    f"experiment {experiment_id!r}: preset {preset_name!r} "
                    f"sets undeclared parameters: {', '.join(unknown)}"
                )
            exp.resolve(preset_name)  # raises if required params are unset
        REGISTRY[experiment_id] = exp
        return fn

    return decorate


def _ensure_loaded() -> None:
    """Import the experiment package so its decorators populate REGISTRY."""
    import repro.experiments  # noqa: F401  (registration side effect)


def get_experiment(experiment_id: str) -> Experiment:
    """Look up one registered experiment or raise a SpecError listing ids."""
    _ensure_loaded()
    try:
        return REGISTRY[experiment_id]
    except KeyError:
        raise SpecError(
            f"unknown experiment id {experiment_id!r}; "
            f"known ids: {', '.join(REGISTRY)}"
        ) from None


def experiment_ids() -> List[str]:
    """All registered ids, in registration (DESIGN.md index) order."""
    _ensure_loaded()
    return list(REGISTRY)


def all_experiments() -> List[Experiment]:
    """All registered experiments, in registration order."""
    _ensure_loaded()
    return list(REGISTRY.values())
