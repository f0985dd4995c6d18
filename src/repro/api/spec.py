"""Typed, JSON-round-trippable run specifications and results.

A :class:`RunSpec` is the single currency of the run API: the CLI parses
one, the executor runs one, the artifact store files results under one.
It names an experiment, a scale preset (``fast`` / ``full``), explicit
parameter overrides, the seed, optional engine and kernel selections,
and output options — everything needed to reproduce a run from its
archived JSON.

A :class:`RunResult` pairs the produced tables with :class:`Provenance`:
the fully resolved parameters, the engine actually used, the package
version, the content hashes of every graph frozen during the run, and
wall time.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Mapping

from repro.exceptions import SpecError
from repro.sim.results import ResultTable

_SPEC_FIELDS = (
    "experiment_id", "preset", "seed", "engine", "kernel",
    "graph_schedule", "overrides", "markdown", "trace", "timeout_s",
)


def _normalise(value: Any) -> Any:
    """Map tuples to lists recursively so ``==`` survives a JSON cycle."""
    if isinstance(value, (list, tuple)):
        return [_normalise(v) for v in value]
    if isinstance(value, Mapping):
        return {k: _normalise(v) for k, v in value.items()}
    return value


@dataclass
class RunSpec:
    """Declarative description of one experiment run."""

    experiment_id: str
    preset: str = "fast"
    seed: int = 0
    engine: str | None = None
    kernel: str | None = None
    graph_schedule: str | None = None
    overrides: Dict[str, Any] = field(default_factory=dict)
    markdown: bool = False
    # Observability opt-in: attaches a telemetry block to the result.
    # Like markdown, trace is an output option — it never participates
    # in key(), because tracing must not change what a run computes.
    trace: bool = False
    # Wall-clock deadline for service execution (seconds).  Enforced by
    # the job worker's watchdog, not the engine: a hung kernel becomes
    # a retriable failure instead of a stuck claim.  An execution
    # option like markdown/trace — never part of key(), because a
    # deadline must not change what a run computes.
    timeout_s: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.experiment_id, str) or not self.experiment_id:
            raise SpecError("experiment_id must be a non-empty string")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise SpecError(f"seed must be an int, got {self.seed!r}")
        if self.timeout_s is not None:
            if isinstance(self.timeout_s, bool) or not isinstance(
                self.timeout_s, (int, float)
            ):
                raise SpecError(
                    f"timeout_s must be a positive number or None, "
                    f"got {self.timeout_s!r}"
                )
            self.timeout_s = float(self.timeout_s)
            if self.timeout_s <= 0:
                raise SpecError(
                    f"timeout_s must be positive, got {self.timeout_s!r}"
                )
        self.overrides = {
            str(k): _normalise(v) for k, v in dict(self.overrides).items()
        }

    # ------------------------------------------------------------------
    # Serialisation (lossless round trip)
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        return _normalise(asdict(self))

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "RunSpec":
        if not isinstance(payload, Mapping):
            raise SpecError(f"run spec payload must be a mapping, got {payload!r}")
        fields = dict(payload)
        # Specs stored before the kernel thread knob was removed carry
        # "threads": null; only a set value has lost its meaning.
        if fields.pop("threads", None) is not None:
            raise SpecError(
                "run spec sets 'threads', a kernel thread knob that has "
                "been removed; drop the field"
            )
        unknown = [key for key in fields if key not in _SPEC_FIELDS]
        if unknown:
            raise SpecError(
                f"run spec payload has unknown fields: {', '.join(unknown)}"
            )
        if "experiment_id" not in fields:
            raise SpecError("run spec payload is missing 'experiment_id'")
        return cls(**fields)

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecError(f"invalid run spec JSON: {error}") from error
        return cls.from_payload(payload)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def _effective_overrides(self) -> Dict[str, Any]:
        """The resolution delta this spec's overrides and engine produce.

        Computed as the difference between the fully resolved parameters
        and the bare preset's resolution, so no-op settings — the engine
        field on an experiment that ignores it, an override equal to its
        preset/default value, a string that coerces to the preset value —
        do not split the configuration's identity.  For ids the registry
        does not know (e.g. specs written for a future version) or specs
        that do not resolve, the raw overrides are kept conservatively.
        """
        from repro.api.registry import get_experiment, merge_engine

        fallback = dict(self.overrides)
        if self.engine is not None and "engine" not in fallback:
            fallback["engine"] = self.engine
        if self.kernel is not None and "kernel" not in fallback:
            fallback["kernel"] = self.kernel
        if self.graph_schedule is not None and "graph_schedule" not in fallback:
            fallback["graph_schedule"] = self.graph_schedule
        try:
            experiment = get_experiment(self.experiment_id)
            merged = merge_engine(
                experiment, self.overrides, self.engine, self.kernel,
                self.graph_schedule,
            )
            resolved = experiment.resolve(self.preset, merged)
            baseline = experiment.resolve(self.preset)
        except SpecError:
            return fallback
        return {
            name: value
            for name, value in resolved.items()
            if _normalise(value) != _normalise(baseline[name])
        }

    def key(self) -> str:
        """Stable filesystem-safe identity of this configuration.

        Two specs that resolve to the same parameters (same experiment,
        preset, seed and effective overrides; output options do not
        participate) share a key, so re-running a configuration
        overwrites its archived artefact — one canonical record per
        configuration.
        """
        parts = [self.experiment_id, self.preset, f"s{self.seed}"]
        effective = self._effective_overrides()
        if effective:
            blob = json.dumps(_normalise(effective), sort_keys=True)
            parts.append(hashlib.sha256(blob.encode()).hexdigest()[:8])
        return ".".join(parts)

    def label(self) -> str:
        """Human-oriented one-line description."""
        extras = [self.preset, f"seed={self.seed}"]
        if self.engine is not None:
            extras.append(f"engine={self.engine}")
        if self.kernel is not None:
            extras.append(f"kernel={self.kernel}")
        if self.graph_schedule is not None:
            extras.append(f"schedule={self.graph_schedule}")
        extras += [f"{k}={v}" for k, v in sorted(self.overrides.items())]
        return f"{self.experiment_id}[{', '.join(extras)}]"


@dataclass
class Provenance:
    """How a result was produced — enough to reproduce or audit it."""

    parameters: Dict[str, Any]
    engine: str | None
    version: str
    graph_hashes: List[str]
    wall_time_s: float
    timestamp: float
    #: The *effective* kernel the engine resolved to (e.g. a requested
    #: ``"jit"`` that degraded to ``"fused"``), when the run used one.
    kernel: str | None = None
    #: Why that kernel was picked: ``"explicit"`` (the caller named it),
    #: ``"heuristic"`` (``kernel="auto"``) or ``"fallback"`` (requested
    #: backend unavailable).
    kernel_reason: str | None = None

    def to_payload(self) -> dict:
        return _normalise(asdict(self))

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "Provenance":
        try:
            return cls(
                parameters=dict(payload["parameters"]),
                engine=payload.get("engine"),
                version=payload["version"],
                graph_hashes=list(payload["graph_hashes"]),
                wall_time_s=float(payload["wall_time_s"]),
                timestamp=float(payload["timestamp"]),
                kernel=payload.get("kernel"),
                kernel_reason=payload.get("kernel_reason"),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise SpecError(f"malformed provenance payload: {error}") from error


@dataclass
class RunResult:
    """Tables plus provenance for one executed :class:`RunSpec`."""

    spec: RunSpec
    tables: List[ResultTable]
    provenance: Provenance
    #: Observability block (see :mod:`repro.obs.export`); present only
    #: when the run executed with ``spec.trace``.
    telemetry: Dict[str, Any] | None = None

    def to_payload(self) -> dict:
        payload = {
            "schema": 1,
            "spec": self.spec.to_payload(),
            "provenance": self.provenance.to_payload(),
            "tables": [table.to_payload() for table in self.tables],
        }
        if self.telemetry is not None:
            payload["telemetry"] = self.telemetry
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "RunResult":
        try:
            spec = RunSpec.from_payload(payload["spec"])
            provenance = Provenance.from_payload(payload["provenance"])
            tables = [
                ResultTable.from_payload(entry) for entry in payload["tables"]
            ]
        except (KeyError, TypeError) as error:
            raise SpecError(f"malformed run result payload: {error}") from error
        telemetry = payload.get("telemetry")
        return cls(
            spec=spec,
            tables=tables,
            provenance=provenance,
            telemetry=dict(telemetry) if telemetry is not None else None,
        )

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), indent=2, default=str)

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecError(f"invalid run result JSON: {error}") from error
        return cls.from_payload(payload)
