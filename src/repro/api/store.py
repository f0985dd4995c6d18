"""Manifest-indexed archive of executed runs.

The :class:`ArtifactStore` is a directory with one JSON artefact per run
configuration plus a ``manifest.json`` index, so archived runs can be
listed, reloaded and regression-diffed *by spec* instead of by guessing
file names:

```
store/
  manifest.json                 {"schema": 1, "records": {key: record}}
  EXP-T222.fast.s0.json         RunResult payload (spec + provenance + tables)
  EXP-T222.fast.s0.1a2b3c4d.json  same configuration with overrides
```

Keys come from :meth:`RunSpec.key`; saving the same configuration twice
overwrites its artefact (one canonical record per configuration).
:func:`diff_results` compares two runs table by table with
:func:`diff_tables`.

The store is safe under concurrent writers — the job service points
many worker processes at one store.  Artefact and manifest writes are
atomic (unique temp file + ``os.replace``, so readers never see a torn
JSON), and the manifest's read-modify-write cycle in :meth:`save` runs
under a :class:`~repro.locks.FileLock`, so two workers archiving at
the same moment cannot drop each other's manifest entries.

The store is also *crash-consistent* (DESIGN.md section 11): every
manifest entry carries the sha256 of its artefact file, :meth:`load`
verifies it and quarantines corrupt artefacts (``quarantine/``, entry
dropped, ``store.quarantined`` counted) instead of returning bad data,
a corrupt manifest is rebuilt from the artefact files themselves, and
``ENOSPC`` surfaces as :class:`~repro.exceptions.StorageError` so the
job service can fail the affected job cleanly.
"""

from __future__ import annotations

import errno
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List

from repro.api.spec import RunResult, RunSpec
from repro.exceptions import ArtifactError, ParameterError, SpecError, StorageError
from repro.locks import FileLock, atomic_write_text, read_text
from repro.obs.metrics import METRICS
from repro.sim.results import ResultTable

MANIFEST_NAME = "manifest.json"
#: corrupt artefacts are moved here (never deleted) pending recompute.
QUARANTINE_DIR = "quarantine"
_SCHEMA = 1


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def diff_tables(
    old: ResultTable, new: ResultTable, rel_tol: float = 0.25
) -> List[str]:
    """Human-readable differences between two runs of the same table.

    Finite numeric cells are compared with relative tolerance ``rel_tol``
    (Monte-Carlo tables fluctuate run to run); a non-finite cell matches
    only an equal cell or, for NaN, another NaN.  Structural differences
    (columns, row counts) are always reported.
    """
    if not (math.isfinite(rel_tol) and rel_tol >= 0):
        raise ParameterError(f"rel_tol must be finite and >= 0, got {rel_tol}")
    problems: List[str] = []
    if list(old.columns) != list(new.columns):
        problems.append(f"columns changed: {list(old.columns)} -> {list(new.columns)}")
        return problems
    if len(old.rows) != len(new.rows):
        problems.append(f"row count changed: {len(old.rows)} -> {len(new.rows)}")
        return problems
    for i, (row_old, row_new) in enumerate(zip(old.rows, new.rows)):
        for column, a, b in zip(old.columns, row_old, row_new):
            if isinstance(a, (int, float)) and isinstance(b, (int, float)) \
                    and not isinstance(a, bool) and not isinstance(b, bool):
                if math.isfinite(a) and math.isfinite(b):
                    scale = max(abs(a), abs(b), 1e-12)
                    drifted = abs(a - b) / scale > rel_tol
                else:
                    drifted = a != b and not (math.isnan(a) and math.isnan(b))
            else:
                drifted = a != b
            if drifted:
                problems.append(f"row {i}, column {column!r}: {a!r} -> {b!r}")
    return problems


def diff_results(
    old: RunResult, new: RunResult, rel_tol: float = 0.25
) -> List[str]:
    """Human-readable differences between two runs (empty = match).

    Tables are paired by title; numeric cells compare with relative
    tolerance ``rel_tol`` via :func:`diff_tables`.  Spec
    mismatches (different experiment) are reported first — diffing a run
    against a different experiment is almost certainly a mistake.
    """
    problems: List[str] = []
    if old.spec.experiment_id != new.spec.experiment_id:
        problems.append(
            "experiment changed: "
            f"{old.spec.experiment_id} -> {new.spec.experiment_id}"
        )
        return problems
    # Effective-kernel drift (e.g. one side's "jit" silently degraded to
    # "fused") explains many throughput regressions: surface it whenever
    # both provenances recorded a kernel.
    old_kernel = old.provenance.kernel
    new_kernel = new.provenance.kernel
    if (
        old_kernel is not None
        and new_kernel is not None
        and old_kernel != new_kernel
    ):
        problems.append(
            f"effective kernel changed: {old_kernel} -> {new_kernel}"
        )
    old_by_title = {table.title: table for table in old.tables}
    new_by_title = {table.title: table for table in new.tables}
    for title in old_by_title:
        if title not in new_by_title:
            problems.append(f"table {title!r} disappeared")
    for title in new_by_title:
        if title not in old_by_title:
            problems.append(f"table {title!r} appeared")
    for title, old_table in old_by_title.items():
        if title not in new_by_title:
            continue
        problems += [
            f"table {title!r}: {problem}"
            for problem in diff_tables(
                old_table, new_by_title[title], rel_tol=rel_tol
            )
        ]
    return problems


@dataclass
class ArtifactRecord:
    """One manifest entry: where a run lives and what produced it."""

    key: str
    file: str
    experiment_id: str
    preset: str
    seed: int
    overrides: Dict[str, Any]
    version: str
    wall_time_s: float
    timestamp: float
    #: sha256 of the artefact file's exact bytes.  Empty for records
    #: written before checksumming existed; those skip verification.
    sha256: str = ""

    @classmethod
    def from_result(
        cls, result: RunResult, file: str, sha256: str = ""
    ) -> "ArtifactRecord":
        spec, prov = result.spec, result.provenance
        return cls(
            key=spec.key(),
            file=file,
            experiment_id=spec.experiment_id,
            preset=spec.preset,
            seed=spec.seed,
            overrides=dict(spec.overrides),
            version=prov.version,
            wall_time_s=prov.wall_time_s,
            timestamp=prov.timestamp,
            sha256=sha256,
        )


class ArtifactStore:
    """Directory-backed archive of :class:`RunResult`\\ s."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def _read_manifest(
        self, heal: bool = True, locked: bool = False
    ) -> Dict[str, ArtifactRecord]:
        """Parse the manifest; a corrupt one is rebuilt, not fatal.

        The manifest is an *index*, the artefact files are the truth:
        when the index is unparseable (torn legacy write, bit rot) it
        is reconstructed by scanning the artefacts
        (:meth:`rebuild_manifest`) instead of bricking the store.
        ``heal=False`` reports the corruption as an
        :class:`ArtifactError` instead (fsck's read-only mode);
        ``locked=True`` tells the rebuild the caller already holds the
        manifest lock (:class:`FileLock` is not reentrant).
        """
        if not self.manifest_path.exists():
            return {}
        try:
            payload = json.loads(
                read_text(self.manifest_path, site="store.manifest")
            )
            records = {
                key: ArtifactRecord(**entry)
                for key, entry in payload["records"].items()
            }
        except (json.JSONDecodeError, KeyError, TypeError) as error:
            if not heal:
                raise ArtifactError(
                    f"corrupt manifest at {self.manifest_path}: {error}"
                ) from error
            METRICS.count("store.manifest_rebuilt")
            return self.rebuild_manifest(locked=locked)
        return records

    def _write_manifest(self, records: Dict[str, ArtifactRecord]) -> None:
        payload = {
            "schema": _SCHEMA,
            "records": {key: asdict(record) for key, record in records.items()},
        }
        try:
            atomic_write_text(
                self.manifest_path,
                json.dumps(payload, indent=2, sort_keys=True),
                site="store.manifest",
            )
        except OSError as error:
            if error.errno == errno.ENOSPC:
                raise StorageError(
                    f"disk full while writing manifest "
                    f"{self.manifest_path}: {error}"
                ) from error
            raise

    def _manifest_lock(self) -> FileLock:
        return FileLock(self.root / (MANIFEST_NAME + ".lock"))

    def rebuild_manifest(
        self, locked: bool = False
    ) -> Dict[str, ArtifactRecord]:
        """Reconstruct the manifest by scanning the artefact files.

        Every parseable ``*.json`` artefact gets a fresh entry (with a
        freshly computed checksum — the rebuilt index trusts the bytes
        it actually read); unparseable files are skipped and left for
        :meth:`verify` to report.  The file name, not the re-derived
        spec key, is the entry's key: names were minted from keys at
        save time and survive registry drift.
        """
        records: Dict[str, ArtifactRecord] = {}
        for path in sorted(self.root.glob("*.json")):
            if path.name == MANIFEST_NAME:
                continue
            try:
                text = path.read_text()
                result = RunResult.from_json(text)
            except (OSError, SpecError):
                continue
            record = ArtifactRecord.from_result(
                result, path.name, sha256=_sha256(text)
            )
            record.key = path.stem
            records[path.stem] = record
        if locked:
            self._write_manifest(records)
        else:
            with self._manifest_lock():
                self._write_manifest(records)
        return records

    # ------------------------------------------------------------------
    # Save / load / list
    # ------------------------------------------------------------------
    def save(self, result: RunResult) -> Path:
        """Archive ``result``; returns the artefact path.

        Re-saving the same configuration (same :meth:`RunSpec.key`)
        overwrites the previous artefact and manifest entry.  Safe
        under concurrent writers: the artefact lands atomically and
        the manifest update is serialised by a file lock.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        key = result.spec.key()
        file_name = f"{key}.json"
        text = result.to_json()
        try:
            atomic_write_text(
                self.root / file_name, text, site="store.artifact"
            )
        except OSError as error:
            if error.errno == errno.ENOSPC:
                raise StorageError(
                    f"disk full while archiving {key!r} under "
                    f"{self.root}: {error}"
                ) from error
            raise
        with self._manifest_lock():
            records = self._read_manifest(locked=True)
            records[key] = ArtifactRecord.from_result(
                result, file_name, sha256=_sha256(text)
            )
            self._write_manifest(records)
        return self.root / file_name

    def records(self) -> List[ArtifactRecord]:
        """All manifest entries, sorted by (experiment id, preset, seed)."""
        return sorted(
            self._read_manifest().values(),
            key=lambda r: (r.experiment_id, r.preset, r.seed, r.key),
        )

    def find(
        self,
        experiment_id: str | None = None,
        preset: str | None = None,
        seed: int | None = None,
    ) -> List[ArtifactRecord]:
        """Manifest entries matching every given filter."""
        return [
            record
            for record in self.records()
            if (experiment_id is None or record.experiment_id == experiment_id)
            and (preset is None or record.preset == preset)
            and (seed is None or record.seed == seed)
        ]

    def load(self, key: str) -> RunResult:
        """Reload one archived run by its manifest key.

        The artefact's bytes are verified against the manifest
        checksum; a mismatch (or unparseable content) quarantines the
        file and drops the entry, so the raised
        :class:`ArtifactError` means "recompute this key" — the next
        submission of the configuration runs instead of serving rot.
        A missing artefact file likewise drops its dangling entry.
        """
        records = self._read_manifest()
        if key not in records:
            raise ArtifactError(
                f"no artefact {key!r} in {self.root}; "
                f"known keys: {', '.join(sorted(records)) or '(none)'}"
            )
        record = records[key]
        path = self.root / record.file
        try:
            text = read_text(path, site="store.artifact")
        except FileNotFoundError:
            self._drop_record(key)
            raise ArtifactError(
                f"manifest entry {key!r} points at missing {path}; "
                f"entry dropped — resubmit to recompute"
            ) from None
        if record.sha256 and _sha256(text) != record.sha256:
            self._quarantine(key, record)
            raise ArtifactError(
                f"artefact {key!r} failed its checksum (corrupt read from "
                f"{path}); quarantined — resubmit to recompute"
            )
        try:
            return RunResult.from_json(text)
        except SpecError as error:
            self._quarantine(key, record)
            raise ArtifactError(
                f"artefact {key!r} is unparseable ({error}); "
                f"quarantined — resubmit to recompute"
            ) from error

    def _drop_record(self, key: str) -> None:
        with self._manifest_lock():
            records = self._read_manifest(locked=True)
            if key in records:
                del records[key]
                self._write_manifest(records)

    def _quarantine(self, key: str, record: ArtifactRecord) -> None:
        """Move a corrupt artefact aside and forget its manifest entry."""
        METRICS.count("store.quarantined")
        quarantine = self.root / QUARANTINE_DIR
        quarantine.mkdir(parents=True, exist_ok=True)
        try:
            os.replace(self.root / record.file, quarantine / record.file)
        except FileNotFoundError:
            pass
        self._drop_record(key)

    def load_spec(self, spec: RunSpec) -> RunResult:
        """Reload the archived run of ``spec``'s configuration."""
        return self.load(spec.key())

    def latest(self, experiment_id: str) -> RunResult:
        """Most recently saved run of ``experiment_id``."""
        matches = self.find(experiment_id=experiment_id)
        if not matches:
            raise ArtifactError(
                f"no archived runs of {experiment_id!r} in {self.root}"
            )
        newest = max(matches, key=lambda record: record.timestamp)
        return self.load(newest.key)

    # ------------------------------------------------------------------
    # Integrity checking (repro fsck)
    # ------------------------------------------------------------------
    def verify(self, repair: bool = False) -> Dict[str, Any]:
        """Check manifest <-> artefact agreement; optionally repair.

        Findings: a corrupt manifest, entries whose file is missing,
        checksum mismatches, unparseable artefacts, and artefact files
        the manifest does not index.  With ``repair=True`` each finding
        is fixed the same way the hot path would fix it (rebuild,
        drop, quarantine, re-index).  Returns ``{"findings": [...],
        "repaired": N}``; an empty findings list means clean.
        """
        findings: List[str] = []
        repaired = 0
        try:
            records = self._read_manifest(heal=False)
        except ArtifactError as error:
            findings.append(f"manifest: {error}")
            if not repair:
                return {"findings": findings, "repaired": repaired}
            records = self.rebuild_manifest()
            METRICS.count("store.manifest_rebuilt")
            repaired += 1
        indexed = set()
        for key, record in sorted(records.items()):
            path = self.root / record.file
            indexed.add(record.file)
            try:
                text = path.read_text()
            except FileNotFoundError:
                findings.append(
                    f"entry {key}: missing artefact file {record.file}"
                )
                if repair:
                    self._drop_record(key)
                    repaired += 1
                continue
            if record.sha256 and _sha256(text) != record.sha256:
                findings.append(f"entry {key}: checksum mismatch")
                if repair:
                    self._quarantine(key, record)
                    repaired += 1
                continue
            try:
                RunResult.from_json(text)
            except SpecError as error:
                findings.append(f"entry {key}: unparseable ({error})")
                if repair:
                    self._quarantine(key, record)
                    repaired += 1
        for path in sorted(self.root.glob("*.json")):
            if path.name == MANIFEST_NAME or path.name in indexed:
                continue
            findings.append(f"unindexed artefact file {path.name}")
            if repair:
                try:
                    text = path.read_text()
                    result = RunResult.from_json(text)
                except (OSError, SpecError):
                    continue  # unparseable strays stay for inspection
                with self._manifest_lock():
                    live = self._read_manifest(locked=True)
                    record = ArtifactRecord.from_result(
                        result, path.name, sha256=_sha256(text)
                    )
                    record.key = path.stem
                    live[path.stem] = record
                    self._write_manifest(live)
                repaired += 1
        return {"findings": findings, "repaired": repaired}

    # ------------------------------------------------------------------
    # Regression diffing
    # ------------------------------------------------------------------
    def diff(
        self, old: RunResult, new: RunResult, rel_tol: float = 0.25
    ) -> List[str]:
        """Regression-diff two runs; see :func:`diff_results`."""
        return diff_results(old, new, rel_tol=rel_tol)
