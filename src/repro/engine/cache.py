"""On-disk memoisation of batch-engine Monte-Carlo results.

Sweeps re-run the same ``(model, graph, alpha, k, seed, tolerance)``
points whenever a notebook restarts or a parameter grid is extended.
:class:`ResultCache` stores each finished sample array under a key
derived from the :meth:`~repro.engine.driver.EngineSpec.cache_token`
(which hashes the graph structure and initial vector) plus the sampler
parameters and the integer seed, so repeated sweeps resume for free.

Only deterministic seeds are cached: with ``seed=None`` (OS entropy) or
a live ``Generator`` whose position is unknowable, ``load`` and
``store`` silently no-op rather than serve a wrong answer.

Key audit (what can and cannot alias)
-------------------------------------
The spec token carries the RNG *stream class*, not the kernel name:
``fused`` and ``jit`` are bit-identical and share one key, which
``kernel="auto"`` (always one of the two) shares as well; ``numpy``
(legacy layout) keys separately.

Entries are crash-consistent: the sidecar records the sha256 of the
array file's bytes, ``load`` verifies it and quarantines mismatches
(``quarantine/``, counted as ``cache.quarantined``) as a miss — the
engine recomputes rather than consuming a torn or bit-rotted array.
``ENOSPC`` on write degrades to a counted no-op
(``cache.enospc_skips``): the cache is an accelerator, never a
durability dependency.
"""

from __future__ import annotations

import errno
import hashlib
import io
import json
import os
import tempfile
import time
import warnings
from pathlib import Path
from typing import Optional

import numpy as np

from repro.faults import injector as _faults
from repro.locks import atomic_write_text
from repro.obs.metrics import METRICS

#: Bump when the engine's sampling law changes; invalidates old entries.
_CACHE_VERSION = 1

#: corrupt entries are moved here (never deleted) for inspection.
QUARANTINE_DIR = "quarantine"


def _seed_token(seed) -> Optional[str]:
    """Stable text for a deterministic seed, or ``None`` if uncacheable."""
    if isinstance(seed, (int, np.integer)):
        return f"int:{int(seed)}"
    if isinstance(seed, np.random.SeedSequence):
        if seed.spawn_key == () and isinstance(seed.entropy, int):
            return f"ss:{seed.entropy}"
    return None


class ResultCache:
    """Content-addressed store of finished sample arrays.

    Entries are ``.npy`` files named by a SHA-256 key; a JSON sidecar
    records the human-readable key material for debugging.  Writes go
    through a temp file + ``os.replace`` so concurrent shard workers or
    parallel sweeps never observe a half-written entry.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _key(self, spec, params: str, seed_token: str) -> str:
        material = f"v{_CACHE_VERSION}|{spec.cache_token()}|{params}|{seed_token}"
        return hashlib.sha256(material.encode()).hexdigest()

    def _paths(self, key: str) -> tuple[Path, Path]:
        return self.directory / f"{key}.npy", self.directory / f"{key}.json"

    def load(self, spec, params: str, seed) -> Optional[np.ndarray]:
        """Return the memoised array, or ``None`` on miss / uncacheable seed.

        Hits and misses feed the process-wide ``cache.*`` counters (an
        uncacheable seed counts as neither — the cache was never asked a
        answerable question).
        """
        token = _seed_token(seed)
        if token is None:
            return None
        path, meta_path = self._paths(self._key(spec, params, token))
        if not path.exists():
            METRICS.count("cache.misses")
            return None
        try:
            blob = _faults.on_read("cache.npy", path, path.read_bytes())
        except OSError:
            METRICS.count("cache.misses")
            return None
        expected = self._meta_sha(meta_path)
        if expected is not None and (
            hashlib.sha256(blob).hexdigest() != expected
        ):
            # Torn write or bit rot: the bytes are not what we stored.
            self._quarantine(path, meta_path)
            METRICS.count("cache.misses")
            return None
        try:
            array = np.load(io.BytesIO(blob))
        except (OSError, ValueError):
            # Unparseable without a checksum to blame (legacy entry):
            # same treatment, quarantine and recompute.
            self._quarantine(path, meta_path)
            METRICS.count("cache.misses")
            return None
        METRICS.count("cache.hits")
        METRICS.count("cache.bytes_read", array.nbytes)
        return array

    def _meta_sha(self, meta_path: Path) -> Optional[str]:
        """The sidecar's recorded checksum, or ``None`` when absent.

        Sidecars predating checksumming (or torn ones) yield ``None``:
        the entry then only has ``np.load`` parseability vouching for
        it, exactly the pre-checksum behaviour.
        """
        try:
            meta = json.loads(
                _faults.on_read(
                    "cache.meta", meta_path, meta_path.read_text()
                )
            )
        except (OSError, json.JSONDecodeError):
            return None
        digest = meta.get("sha256")
        return str(digest) if digest else None

    def _quarantine(self, path: Path, meta_path: Path) -> None:
        """Move a corrupt entry (array + sidecar) aside, never delete."""
        quarantine = self.directory / QUARANTINE_DIR
        quarantine.mkdir(parents=True, exist_ok=True)
        for victim in (path, meta_path):
            try:
                os.replace(victim, quarantine / victim.name)
            except FileNotFoundError:
                pass
        METRICS.count("cache.quarantined")

    def store(self, spec, params: str, seed, array: np.ndarray) -> bool:
        """Persist ``array``; returns whether anything was written.

        A full disk never fails the computation that produced the
        array: ``ENOSPC`` turns the write into a counted no-op
        (``cache.enospc_skips`` plus a warning) and returns ``False`` —
        the cache is an accelerator, not a durability requirement.
        """
        token = _seed_token(seed)
        if token is None:
            return False
        key = self._key(spec, params, token)
        path, meta_path = self._paths(key)
        blob_io = io.BytesIO()
        np.save(blob_io, np.asarray(array))
        blob = blob_io.getvalue()
        digest = hashlib.sha256(blob).hexdigest()
        tmp = None
        try:
            payload = _faults.on_write("cache.npy", path, blob)
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".npy.tmp")
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            _faults.on_replace("cache.npy", path)
            os.replace(tmp, path)
            _faults.on_published("cache.npy", path)
            meta_text = json.dumps(
                {
                    "version": _CACHE_VERSION,
                    "spec": spec.cache_token(),
                    "params": params,
                    "seed": token,
                    "count": int(np.asarray(array).shape[0]),
                    "sha256": digest,
                },
                indent=2,
            )
            atomic_write_text(meta_path, meta_text, site="cache.meta")
        except OSError as error:
            if tmp is not None and os.path.exists(tmp):
                os.unlink(tmp)
            if error.errno == errno.ENOSPC:
                METRICS.count("cache.enospc_skips")
                warnings.warn(
                    f"cache write skipped, disk full: {path}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return False
            raise
        except BaseException:
            # A *simulated* crash cleans nothing up — a real dead
            # process would not either; recovery reaps the debris.
            if (
                not _faults.crashed()
                and tmp is not None
                and os.path.exists(tmp)
            ):
                os.unlink(tmp)
            raise
        METRICS.count("cache.bytes_written", np.asarray(array).nbytes)
        return True

    def verify(self, repair: bool = False, grace_s: float = 60.0) -> dict:
        """Integrity pass for ``repro fsck``: checksums, strays, temps.

        Reports (and with ``repair=True`` fixes) orphaned temp files
        older than ``grace_s`` (reaped), checksum mismatches and
        unparseable arrays (quarantined).  Returns ``{"findings":
        [...], "repaired": N}``.
        """
        findings = []
        repaired = 0
        now = time.time()
        for tmp in sorted(self.directory.glob("*.tmp")):
            try:
                if now - tmp.stat().st_mtime < grace_s:
                    continue  # possibly a live writer's in-flight temp
            except OSError:
                continue
            findings.append(f"orphan temp file {tmp.name}")
            if repair:
                tmp.unlink(missing_ok=True)
                repaired += 1
        for path in sorted(self.directory.glob("*.npy")):
            meta_path = path.with_suffix(".json")
            try:
                blob = path.read_bytes()
            except OSError:
                continue
            expected = self._meta_sha(meta_path)
            if expected is not None and (
                hashlib.sha256(blob).hexdigest() != expected
            ):
                findings.append(f"entry {path.stem[:12]}: checksum mismatch")
            else:
                try:
                    np.load(io.BytesIO(blob))
                    continue
                except (OSError, ValueError):
                    findings.append(
                        f"entry {path.stem[:12]}: unparseable array"
                    )
            if repair:
                self._quarantine(path, meta_path)
                repaired += 1
        return {"findings": findings, "repaired": repaired}

    def stats(self) -> dict:
        """Directory contents plus this process's hit/miss counters.

        ``entries``/``total_bytes`` are read from disk (they include
        entries written by other processes); hits, misses and byte flows
        come from the process-wide registry — "since process start", the
        contract ``repro cache stats`` documents.
        """
        entries = 0
        total_bytes = 0
        for path in self.directory.glob("*.npy"):
            try:
                total_bytes += path.stat().st_size
            except OSError:  # racing a concurrent clear()
                continue
            entries += 1
        return {
            "directory": str(self.directory),
            "entries": entries,
            "total_bytes": total_bytes,
            "hits": int(METRICS.value("cache.hits")),
            "misses": int(METRICS.value("cache.misses")),
            "bytes_read": int(METRICS.value("cache.bytes_read")),
            "bytes_written": int(METRICS.value("cache.bytes_written")),
        }

    def clear(self, older_than_seconds: Optional[float] = None) -> int:
        """Delete entries; returns the number of arrays removed.

        With ``older_than_seconds`` only entries whose ``.npy`` mtime is
        older than that age are evicted — and the array is always
        removed *before* its sidecar, so a crash mid-eviction leaves an
        orphan sidecar (harmless: lookups key on the ``.npy``) rather
        than a sidecar-less array that debugging tools cannot explain.
        """
        cutoff = (
            None
            if older_than_seconds is None
            else time.time() - older_than_seconds
        )
        removed = 0
        for path in self.directory.glob("*.npy"):
            if cutoff is not None:
                try:
                    if path.stat().st_mtime >= cutoff:
                        continue
                except OSError:  # already gone
                    continue
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
            path.with_suffix(".json").unlink(missing_ok=True)
        METRICS.count("cache.evictions", removed)
        return removed
