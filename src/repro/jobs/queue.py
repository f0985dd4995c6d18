"""Persistent on-disk job queue with atomic claims.

Layout (everything under one service root, safe to ``rm -rf`` when
idle)::

    root/
      queued/<job>.json        eligible for claiming (FIFO by submit time)
      claimed/<job>.json       owned by a worker (states claimed|running)
      done|failed|quarantined|cancelled|coalesced/<job>.json
      heartbeats/<job>.json    worker liveness + progress counters
      keys/<hash>.json         dedup markers (see repro.jobs.dedup)
      corrupt/<job>.json       unparseable records set aside by recover()
      store/                   ArtifactStore the results land in
      logs/                    worker stdout/stderr (orchestrator-spawned)
      submit.lock              FileLock serialising submissions
      STOP                     cooperative shutdown request

The concurrency design is rename-based: *moving a record between state
directories is the transaction*.  ``os.rename`` on one filesystem is
atomic, so when several workers race to claim a job exactly one rename
succeeds and the losers get ``FileNotFoundError`` and move on — no lock
is held while claiming or completing.  The only locked section is
submission, where the dedup check-then-register must be indivisible.

Metric counters (``jobs.submitted`` / ``jobs.deduped`` /
``jobs.retried`` / ``jobs.failed`` / ``jobs.completed`` /
``jobs.quarantined``) land in the process-wide
:data:`~repro.obs.metrics.METRICS` registry of whichever process
performed the transition; :meth:`JobQueue.stats` derives the same
totals from the records themselves, which is what the CLI reports —
record-derived numbers survive process boundaries.
"""

from __future__ import annotations

import json
import os
import socket
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

from repro.api.spec import RunSpec
from repro.api.store import ArtifactStore
from repro.exceptions import JobError
from repro.faults import injector as _faults
from repro.jobs.dedup import DedupIndex
from repro.jobs.model import (
    CANCELLED,
    CLAIMED,
    COALESCED,
    DEFAULT_MAX_RETRIES,
    DONE,
    FAILED,
    QUARANTINED,
    QUEUED,
    RUNNING,
    Job,
    backoff_seconds,
)
from repro.locks import FileLock, atomic_write_text, read_text
from repro.obs.metrics import METRICS

#: state -> directory name.  ``running`` keeps living in ``claimed/``:
#: the claim rename grants ownership, the running flag is bookkeeping.
STATE_DIRS = {
    QUEUED: "queued",
    CLAIMED: "claimed",
    RUNNING: "claimed",
    DONE: "done",
    FAILED: "failed",
    QUARANTINED: "quarantined",
    CANCELLED: "cancelled",
    COALESCED: "coalesced",
}
_DIR_NAMES = ("queued", "claimed", "done", "failed", "quarantined",
              "cancelled", "coalesced")
#: directory name -> canonical state for records found there.  The
#: directory is the transaction, so on recovery the directory wins over
#: whatever state a half-updated payload claims.
_DIR_STATES = {
    "queued": QUEUED,
    "claimed": CLAIMED,
    "done": DONE,
    "failed": FAILED,
    "quarantined": QUARANTINED,
    "cancelled": CANCELLED,
    "coalesced": COALESCED,
}
#: unparseable records are moved here (never deleted) by recovery/fsck.
CORRUPT_DIR = "corrupt"
STOP_NAME = "STOP"


class JobQueue:
    """Directory-backed queue of :class:`~repro.jobs.model.Job`\\ s."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.dedup = DedupIndex(self.root / "keys")

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    def ensure_layout(self) -> None:
        for name in _DIR_NAMES + ("heartbeats", "keys", "logs"):
            (self.root / name).mkdir(parents=True, exist_ok=True)

    def _dir(self, state: str) -> Path:
        return self.root / STATE_DIRS[state]

    def _path(self, job: Job) -> Path:
        return self._dir(job.state) / f"{job.id}.json"

    @property
    def store(self) -> ArtifactStore:
        """The artefact store results are fanned out through."""
        return ArtifactStore(self.root / "store")

    # ------------------------------------------------------------------
    # Submission (the one locked section: dedup must be indivisible)
    # ------------------------------------------------------------------
    def submit(
        self, spec: RunSpec, max_retries: int = DEFAULT_MAX_RETRIES
    ) -> Job:
        """Enqueue ``spec``; returns the new job record.

        A submission whose ``spec.key()`` matches a still-active job
        coalesces into it instead of enqueueing (state ``coalesced``,
        counted as ``jobs.deduped``).
        """
        self.ensure_layout()
        job = Job(spec=spec, max_retries=max_retries)
        with FileLock(self.root / "submit.lock"):
            primary = self.dedup.active_primary(job.key, self._is_active)
            if primary is not None:
                job.state = COALESCED
                job.coalesced_into = primary
                self._write(job)
                METRICS.count("jobs.submitted")
                METRICS.count("jobs.deduped")
                return job
            self._write(job)
            self.dedup.register(job.key, job.id)
        METRICS.count("jobs.submitted")
        return job

    def _is_active(self, job_id: str) -> bool:
        try:
            return self.get(job_id).active
        except JobError:
            return False

    # ------------------------------------------------------------------
    # Claiming (lock-free: the rename is the transaction)
    # ------------------------------------------------------------------
    def claim(self, worker_pid: int | None = None) -> Optional[Job]:
        """Atomically take ownership of the oldest eligible queued job.

        Returns ``None`` when nothing is claimable (empty queue, or all
        queued jobs still inside their retry backoff window).
        """
        now = time.time()
        candidates: List[Job] = []
        for job in self._read_dir("queued"):
            if job.not_before <= now:
                candidates.append(job)
        candidates.sort(key=lambda j: (j.submitted_at, j.id))
        pid = os.getpid() if worker_pid is None else worker_pid
        for job in candidates:
            source = self._dir(QUEUED) / f"{job.id}.json"
            target = self._dir(CLAIMED) / f"{job.id}.json"
            _faults.on_replace("queue.claim", target, op_start=True)
            try:
                os.rename(source, target)
            except FileNotFoundError:
                continue  # another worker won this one
            _faults.on_published("queue.claim", target)
            job.state = CLAIMED
            job.claimed_at = time.time()
            job.worker_pid = pid
            job.worker_host = socket.gethostname()
            self._write(job)
            self.write_heartbeat(job)
            return job
        return None

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def update(self, job: Job) -> None:
        """Rewrite ``job``'s record in place (no state-directory move)."""
        self._write(job)

    def transition(self, job: Job, state: str, *, error: str | None = None,
                   ) -> Job:
        """Move ``job`` from its current state directory to ``state``'s.

        Raises :class:`JobError` if the job is no longer where the
        caller believes it is — e.g. a worker finishing a job the
        orchestrator already requeued to a new owner.  Terminal
        transitions release the dedup marker and drop the heartbeat.
        """
        source = self._path(job)
        job_after = Job.from_payload(job.to_payload())
        job_after.state = state
        if error is not None:
            job_after.error = error
        if state in (DONE, FAILED, QUARANTINED, CANCELLED):
            job_after.finished_at = time.time()
        target = self._path(job_after)
        if source != target:
            _faults.on_replace("queue.transition", target, op_start=True)
            try:
                os.rename(source, target)
            except FileNotFoundError:
                raise JobError(
                    f"job {job.id} is no longer {job.state} (lost ownership)"
                ) from None
            _faults.on_published("queue.transition", target)
        self._write(job_after)
        if job_after.terminal:
            self.dedup.release(job_after.key, job_after.id)
            self._drop_heartbeat(job_after.id)
        return job_after

    def requeue(self, job: Job, reason: str) -> Job:
        """Return a claimed/running job to the queue with backoff.

        Used by the orchestrator's dead-worker sweep.  After
        ``max_retries`` requeues the job is quarantined instead
        (poison-job protection).  Counts ``jobs.retried`` or
        ``jobs.quarantined``.
        """
        if job.attempts + 1 > job.max_retries:
            quarantined = self.transition(job, QUARANTINED, error=reason)
            METRICS.count("jobs.quarantined")
            return quarantined
        source = self._path(job)
        job_after = Job.from_payload(job.to_payload())
        job_after.attempts += 1
        job_after.state = QUEUED
        job_after.claimed_at = None
        job_after.worker_pid = None
        job_after.worker_host = None
        job_after.error = reason
        job_after.not_before = time.time() + backoff_seconds(
            job_after.attempts, job_id=job_after.id
        )
        target = self._path(job_after)
        _faults.on_replace("queue.requeue", target, op_start=True)
        try:
            os.rename(source, target)
        except FileNotFoundError:
            raise JobError(
                f"job {job.id} is no longer {job.state} (lost ownership)"
            ) from None
        _faults.on_published("queue.requeue", target)
        self._write(job_after)
        self._drop_heartbeat(job_after.id)
        METRICS.count("jobs.retried")
        return job_after

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued or coalesced job (running work is not torn
        down — cancel the queue entry before a worker claims it)."""
        job = self.get(job_id)
        if job.state not in (QUEUED, COALESCED):
            raise JobError(
                f"only queued/coalesced jobs can be cancelled; "
                f"{job_id} is {job.state}"
            )
        return self.transition(job, CANCELLED, error="cancelled")

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Job:
        for name in _DIR_NAMES:
            path = self.root / name / f"{job_id}.json"
            try:
                return Job.from_json(read_text(path, site="queue.record"))
            except FileNotFoundError:
                continue
        raise JobError(f"no job {job_id!r} under {self.root}")

    def resolve(self, job: Job) -> Job:
        """Follow a coalesced job to the primary doing its work.

        A coalesced job whose primary vanished (e.g. its record was
        pruned) is reported as-is; callers treat that as failed.
        """
        seen = set()
        while job.state == COALESCED and job.coalesced_into:
            if job.id in seen:  # defensive: cyclic records
                break
            seen.add(job.id)
            try:
                job = self.get(job.coalesced_into)
            except JobError:
                break
        return job

    def jobs(self, states: Iterable[str] | None = None) -> List[Job]:
        """All job records, oldest first (optionally filtered by state)."""
        wanted = set(states) if states is not None else None
        records = [
            job
            for name in _DIR_NAMES
            for job in self._read_dir(name)
            if wanted is None or job.state in wanted
        ]
        records.sort(key=lambda j: (j.submitted_at, j.id))
        return records

    def idle(self) -> bool:
        """True when no job is queued, claimed or running."""
        return not any(
            self._read_dir(name) for name in ("queued", "claimed")
        )

    def stats(self) -> Dict[str, Any]:
        """Service totals derived from the records (cross-process)."""
        jobs = self.jobs()
        by_state: Dict[str, int] = {}
        for job in jobs:
            by_state[job.state] = by_state.get(job.state, 0) + 1
        return {
            "jobs": len(jobs),
            "states": by_state,
            "submitted": len(jobs),
            "deduped": by_state.get(COALESCED, 0),
            "retried": sum(job.attempts for job in jobs),
            "failed": by_state.get(FAILED, 0),
            "quarantined": by_state.get(QUARANTINED, 0),
            "done": by_state.get(DONE, 0),
        }

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def recover(
        self, grace_s: float = 5.0, lock_grace_s: float | None = None
    ) -> Dict[str, int]:
        """Repair the on-disk state after crashes; returns what it fixed.

        Run at serve-start (and by ``repro fsck --repair``).  Every
        rename in this queue is atomic, so a crash can only leave four
        kinds of debris, each detected by an invariant and repaired:

        * **Orphaned temp files** — an ``atomic_write_text`` that died
          before its publishing rename.  Reaped.
        * **Half-renamed records** — a state rename published but the
          process died before rewriting the payload, so the record's
          ``state`` field disagrees with its directory.  The directory
          *is* the transaction, so the directory wins: a record found
          in ``claimed/`` claiming to be queued is un-claimed back to
          ``queued/`` (its claimer died mid-claim); a record in a
          terminal directory with an active payload gets its payload
          finalised and its dedup marker/heartbeat released.
        * **Unparseable records** — torn by a pre-atomic writer or
          corrupted by the medium.  Moved to ``corrupt/`` (never
          deleted) so a human can inspect them.
        * **Dangling bookkeeping** — dedup markers whose primary job is
          gone or finished, heartbeats for jobs no longer claimed,
          abandoned submit locks.  Garbage-collected.

        ``grace_s`` protects live activity: only files at least that
        old are touched, so ``recover`` is safe to run while workers
        are active.  ``lock_grace_s`` (default: the FileLock staleness
        threshold) bounds lock-file age separately.
        """
        self.ensure_layout()
        now = time.time()
        report = {
            "orphan_tmps": 0,
            "rehomed": 0,
            "corrupt_records": 0,
            "stale_markers": 0,
            "orphan_heartbeats": 0,
            "stale_locks": 0,
        }

        def _old(path: Path) -> bool:
            try:
                return now - path.stat().st_mtime >= grace_s
            except OSError:
                return False

        # Orphaned temp files (and abandoned lock-break asides).
        sweep_dirs = [self.root] + [
            self.root / name
            for name in _DIR_NAMES + ("heartbeats", "keys")
        ]
        for directory in sweep_dirs:
            for pattern in (".*.tmp", "*.stale.*"):
                for debris in directory.glob(pattern):
                    if debris.is_file() and _old(debris):
                        debris.unlink(missing_ok=True)
                        report["orphan_tmps"] += 1

        # Records: corrupt aside, half-renamed re-homed.
        corrupt_dir = self.root / CORRUPT_DIR
        for name in _DIR_NAMES:
            directory = self.root / name
            for path in sorted(directory.glob("*.json")):
                if not _old(path):
                    continue
                try:
                    job = Job.from_json(path.read_text())
                except (FileNotFoundError, JobError):
                    if path.exists():
                        corrupt_dir.mkdir(parents=True, exist_ok=True)
                        os.replace(path, corrupt_dir / path.name)
                        report["corrupt_records"] += 1
                    continue
                if STATE_DIRS[job.state] != name:
                    if self._rehome(job, name):
                        report["rehomed"] += 1

        # Dedup markers whose primary is gone or inactive.
        for marker, payload in self.dedup.markers():
            if not _old(marker):
                continue
            primary = str(payload.get("job") or "") if payload else ""
            if not primary or not self._is_active(primary):
                marker.unlink(missing_ok=True)
                report["stale_markers"] += 1

        # Heartbeats for jobs that are no longer claimed/running.
        claimed_ids = {
            path.stem for path in (self.root / "claimed").glob("*.json")
        }
        for heartbeat in (self.root / "heartbeats").glob("*.json"):
            if heartbeat.stem not in claimed_ids and _old(heartbeat):
                heartbeat.unlink(missing_ok=True)
                report["orphan_heartbeats"] += 1

        # Abandoned locks (a holder that died keeps everyone waiting
        # until staleness; recovery breaks them eagerly and atomically).
        lock_grace = 30.0 if lock_grace_s is None else lock_grace_s
        for lock_path in (self.root / "submit.lock",
                          self.root / "store" / "manifest.json.lock"):
            if not lock_path.exists():
                continue
            FileLock(lock_path, stale_after=lock_grace)._break_if_stale()
            if not lock_path.exists():
                report["stale_locks"] += 1

        METRICS.count("queue.recovered_orphans", report["orphan_tmps"])
        for key in ("rehomed", "corrupt_records", "stale_markers",
                    "orphan_heartbeats", "stale_locks"):
            if report[key]:
                METRICS.count(f"queue.recovered_{key}", report[key])
        return report

    def _rehome(self, job: Job, dir_name: str) -> bool:
        """Make ``job``'s payload agree with the directory it lives in."""
        path = self.root / dir_name / f"{job.id}.json"
        if dir_name == "claimed" and job.state == QUEUED:
            # Claim rename published, claimer died before the rewrite:
            # nobody owns this job, so un-claim it.
            target = self.root / "queued" / f"{job.id}.json"
            try:
                os.rename(path, target)
            except FileNotFoundError:
                return False
            job.claimed_at = None
            job.worker_pid = None
            job.worker_host = None
            atomic_write_text(target, job.to_json(), site="queue.record")
            return True
        job.state = _DIR_STATES[dir_name]
        if dir_name == "queued":
            job.claimed_at = None
            job.worker_pid = None
            job.worker_host = None
        if job.terminal and job.finished_at is None:
            job.finished_at = time.time()
        try:
            atomic_write_text(path, job.to_json(), site="queue.record")
        except FileNotFoundError:
            return False
        if job.terminal:
            self.dedup.release(job.key, job.id)
            self._drop_heartbeat(job.id)
        return True

    # ------------------------------------------------------------------
    # Heartbeats (worker liveness + streamed progress)
    # ------------------------------------------------------------------
    def heartbeat_path(self, job_id: str) -> Path:
        return self.root / "heartbeats" / f"{job_id}.json"

    def write_heartbeat(
        self, job: Job, counters: Dict[str, float] | None = None
    ) -> None:
        payload = {
            "job": job.id,
            "pid": _faults.heartbeat_pid("queue.heartbeat", job.worker_pid),
            "host": job.worker_host or socket.gethostname(),
            "state": job.state,
            "t": _faults.heartbeat_time("queue.heartbeat", time.time()),
            "counters": dict(counters or {}),
        }
        atomic_write_text(
            self.heartbeat_path(job.id),
            json.dumps(payload),
            site="queue.heartbeat",
        )

    def read_heartbeat(self, job_id: str) -> Optional[Dict[str, Any]]:
        try:
            return json.loads(
                read_text(self.heartbeat_path(job_id), site="queue.heartbeat")
            )
        except (FileNotFoundError, json.JSONDecodeError):
            return None

    def _drop_heartbeat(self, job_id: str) -> None:
        try:
            self.heartbeat_path(job_id).unlink()
        except FileNotFoundError:
            pass

    # ------------------------------------------------------------------
    # Cooperative shutdown
    # ------------------------------------------------------------------
    @property
    def stop_path(self) -> Path:
        return self.root / STOP_NAME

    def request_stop(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        self.stop_path.touch()

    def stop_requested(self) -> bool:
        return self.stop_path.exists()

    def clear_stop(self) -> None:
        try:
            self.stop_path.unlink()
        except FileNotFoundError:
            pass

    # ------------------------------------------------------------------
    # Record IO
    # ------------------------------------------------------------------
    def _write(self, job: Job) -> None:
        atomic_write_text(self._path(job), job.to_json(), site="queue.record")

    def _read_dir(self, name: str) -> List[Job]:
        directory = self.root / name
        jobs: List[Job] = []
        try:
            entries = sorted(os.listdir(directory))
        except FileNotFoundError:
            return jobs
        for entry in entries:
            if not entry.endswith(".json"):
                continue
            try:
                jobs.append(
                    Job.from_json(
                        read_text(directory / entry, site="queue.record")
                    )
                )
            except (FileNotFoundError, JobError):
                continue  # claimed away mid-listing, or torn legacy file
        return jobs
