"""Process-wide counters, gauges, and peak-hold high-water gauges.

The single :data:`METRICS` registry is always on: increments are one
dict operation, cheap enough for per-block (never per-round) call sites,
and the cache layer's hits/misses accumulate for the whole process —
which is exactly what ``repro cache stats`` reports.  Run-scoped
telemetry takes a :meth:`~MetricRegistry.snapshot` before executing and
a :meth:`~MetricRegistry.delta` after, so concurrent bookkeeping from
other runs in the same process never leaks into a run's counters.  Each
snapshot also opens a high-water frame that records every gauge and
peak written after it, so a run's delta reports its own peaks and
gauges, not the process's.

Conventions
-----------
* **Counters** accumulate monotonically: ``engine.replica_steps``,
  ``engine.rng_blocks``, ``engine.blocks.<kernel>`` (dispatches by
  kernel name), ``engine.kernel_fallback``, ``engine.snapshot_switches``,
  ``cache.hits`` / ``cache.misses`` / ``cache.bytes_read`` /
  ``cache.bytes_written``, ``api.memo_hits``
  (``execute_many`` duplicates served without an engine run), and the
  job service's ``jobs.submitted`` / ``jobs.deduped`` /
  ``jobs.retried`` / ``jobs.failed`` / ``jobs.completed`` /
  ``jobs.quarantined`` / ``jobs.lost_ownership`` /
  ``jobs.deadline_kills`` (watchdog-abandoned executions) — counted in
  whichever process performed the transition; cross-process totals come
  from :meth:`repro.jobs.queue.JobQueue.stats`.  Reliability counters
  (DESIGN.md section 11) make degradation visible instead of silent:
  ``faults.injected`` (fired fault-plan rules),
  ``store.quarantined`` / ``store.manifest_rebuilt`` (artefact-store
  corruption handling), ``cache.quarantined`` / ``cache.enospc_skips``
  (engine-cache corruption and disk-full no-ops),
  ``locks.stale_broken`` (atomically broken abandoned locks),
  ``queue.recovered_orphans`` and the other ``queue.recovered_*``
  counters (:meth:`repro.jobs.queue.JobQueue.recover` repairs), and
  ``fsck.findings`` / ``fsck.repairs`` (``repro fsck``).
* **Gauges** hold the latest value: ``engine.shard_seconds`` (the most
  recent shard's wall time; per-shard detail lives in spans).
* **Peaks** hold the high-water mark: ``engine.state_peak_bytes`` — the
  estimated peak footprint of live ``(B, n)`` / ``(B, n, r)`` state,
  the adaptive-governor input named in the ROADMAP — and
  ``engine.plan_peak_bytes``, the block plan memory held: a
  NumPy-planned block's index, weight and coin arrays
  (``BlockPlan.nbytes``, set once per block), or, on the jit kernel's
  one-call path, the batch's reused decoded-index, coin and weight
  buffers (``BlockStepper.nbytes``, set whenever they grow; that path
  holds no uniform buffer, since the C loop draws from the bit stream).
"""

from __future__ import annotations

import threading
import weakref
from typing import Any, Dict, Mapping


class _Frame:
    """Gauges and peaks written since one :meth:`MetricRegistry.snapshot`.

    The snapshot dict holds the only strong reference; the registry
    tracks frames weakly, so a dropped baseline stops costing writes.
    """

    __slots__ = ("gauges", "peaks", "__weakref__")

    def __init__(self) -> None:
        self.gauges: Dict[str, float] = {}
        self.peaks: Dict[str, float] = {}


class MetricRegistry:
    """Thread-safe named counters, gauges and peak-hold gauges."""

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._peaks: Dict[str, float] = {}
        self._frames: "weakref.WeakSet[_Frame]" = weakref.WeakSet()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Writers
    # ------------------------------------------------------------------
    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the counter ``name`` (created at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = value
            for frame in self._frames:
                frame.gauges[name] = value

    def peak(self, name: str, value: float) -> None:
        """Raise the peak-hold gauge ``name`` to ``value`` if higher."""
        with self._lock:
            if value > self._peaks.get(name, float("-inf")):
                self._peaks[name] = value
            for frame in self._frames:
                if value > frame.peaks.get(name, float("-inf")):
                    frame.peaks[name] = value

    # ------------------------------------------------------------------
    # Readers
    # ------------------------------------------------------------------
    def value(self, name: str) -> float:
        """Current counter value (0 when never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> dict:
        """Frozen copy of every metric, suitable for :meth:`delta`.

        Also opens a high-water frame (under ``"frame"``) that lives as
        long as the returned dict.
        """
        frame = _Frame()
        with self._lock:
            self._frames.add(frame)
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "peaks": dict(self._peaks),
                "frame": frame,
            }

    def delta(self, baseline: Mapping[str, Any]) -> dict:
        """Metrics attributable to work since ``baseline``.

        Counters subtract the baseline (zero-delta entries dropped);
        gauges and peaks are those written since the baseline's
        high-water frame opened — a peak is a high-water mark, not a
        flow, so it is scoped rather than differenced.
        """
        base = baseline["counters"]
        frame = baseline["frame"]
        with self._lock:
            counters = {
                name: value - base.get(name, 0)
                for name, value in self._counters.items()
                if value != base.get(name, 0)
            }
            return {
                "counters": counters,
                "gauges": dict(frame.gauges),
                "peaks": dict(frame.peaks),
            }

    def reset(self) -> None:
        """Zero everything (test isolation; production never resets)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._peaks.clear()


#: The process-wide registry every instrumented module reports to.
METRICS = MetricRegistry()
