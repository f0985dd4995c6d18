"""Hierarchical span tracing with a near-free off state.

A :class:`Span` is one timed region of work (name, monotonic start,
duration, attributes, children); a :class:`Tracer` collects a forest of
them.  Engine code never takes a tracer parameter: it asks for the
process-wide *active* tracer (:func:`active_tracer`) and opens spans on
it, so the whole stack — driver, kernels, cache, dual engine — lights up
the moment :func:`activate` installs an enabled tracer and costs almost
nothing otherwise.

Off-state contract
------------------
The default active tracer is the shared :attr:`Tracer.disabled`
singleton.  Its :meth:`Tracer.span` returns one reusable no-op context
manager after a single ``self.enabled`` attribute check, and hot loops
may hoist even that check (``if tracer.enabled: ...``).  Instrumentation
must therefore never touch RNG state or values: golden trajectory
hashes are bit-identical with tracing on and off (asserted in
``tests/test_golden.py``), and the disabled overhead on the fused hot
loop stays under 2% (asserted in ``tests/test_obs.py``).

Clocks are ``time.perf_counter`` (monotonic); span starts are stored
relative to the tracer's creation so traces from different processes
can be merged by shifting their roots (see
:meth:`Span.shifted`, used by the multiprocessing driver).

Timers (:meth:`Tracer.add_time`) accumulate seconds per name for work
too fine-grained for spans — the engine's per-block plan, execute,
detect and resync times.  They live on the tracer, not in the metric registry, so a
traced run's counters stay identical to an untraced run's.

Thread safety: each thread keeps its own open-span stack; finished root
spans append to the shared forest under a lock.  A ``max_spans`` budget
bounds memory on pathological workloads — further spans still time
their region but are dropped from the forest, counted in
:attr:`Tracer.dropped`.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional

from repro.obs.stream import StreamSet


class Span:
    """One timed region: name, relative start, duration, attrs, children."""

    __slots__ = ("name", "start", "duration", "attrs", "children")

    def __init__(
        self,
        name: str,
        start: float,
        duration: float = 0.0,
        attrs: Optional[Dict[str, Any]] = None,
        children: Optional[List["Span"]] = None,
    ) -> None:
        self.name = name
        self.start = start
        self.duration = duration
        self.attrs = attrs or {}
        self.children = children if children is not None else []

    @property
    def self_time(self) -> float:
        """Duration minus the time spent in direct children."""
        return max(self.duration - sum(c.duration for c in self.children), 0.0)

    def walk(self, depth: int = 0) -> Iterator[tuple["Span", int]]:
        """Yield ``(span, depth)`` over the subtree, pre-order."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)

    def depth(self) -> int:
        """Nesting levels of the subtree (a leaf has depth 1)."""
        return 1 + max((c.depth() for c in self.children), default=0)

    def shifted(self, offset: float) -> "Span":
        """A copy with every start time shifted by ``offset`` seconds.

        Used when merging a worker process's trace (whose clock starts
        at its own tracer creation) under the parent's shard span.
        """
        return Span(
            self.name,
            self.start + offset,
            self.duration,
            dict(self.attrs),
            [c.shifted(offset) for c in self.children],
        )

    def to_payload(self) -> dict:
        payload: Dict[str, Any] = {
            "name": self.name,
            "start_s": self.start,
            "duration_s": self.duration,
        }
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        if self.children:
            payload["children"] = [c.to_payload() for c in self.children]
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "Span":
        return cls(
            name=str(payload["name"]),
            start=float(payload["start_s"]),
            duration=float(payload["duration_s"]),
            attrs=dict(payload.get("attrs", {})),
            children=[cls.from_payload(c) for c in payload.get("children", [])],
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span({self.name!r}, dur={self.duration * 1e3:.3f}ms, "
            f"children={len(self.children)})"
        )


class _NoopSpan:
    """The shared do-nothing span handle of a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def add(self, **attrs: Any) -> None:
        """Attribute updates vanish on the no-op handle."""


_NOOP = _NoopSpan()


class _SpanHandle:
    """Context manager that opens one span on ``tracer`` and times it."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def add(self, **attrs: Any) -> None:
        """Attach attributes to the open span (e.g. late-known counts)."""
        self.span.attrs.update(attrs)

    def __enter__(self) -> "_SpanHandle":
        self._tracer._push(self.span)
        return self

    def __exit__(self, *exc: object) -> bool:
        self.span.duration = self._tracer.clock() - self.span.start
        self._tracer._pop(self.span)
        return False


class Tracer:
    """Collects a forest of spans plus optional per-round metric streams.

    ``Tracer.disabled`` is the canonical off state: a process-wide
    singleton whose :meth:`span` is a single attribute check returning a
    shared no-op handle.
    """

    #: Shared disabled singleton (assigned right after the class body).
    disabled: "Tracer"

    def __init__(self, enabled: bool = True, max_spans: int = 50_000) -> None:
        self.enabled = enabled
        self.max_spans = max_spans
        self.dropped = 0
        self.roots: List[Span] = []
        self.streams = StreamSet()
        self.timers: Dict[str, float] = {}
        self._t0 = time.perf_counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._count = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    def clock(self) -> float:
        """Monotonic seconds since this tracer was created."""
        return time.perf_counter() - self._t0

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any):
        """Open a child span of the current one (context manager).

        On a disabled tracer this is one attribute check and returns the
        shared no-op handle — the off-state fast path.
        """
        if not self.enabled:
            return _NOOP
        return _SpanHandle(self, Span(name, self.clock(), attrs=attrs or None))

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        # Exiting out of order (a caller held the handle across yields)
        # still closes the right span: pop through it.
        while stack and stack[-1] is not span:
            stack.pop()
        if stack:
            stack.pop()
        if stack:
            parent = stack[-1]
            if self._admit():
                parent.children.append(span)
        else:
            with self._lock:
                if self._admit_locked():
                    self.roots.append(span)

    def _admit(self) -> bool:
        with self._lock:
            return self._admit_locked()

    def _admit_locked(self) -> bool:
        if self._count >= self.max_spans:
            self.dropped += 1
            return False
        self._count += 1
        return True

    def attach(self, parent: Span, spans: List[Span], offset: float) -> None:
        """Merge foreign (worker-process) roots under ``parent``.

        ``offset`` shifts the foreign clock onto this tracer's: the
        driver passes the shard span's own start, so worker spans line
        up with the shard that ran them.
        """
        with self._lock:
            for span in spans:
                parent.children.append(span.shifted(offset))
                self._count += sum(1 for _ in span.walk())

    # ------------------------------------------------------------------
    # Streams (chunk-boundary metric series; see repro.obs.stream)
    # ------------------------------------------------------------------
    def record(self, series: str, t: float, value: float) -> None:
        """Append one ``(t, value)`` sample when enabled, else no-op."""
        if self.enabled:
            self.streams.series(series).append(t, value)

    def add_time(self, name: str, seconds: float) -> None:
        """Add ``seconds`` to the timer ``name`` when enabled, else no-op."""
        if self.enabled:
            with self._lock:
                self.timers[name] = self.timers.get(name, 0.0) + seconds

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def depth(self) -> int:
        """Deepest nesting across the forest."""
        return max((root.depth() for root in self.roots), default=0)

    def find(self, name: str) -> List[Span]:
        """Every span named ``name``, pre-order across the forest."""
        return [
            span
            for root in self.roots
            for span, _ in root.walk()
            if span.name == name
        ]

    def to_payload(self) -> List[dict]:
        return [root.to_payload() for root in self.roots]


Tracer.disabled = Tracer(enabled=False)

#: The process-wide active tracer consulted by the instrumented stack.
_ACTIVE: Tracer = Tracer.disabled
_ACTIVE_LOCK = threading.Lock()


def active_tracer() -> Tracer:
    """The tracer the instrumented engine code reports to."""
    return _ACTIVE


def set_active(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the active one; returns the previous."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        previous = _ACTIVE
        _ACTIVE = tracer
    return previous


class activate:
    """Context manager installing a tracer for the duration of a block.

    ::

        tracer = Tracer()
        with activate(tracer), tracer.span("run"):
            ...
    """

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._previous: Optional[Tracer] = None

    def __enter__(self) -> Tracer:
        self._previous = set_active(self._tracer)
        return self._tracer

    def __exit__(self, *exc: object) -> bool:
        set_active(self._previous)
        return False


def traced(name: Optional[str] = None, **attrs: Any) -> Callable:
    """Decorator opening a span around each call on the *active* tracer.

    The span name defaults to the function's qualified name; with the
    disabled tracer the wrapper adds one attribute check per call.
    """

    def decorate(fn: Callable) -> Callable:
        span_name = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            tracer = _ACTIVE
            if not tracer.enabled:
                return fn(*args, **kwargs)
            with tracer.span(span_name, **attrs):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
