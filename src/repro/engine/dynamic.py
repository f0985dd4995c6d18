"""Time-varying topologies for the batch engine: graph schedules.

Section 3 connects the averaging processes to voter-model analyses on
*dynamic* graphs; the processes stay well defined when the topology
changes between rounds as long as every snapshot is connected.  A
:class:`GraphSchedule` describes such a time-varying topology as a
finite set of frozen :class:`~repro.graphs.adjacency.Adjacency`
snapshots plus a deterministic map from the *segment index*
``j = t // switch_every`` to the snapshot active during rounds
``[j * switch_every, (j+1) * switch_every)``:

* :class:`CyclicSchedule` — rotate through the snapshots in order
  (``core.dynamic``'s historical behaviour);
* :class:`RandomSchedule` — draw each segment's snapshot uniformly from
  a dedicated counter-based stream, so snapshot choice is *random
  access* (segment ``j``'s snapshot is a pure function of
  ``(seed, j)``) and never interleaves with the simulation RNG;
* :class:`RewiringSchedule` — an edge-churn stream: successive
  snapshots derived from a base graph by connected degree-preserving
  double edge swaps, then rotated cyclically.

Determinism is load-bearing: the engine, the scalar wrapper and every
kernel must agree on which snapshot governs round ``t``, replays must
reconstruct the stream, and the disk cache keys results by
:meth:`GraphSchedule.content_hash`.  Schedules therefore never consume
the caller's generator and are hashable by content.

The engine discipline (see :mod:`repro.engine.batch`): kernel blocks
never straddle a switch boundary, so within one block the snapshot —
hence the neighbour sampler, the edge list and the pi weights — is
constant, and chunked convergence detection stays exact.
"""

from __future__ import annotations

import abc
import hashlib
from typing import Sequence

import networkx as nx
import numpy as np

from repro.exceptions import ParameterError
from repro.graphs.adjacency import Adjacency

#: Valid ``graph_schedule=`` kinds accepted across the engine, API and CLI.
SCHEDULE_KINDS = ("cyclic", "random", "rewire")


def _freeze_snapshots(
    snapshots: Sequence[nx.Graph | Adjacency],
) -> tuple[Adjacency, ...]:
    """Freeze and validate a snapshot sequence (shared node set)."""
    if not snapshots:
        raise ParameterError("at least one snapshot is required")
    frozen = tuple(
        s if isinstance(s, Adjacency) else Adjacency.from_graph(s)
        for s in snapshots
    )
    n = frozen[0].n
    if any(a.n != n for a in frozen):
        raise ParameterError("all snapshots must share the same node set")
    return frozen


class GraphSchedule(abc.ABC):
    """A deterministic stream of graph snapshots over simulation rounds.

    Parameters
    ----------
    snapshots:
        Non-empty sequence of connected graphs on the same node set
        ``0..n-1`` (``networkx.Graph`` or frozen :class:`Adjacency`).
    switch_every:
        Rounds executed on a snapshot before the next segment begins.
    """

    kind: str = "abstract"

    def __init__(
        self,
        snapshots: Sequence[nx.Graph | Adjacency],
        switch_every: int,
    ) -> None:
        if switch_every < 1:
            raise ParameterError(
                f"switch_every must be positive, got {switch_every}"
            )
        self.snapshots = _freeze_snapshots(snapshots)
        self.switch_every = int(switch_every)

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.snapshots[0].n

    @property
    def num_snapshots(self) -> int:
        return len(self.snapshots)

    @property
    def d_max(self) -> int:
        """Largest degree over all snapshots (the ``d_max`` envelope every
        snapshot's neighbour sampler shares)."""
        return max(a.d_max for a in self.snapshots)

    @property
    def d_min(self) -> int:
        """Smallest minimum degree over all snapshots (bounds ``k``)."""
        return min(a.d_min for a in self.snapshots)

    @property
    def uniform_pi(self) -> bool:
        """Whether ``pi`` is the same (uniform) vector in every snapshot.

        True iff all snapshots are regular *with equal degree* — exactly
        the condition under which the simple average stays a martingale
        across switches (the dynamic regular/irregular dichotomy).
        """
        if not all(a.is_regular for a in self.snapshots):
            return False
        degree = self.snapshots[0].d_min
        return all(a.d_min == degree for a in self.snapshots)

    # ------------------------------------------------------------------
    # The stream
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def snapshot_id(self, segment: int) -> int:
        """Index of the snapshot governing segment ``segment`` (>= 0)."""

    def snapshot_at(self, t: int) -> int:
        """Index of the snapshot governing round ``t`` (0-based)."""
        if t < 0:
            raise ParameterError(f"round index must be non-negative, got {t}")
        return self.snapshot_id(t // self.switch_every)

    def adjacency_at(self, t: int) -> Adjacency:
        """The frozen snapshot governing round ``t``."""
        return self.snapshots[self.snapshot_at(t)]

    def rounds_until_switch(self, t: int) -> int:
        """Rounds from ``t`` to the next switch boundary (always >= 1)."""
        return self.switch_every - (t % self.switch_every)

    def id_stream(self, start: int, rounds: int) -> np.ndarray:
        """Per-round snapshot ids for rounds ``start .. start+rounds-1``.

        The explicit snapshot-id stream consumed by replays and the
        conformance tests; the engine itself only needs the per-segment
        form because blocks never straddle a boundary.
        """
        if rounds < 0:
            raise ParameterError(f"rounds must be non-negative, got {rounds}")
        segments = (start + np.arange(rounds, dtype=np.int64)) // self.switch_every
        unique = np.unique(segments)
        lookup = {int(j): self.snapshot_id(int(j)) for j in unique}
        return np.array([lookup[int(j)] for j in segments], dtype=np.int64)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def _hash_extra(self) -> str:
        """Subclass-specific key material beyond snapshots + cadence."""
        return ""

    def content_hash(self) -> str:
        """Stable hex digest of the whole schedule.

        Covers the kind, the switch cadence, every snapshot's structure
        and any subclass state (e.g. the random stream seed) — the
        engine's disk cache keys dynamic results by this digest, so two
        schedules hash equal iff they generate the same snapshot stream.
        """
        digest = hashlib.sha256()
        material = f"{self.kind}|sw={self.switch_every}|{self._hash_extra()}|"
        digest.update(material.encode())
        for adjacency in self.snapshots:
            digest.update(adjacency.content_hash().encode())
        return digest.hexdigest()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphSchedule):
            return NotImplemented
        return self.content_hash() == other.content_hash()

    def __hash__(self) -> int:
        return hash(self.content_hash())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(snapshots={self.num_snapshots}, "
            f"n={self.n}, switch_every={self.switch_every})"
        )


class CyclicSchedule(GraphSchedule):
    """Rotate through the snapshots in order: segment ``j`` uses ``j % S``."""

    kind = "cyclic"

    def snapshot_id(self, segment: int) -> int:
        return segment % self.num_snapshots


class RandomSchedule(GraphSchedule):
    """Each segment's snapshot drawn uniformly from a counter-based stream.

    Segment ``j``'s snapshot is a pure function of ``(seed, j)`` —
    random access, reproducible, and independent of the simulation RNG,
    so batch and scalar runs (and replays) see the same stream without
    any draw-order coupling.
    """

    kind = "random"

    def __init__(
        self,
        snapshots: Sequence[nx.Graph | Adjacency],
        switch_every: int,
        seed: int = 0,
    ) -> None:
        super().__init__(snapshots, switch_every)
        if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
            raise ParameterError(
                f"RandomSchedule needs a deterministic integer seed, got {seed!r}"
            )
        self.seed = int(seed)
        self._ids: dict[int, int] = {}

    #: Memoised segment ids are dropped beyond this many entries: ids
    #: are cheap pure functions of (seed, segment), so the cache is an
    #: optimisation that must not grow with the horizon of a run.
    _ID_CACHE_LIMIT = 4096

    def snapshot_id(self, segment: int) -> int:
        cached = self._ids.get(segment)
        if cached is None:
            sequence = np.random.SeedSequence(
                entropy=self.seed, spawn_key=(segment,)
            )
            cached = int(
                np.random.default_rng(sequence).integers(self.num_snapshots)
            )
            if len(self._ids) >= self._ID_CACHE_LIMIT:
                self._ids.clear()
            self._ids[segment] = cached
        return cached

    def _hash_extra(self) -> str:
        return f"seed={self.seed}"

    def __getstate__(self) -> dict:
        # The id cache is derived state; drop it so pickles stay small
        # and equality-by-content is preserved across workers.
        state = self.__dict__.copy()
        state["_ids"] = {}
        return state


class RewiringSchedule(CyclicSchedule):
    """An edge-churn stream: successive degree-preserving rewirings.

    Snapshot 0 is the (frozen) base graph; snapshot ``s`` is snapshot
    ``s - 1`` with ``rewires`` connected double edge swaps applied
    (degrees preserved, connectivity maintained), generated once at
    construction from ``seed`` and then rotated cyclically.  When a
    snapshot admits no valid swap (e.g. a complete graph) the churn is
    a no-op and the snapshot repeats.
    """

    kind = "rewire"

    def __init__(
        self,
        base_graph: nx.Graph | Adjacency,
        num_snapshots: int,
        switch_every: int,
        rewires: int = 1,
        seed: int = 0,
    ) -> None:
        if num_snapshots < 1:
            raise ParameterError(
                f"num_snapshots must be positive, got {num_snapshots}"
            )
        if rewires < 1:
            raise ParameterError(f"rewires must be positive, got {rewires}")
        base = (
            base_graph
            if isinstance(base_graph, Adjacency)
            else Adjacency.from_graph(base_graph)
        )
        working = base.to_networkx()
        snapshots = [base]
        for step in range(1, num_snapshots):
            try:
                nx.connected_double_edge_swap(
                    working, nswap=rewires, seed=seed + step
                )
            except nx.NetworkXError:
                # No valid swap exists (dense/small graphs): keep the
                # snapshot unchanged rather than failing the stream.
                pass
            snapshots.append(Adjacency.from_graph(working.copy()))
        super().__init__(snapshots, switch_every)
        self.rewires = int(rewires)
        self.seed = int(seed)

    def _hash_extra(self) -> str:
        # Snapshot hashes already pin the realized stream; the seed and
        # churn rate are recorded for readable cache-entry sidecars.
        return f"seed={self.seed}|rewires={self.rewires}"


def build_schedule(
    kind: str,
    graphs: Sequence[nx.Graph | Adjacency],
    switch_every: int,
    seed: int = 0,
    rewires: int | None = None,
) -> GraphSchedule:
    """Resolve a schedule by kind name (the API/CLI entry point).

    ``graphs`` is the snapshot pool for ``"cyclic"`` / ``"random"``;
    for ``"rewire"`` the first graph is the churn base and
    ``len(graphs)`` snapshots are derived from it (``rewires`` defaults
    to one eighth of the base's edges, at least 1).
    """
    from repro.obs.trace import active_tracer

    with active_tracer().span(
        "engine.build_schedule", kind=kind, snapshots=len(graphs)
    ):
        if kind == "cyclic":
            return CyclicSchedule(graphs, switch_every)
        if kind == "random":
            return RandomSchedule(graphs, switch_every, seed=seed)
        if kind == "rewire":
            frozen = _freeze_snapshots(graphs)
            churn = (
                rewires if rewires is not None else max(1, frozen[0].m // 8)
            )
            return RewiringSchedule(
                frozen[0],
                num_snapshots=len(frozen),
                switch_every=switch_every,
                rewires=churn,
                seed=seed,
            )
    raise ParameterError(
        f"unknown graph schedule {kind!r}; expected one of "
        + ", ".join(repr(k) for k in SCHEDULE_KINDS)
    )
