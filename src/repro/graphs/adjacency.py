"""Compact CSR-style adjacency used by the simulators' inner loops.

`networkx` graphs are convenient for construction and spectral analysis but
too slow for the per-step neighbour sampling the asynchronous processes
perform millions of times.  :class:`Adjacency` freezes a graph into three
NumPy arrays:

* ``neighbors`` — concatenated sorted neighbour lists,
* ``offsets`` — ``offsets[u]:offsets[u+1]`` slices node ``u``'s neighbours,
* ``degrees`` — per-node degrees.

The batch engine (:mod:`repro.engine`) samples neighbours for a whole
replica batch straight off ``neighbors`` and ``offsets``, in Python and
in its compiled block loop alike.

It also precomputes the directed edge list (both orientations of every
undirected edge) so the EdgeModel can draw a uniform directed edge with a
single integer sample, matching Definition 2.3 exactly.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Iterator

import networkx as nx
import numpy as np

from repro.exceptions import GraphError, NotConnectedError

#: Active sink for :func:`collect_content_hashes`, or ``None``.
_hash_sink: ContextVar[list | None] = ContextVar("adjacency_hash_sink", default=None)


@contextmanager
def collect_content_hashes() -> Iterator[list]:
    """Record the content hash of every :class:`Adjacency` frozen inside.

    The run API uses this to attach graph provenance to experiment
    results without threading a recorder through every runner: any graph
    a simulator freezes during the ``with`` block lands in the yielded
    list (in construction order, duplicates included).  Re-entrant;
    inner collectors shadow outer ones.
    """
    sink: list = []
    token = _hash_sink.set(sink)
    try:
        yield sink
    finally:
        _hash_sink.reset(token)


@dataclass(frozen=True)
class Adjacency:
    """Immutable adjacency structure of an undirected graph.

    Nodes are always relabelled to ``0..n-1`` in sorted order of the original
    labels; :attr:`labels` keeps the original labels for presentation.
    """

    neighbors: np.ndarray
    offsets: np.ndarray
    degrees: np.ndarray
    edge_tails: np.ndarray
    edge_heads: np.ndarray
    labels: tuple = field(repr=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: nx.Graph, require_connected: bool = True) -> "Adjacency":
        """Freeze a :class:`networkx.Graph` into an :class:`Adjacency`.

        Raises :class:`NotConnectedError` when ``require_connected`` is set
        and the graph is not connected (the paper's processes only converge
        on connected graphs), and :class:`GraphError` for empty graphs or
        graphs with self-loops (the models sample *neighbours*, which are
        distinct from the sampling node).
        """
        n = graph.number_of_nodes()
        if n == 0:
            raise GraphError("graph has no nodes")
        if any(u == v for u, v in nx.selfloop_edges(graph)):
            raise GraphError("graph must not contain self-loops")
        if require_connected and not nx.is_connected(graph):
            raise NotConnectedError(
                "graph must be connected for the averaging processes to converge"
            )

        try:
            labels = tuple(sorted(graph.nodes()))
        except TypeError:  # mixed label types: fall back to a stable repr order
            labels = tuple(sorted(graph.nodes(), key=_label_sort_key))
        index = {label: i for i, label in enumerate(labels)}

        degrees = np.zeros(n, dtype=np.int64)
        for label in labels:
            degrees[index[label]] = graph.degree(label)

        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        neighbors = np.empty(int(offsets[-1]), dtype=np.int64)
        cursor = offsets[:-1].copy()
        for label in labels:
            u = index[label]
            adjacent = sorted(index[w] for w in graph.neighbors(label))
            neighbors[cursor[u] : cursor[u] + len(adjacent)] = adjacent

        tails = []
        heads = []
        for label_u, label_v in graph.edges():
            u, v = index[label_u], index[label_v]
            tails.extend((u, v))
            heads.extend((v, u))
        edge_tails = np.asarray(tails, dtype=np.int64)
        edge_heads = np.asarray(heads, dtype=np.int64)

        adjacency = cls(
            neighbors=neighbors,
            offsets=offsets,
            degrees=degrees,
            edge_tails=edge_tails,
            edge_heads=edge_heads,
            labels=labels,
        )
        sink = _hash_sink.get()
        if sink is not None:
            sink.append(adjacency.content_hash())
        return adjacency

    # ------------------------------------------------------------------
    # Basic quantities
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self.degrees)

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return len(self.edge_tails) // 2

    @property
    def num_directed_edges(self) -> int:
        """Number of directed edges, ``2m``."""
        return len(self.edge_tails)

    @property
    def d_min(self) -> int:
        """Minimum degree."""
        return int(self.degrees.min())

    @property
    def d_max(self) -> int:
        """Maximum degree."""
        return int(self.degrees.max())

    @property
    def is_regular(self) -> bool:
        """Whether every node has the same degree."""
        return self.d_min == self.d_max

    @property
    def degree(self) -> int:
        """Common degree of a regular graph.

        Raises :class:`GraphError` for irregular graphs; callers that merely
        want the degree vector should use :attr:`degrees`.
        """
        if not self.is_regular:
            raise GraphError("graph is not regular; use .degrees instead")
        return self.d_min

    # ------------------------------------------------------------------
    # Navigation
    # ------------------------------------------------------------------
    def neighbors_of(self, u: int) -> np.ndarray:
        """Sorted neighbour array of node ``u`` (a view, do not mutate)."""
        return self.neighbors[self.offsets[u] : self.offsets[u + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge (binary search on sorted lists)."""
        row = self.neighbors_of(u)
        pos = int(np.searchsorted(row, v))
        return pos < len(row) and row[pos] == v

    def stationary_pi(self) -> np.ndarray:
        """Random-walk stationary distribution ``pi_u = d_u / 2m`` (Eq. 1)."""
        return self.degrees / float(self.num_directed_edges)

    def content_hash(self) -> str:
        """Stable hex digest of the graph structure.

        Keys the engine's on-disk result cache: two adjacencies with the
        same node set and edge set (after relabelling) hash identically.
        """
        cached = self.__dict__.get("_content_hash")
        if cached is None:
            digest = hashlib.sha256()
            digest.update(np.ascontiguousarray(self.offsets).tobytes())
            digest.update(np.ascontiguousarray(self.neighbors).tobytes())
            cached = digest.hexdigest()
            object.__setattr__(self, "_content_hash", cached)
        return cached

    def to_networkx(self) -> nx.Graph:
        """Rebuild a :class:`networkx.Graph` on nodes ``0..n-1``."""
        graph = nx.Graph()
        graph.add_nodes_from(range(self.n))
        mask = self.edge_tails < self.edge_heads
        graph.add_edges_from(
            zip(self.edge_tails[mask].tolist(), self.edge_heads[mask].tolist())
        )
        return graph

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Adjacency):
            return NotImplemented
        return (
            np.array_equal(self.neighbors, other.neighbors)
            and np.array_equal(self.offsets, other.offsets)
            and self.labels == other.labels
        )

    def __hash__(self) -> int:  # pragma: no cover - trivial
        return hash((self.n, self.m, self.labels))


def _label_sort_key(label) -> tuple:
    """Sort key tolerating mixed label types (ints, strings, tuples)."""
    return (str(type(label)), repr(label))
