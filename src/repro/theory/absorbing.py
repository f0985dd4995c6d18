"""Exact absorbing-chain backend: MFPT, meeting and coalescence times.

The GPDistance route (SNIPPETS.md snippet 1): a hitting-time question
about a Markov chain becomes a linear solve once the target states are
made absorbing — with ``Q`` the transient-to-transient block of the
transition matrix, the fundamental matrix ``N = (I - Q)^{-1}`` gives
the expected absorption time from every transient state as ``m = N 1``.
This module applies that method to the Section-5 dual walk chains *as
the batch engine actually simulates them*, so the numbers it returns
are exact expectations of the quantities :func:`~repro.sim.montecarlo.
sample_meeting_times` and :class:`~repro.engine.dual.BatchCoalescing`
estimate by Monte Carlo — the ``engine="exact"`` backend.

Chain semantics (the asynchronous node-activation law)
------------------------------------------------------
One round selects one node uniformly at random.  A walk sitting on the
selected node moves with probability ``1 - alpha`` to a uniformly
random member of the selection's neighbour sample; walks elsewhere do
not move.  Because the sample ``S`` is a uniform ``k``-subset of the
selected node's neighbours and the walk picks a uniform member of
``S``, the *marginal* target is a uniform neighbour for every ``k`` —
exactly the ``k``-independence of the Q-chain's off-diagonal cases
(Eqs. 19–20).  The single-walk round law is therefore

    P[u -> w] = (1 - alpha) / (n * deg(u))      for each neighbour w,
    P[u -> u] = 1 - (1 - alpha) / n.

Three state spaces, in increasing size:

* **Single walk** (``n`` states) — :func:`mean_first_passage_times`
  makes a target set absorbing and solves for the expected hitting
  time from every node.
* **Walk pair** (``n (n - 1) / 2`` states) — two walks at *distinct*
  nodes can never share the selected node, so the pair chain factors
  into one-walk moves; :func:`meeting_time_matrix` builds the product
  chain on unordered pairs (the exchangeability lumping: ``(u, v)``
  and ``(v, u)`` are one state) with the diagonal absorbing and solves
  for every pair's expected meeting time at once.
* **Occupied set** (``2^n - n - 1`` transient states) —
  :func:`exact_coalescence_time` tracks the set of occupied nodes of
  the coalescing process (cluster labels are exchangeable, so the
  occupied set is a lossless lumping of the partition chain) and
  solves for the expected time until one node remains.  On complete
  graphs the set chain lumps further, to the cluster *count*, giving
  the closed form ``E[T_coal] = (n - 1)^2 / (1 - alpha)`` for any
  ``n``; generic graphs are limited by the exponential state space
  (see :func:`exact_coalescence_feasible`).

Laziness enters every off-diagonal entry as the factor ``1 - alpha``,
so all expected times scale exactly like ``1 / (1 - alpha)`` — the
slowdown law EXP-COAL measures.

Solvers
-------
``solver="dense"`` uses ``numpy.linalg.solve``; ``"sparse"`` assembles
``I - Q`` in CSR and factorises with SciPy's sparse LU; ``"cg"`` uses
the iterative BiCGStab (the chains are not symmetric) with an LU
fallback when it stalls.  ``"auto"`` picks dense below
:data:`DENSE_STATE_CUTOFF` states and the sparse LU above it; SciPy is
optional — without it ``"auto"`` stays dense and the explicitly sparse
solvers raise :class:`~repro.exceptions.ParameterError`.
"""

from __future__ import annotations

from typing import Sequence, Union

import networkx as nx
import numpy as np

from repro.exceptions import ConvergenceError, ParameterError
from repro.graphs.adjacency import Adjacency

GraphLike = Union[nx.Graph, Adjacency]

#: ``"auto"`` solves dense up to this many transient states, sparse above.
DENSE_STATE_CUTOFF = 4096

#: Largest ``n`` for which the subset coalescence chain is built at all
#: (``2^n`` states); the smaller dense cap applies when SciPy is absent.
MAX_SPARSE_COALESCENCE_N = 14
MAX_DENSE_COALESCENCE_N = 11

SOLVER_CHOICES = ("auto", "dense", "sparse", "cg")


def scipy_available() -> bool:
    """Whether SciPy (the sparse LU/CG backends) is importable."""
    try:
        import scipy.sparse  # noqa: F401
        import scipy.sparse.linalg  # noqa: F401
    except Exception:  # pragma: no cover - depends on environment
        return False
    return True


def _as_adjacency(graph: GraphLike) -> Adjacency:
    return graph if isinstance(graph, Adjacency) else Adjacency.from_graph(graph)


def _validate_alpha(alpha: float) -> float:
    if not 0.0 <= alpha < 1.0:
        raise ParameterError(f"alpha must be in [0, 1), got {alpha}")
    return float(alpha)


def validate_solver(solver: str) -> str:
    """Check a ``solver=`` selection against :data:`SOLVER_CHOICES`."""
    if solver not in SOLVER_CHOICES:
        raise ParameterError(
            f"solver must be one of {', '.join(map(repr, SOLVER_CHOICES))}, "
            f"got {solver!r}"
        )
    if solver in ("sparse", "cg") and not scipy_available():
        raise ParameterError(
            f"solver={solver!r} requires scipy, which is not importable; "
            "use solver='dense' or 'auto'"
        )
    return solver


# ----------------------------------------------------------------------
# Linear solves: m = (I - Q)^{-1} 1 in dense, sparse-LU or CG form
# ----------------------------------------------------------------------
def _solve_dense(size: int, rows, cols, vals, rhs: np.ndarray) -> np.ndarray:
    a = np.zeros((size, size))
    np.subtract.at(a, (rows, cols), vals)
    a[np.arange(size), np.arange(size)] += 1.0
    return np.linalg.solve(a, rhs)


def _solve_sparse(size, rows, cols, vals, rhs, use_cg: bool) -> np.ndarray:
    from scipy.sparse import coo_matrix, identity
    from scipy.sparse.linalg import bicgstab, splu

    q = coo_matrix(
        (np.asarray(vals), (np.asarray(rows), np.asarray(cols))),
        shape=(size, size),
    ).tocsc()
    a = (identity(size, format="csc") - q).tocsc()
    if use_cg:
        solution, info = bicgstab(a, rhs, rtol=1e-12, atol=0.0, maxiter=40 * size)
        if info == 0:
            return solution
        # Stalled iteration: fall through to the exact factorisation
        # rather than returning a half-converged expectation.
    return splu(a).solve(rhs)


def _solve_absorbing(
    size: int,
    rows: Sequence[int],
    cols: Sequence[int],
    vals: Sequence[float],
    solver: str,
    rhs: np.ndarray | None = None,
) -> np.ndarray:
    """Solve ``(I - Q) m = rhs`` for the COO-triplet transient block."""
    validate_solver(solver)
    if rhs is None:
        rhs = np.ones(size)
    if size == 0:
        return np.zeros(0)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    if solver == "auto":
        solver = (
            "dense"
            if size <= DENSE_STATE_CUTOFF or not scipy_available()
            else "sparse"
        )
    if solver == "dense":
        solution = _solve_dense(size, rows, cols, vals, rhs)
    else:
        solution = _solve_sparse(size, rows, cols, vals, rhs, solver == "cg")
    if not np.all(np.isfinite(solution)):
        raise ConvergenceError(
            "absorbing-chain solve produced non-finite expectations; "
            "the chain may not reach its absorbing set"
        )
    return solution


# ----------------------------------------------------------------------
# Single walk: the round law and mean first-passage times
# ----------------------------------------------------------------------
def walk_transition_matrix(graph: GraphLike, alpha: float = 0.0) -> np.ndarray:
    """Dense one-round transition matrix of a single dual walk.

    The asynchronous node-activation law (module docstring): the walk
    only moves in the ``1/n`` rounds that select its node, and then
    with probability ``1 - alpha`` to a uniform neighbour.
    """
    adjacency = _as_adjacency(graph)
    alpha = _validate_alpha(alpha)
    n = adjacency.n
    p = np.zeros((n, n))
    move = (1.0 - alpha) / n
    for u in range(n):
        neighbours = adjacency.neighbors_of(u)
        p[u, neighbours] = move / len(neighbours)
        p[u, u] = 1.0 - move
    return p


def mean_first_passage_times(
    graph: GraphLike,
    targets: Sequence[int] | int,
    alpha: float = 0.0,
    solver: str = "auto",
) -> np.ndarray:
    """Exact expected rounds for one walk to first hit ``targets``.

    Returns the ``(n,)`` vector of expectations (0 on the targets
    themselves) via the fundamental-matrix solve with the target set
    absorbing — the GPDistance MFPT method on the asynchronous round
    law, so the numbers are in *engine rounds*, directly comparable to
    :class:`~repro.engine.dual.BatchWalks` trajectories.
    """
    adjacency = _as_adjacency(graph)
    alpha = _validate_alpha(alpha)
    n = adjacency.n
    targets = np.unique(np.atleast_1d(np.asarray(targets, dtype=np.int64)))
    if targets.size == 0:
        raise ParameterError("targets must name at least one node")
    if targets.min() < 0 or targets.max() >= n:
        raise ParameterError(f"targets must be valid node indices in [0, {n})")
    transient = np.setdiff1d(np.arange(n), targets)
    index = -np.ones(n, dtype=np.int64)
    index[transient] = np.arange(transient.size)

    move = (1.0 - alpha) / n
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for row, u in enumerate(transient):
        neighbours = adjacency.neighbors_of(u)
        share = move / len(neighbours)
        rows.append(row)
        cols.append(row)
        vals.append(1.0 - move)
        for w in neighbours:
            if index[w] >= 0:
                rows.append(row)
                cols.append(int(index[w]))
                vals.append(share)
    expectations = _solve_absorbing(transient.size, rows, cols, vals, solver)
    result = np.zeros(n)
    result[transient] = expectations
    return result


# ----------------------------------------------------------------------
# Walk pairs: the meeting-time product chain on unordered pairs
# ----------------------------------------------------------------------
def _pair_index(n: int) -> np.ndarray:
    """Map ``(u, v), u < v`` to a flat state id (symmetric lumping)."""
    index = -np.ones((n, n), dtype=np.int64)
    state = 0
    for u in range(n):
        for v in range(u + 1, n):
            index[u, v] = index[v, u] = state
            state += 1
    return index


def meeting_time_matrix(
    graph: GraphLike, alpha: float = 0.0, solver: str = "auto"
) -> np.ndarray:
    """Exact expected pairwise meeting times, shape ``(n, n)``.

    Entry ``(u, v)`` is the expected number of rounds until two walks
    started on ``u`` and ``v`` first occupy one node (0 on the
    diagonal).  The product chain runs on unordered pairs — walks are
    exchangeable, so ``{u, v}`` is a lossless lumping of ``(u, v)`` /
    ``(v, u)`` — with the diagonal absorbing.  Because distinct nodes
    never share a selection, each round moves at most one walk of the
    pair: the transition law is two superposed single-walk laws, which
    makes the expectation identical for every selection fan-in ``k``
    (Eqs. 19–20) and leaves no parity obstruction on bipartite graphs
    even at ``alpha = 0``.
    """
    adjacency = _as_adjacency(graph)
    alpha = _validate_alpha(alpha)
    n = adjacency.n
    index = _pair_index(n)
    size = n * (n - 1) // 2
    move = (1.0 - alpha) / n

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    diag = np.zeros(size)
    for u in range(n):
        neighbours_u = adjacency.neighbors_of(u)
        for v in range(u + 1, n):
            src = int(index[u, v])
            out = 0.0
            for mover, other in ((u, v), (v, u)):
                neighbours = (
                    neighbours_u if mover == u else adjacency.neighbors_of(mover)
                )
                share = move / len(neighbours)
                for w in neighbours:
                    out += share
                    if w != other:  # w == other is the absorbing meeting
                        rows.append(src)
                        cols.append(int(index[w, other]))
                        vals.append(share)
            diag[src] = 1.0 - out
    rows.extend(range(size))
    cols.extend(range(size))
    vals.extend(diag.tolist())

    expectations = _solve_absorbing(size, rows, cols, vals, solver)
    matrix = np.zeros((n, n))
    for u in range(n):
        for v in range(u + 1, n):
            matrix[u, v] = matrix[v, u] = expectations[index[u, v]]
    return matrix


def expected_meeting_time(
    graph: GraphLike,
    u: int,
    v: int,
    alpha: float = 0.0,
    solver: str = "auto",
) -> float:
    """Exact expected meeting time of walks started on ``u`` and ``v``."""
    adjacency = _as_adjacency(graph)
    n = adjacency.n
    if not (0 <= u < n and 0 <= v < n):
        raise ParameterError(f"nodes must be in [0, {n}), got ({u}, {v})")
    return float(meeting_time_matrix(adjacency, alpha=alpha, solver=solver)[u, v])


# ----------------------------------------------------------------------
# Full coalescence: the occupied-set chain (with complete-graph lumping)
# ----------------------------------------------------------------------
def exact_coalescence_feasible(graph: GraphLike) -> bool:
    """Whether :func:`exact_coalescence_time` can solve this graph.

    Complete graphs lump to the cluster count and are feasible at any
    ``n``; any other graph needs the ``2^n``-state occupied-set chain,
    capped at :data:`MAX_SPARSE_COALESCENCE_N` nodes with SciPy and
    :data:`MAX_DENSE_COALESCENCE_N` without.  SciPy is imported only
    when ``n`` falls between the two caps, where the answer depends on
    it: the import holds ~24 MB for the rest of the process.
    """
    adjacency = _as_adjacency(graph)
    n = adjacency.n
    if _is_complete(adjacency) or n <= MAX_DENSE_COALESCENCE_N:
        return True
    return n <= MAX_SPARSE_COALESCENCE_N and scipy_available()


def _is_complete(adjacency: Adjacency) -> bool:
    n = adjacency.n
    return n == 1 or (adjacency.is_regular and adjacency.degree == n - 1)


def _complete_graph_coalescence(n: int, alpha: float) -> float:
    """Closed form from the cluster-count lumping of the set chain.

    With ``c`` clusters on ``K_n`` a round merges with probability
    ``(c / n) (1 - alpha) (c - 1) / (n - 1)``, so the expectation
    telescopes: ``sum_{c=2}^{n} n (n - 1) / ((1 - alpha) c (c - 1))
    = (n - 1)^2 / (1 - alpha)``.
    """
    return (n - 1.0) ** 2 / (1.0 - alpha)


def exact_coalescence_time(
    graph: GraphLike, alpha: float = 0.0, solver: str = "auto"
) -> float:
    """Exact expected full-coalescence time from the all-occupied start.

    The expectation of the quantity
    :func:`repro.sim.montecarlo.sample_meeting_times` samples: one walk
    per node, co-located walks merge, time until a single walk remains,
    counted in engine rounds.  Cluster labels are exchangeable, so the
    occupied node *set* is a lossless lumping of the partition chain;
    complete graphs lump further to the cluster count (closed form).
    Raises :class:`~repro.exceptions.ParameterError` when the set chain
    is infeasible — see :func:`exact_coalescence_feasible`.
    """
    adjacency = _as_adjacency(graph)
    alpha = _validate_alpha(alpha)
    validate_solver(solver)
    n = adjacency.n
    if n == 1:
        return 0.0
    if _is_complete(adjacency):
        return _complete_graph_coalescence(n, alpha)
    if not exact_coalescence_feasible(adjacency):
        cap = (
            MAX_SPARSE_COALESCENCE_N
            if scipy_available()
            else MAX_DENSE_COALESCENCE_N
        )
        raise ParameterError(
            f"exact coalescence needs the 2^n occupied-set chain, "
            f"feasible only for n <= {cap} on non-complete graphs "
            f"(got n = {n}); use the Monte-Carlo engines instead"
        )

    # Transient states: occupied sets with >= 2 nodes, as bitmasks.
    masks = [m for m in range(1, 1 << n) if _popcount(m) >= 2]
    index = {mask: i for i, mask in enumerate(masks)}
    move = (1.0 - alpha) / n
    neighbour_lists = [adjacency.neighbors_of(u) for u in range(n)]

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for src, mask in enumerate(masks):
        stay = 1.0
        remaining = mask
        while remaining:
            u = (remaining & -remaining).bit_length() - 1
            remaining &= remaining - 1
            neighbours = neighbour_lists[u]
            share = move / len(neighbours)
            for w in neighbours:
                stay -= share
                nxt = (mask & ~(1 << u)) | (1 << int(w))
                if _popcount(nxt) >= 2:
                    rows.append(src)
                    cols.append(index[nxt])
                    vals.append(share)
        rows.append(src)
        cols.append(src)
        vals.append(stay)

    expectations = _solve_absorbing(len(masks), rows, cols, vals, solver)
    return float(expectations[index[(1 << n) - 1]])


def _popcount(mask: int) -> int:
    return bin(mask).count("1")
