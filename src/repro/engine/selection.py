"""Shared block-selection drawing and recorded selection streams.

One R-round block of NodeModel / EdgeModel selections — the acting node
per (round, replica) plus the gathered neighbour sample — is needed by
*two* consumers: the primal batch models' fused/jit block plans
(:meth:`~repro.engine.batch.BatchAveragingProcess._plan_block`) and the
dual batch engine (:mod:`repro.engine.dual`), whose Diffusion Process
must consume **bit-identical selection streams** at a fixed seed so the
Lemma 5.2 coupling can be driven from one recorded stream.  This module
is that single home: :func:`draw_node_block` / :func:`draw_edge_block`
implement the exact draw-order contract of the kernel layer (see
:mod:`repro.engine.kernels` for the per-shape contract), and both the
primal models and the dual engine call them — identical streams by
construction, not by parallel maintenance.

:class:`RecordedSelections` is the engine-scale analogue of
:class:`~repro.core.schedule.Schedule`: a per-replica selection tensor
``(nodes, picked, keep)`` recorded from a live batch run, replayable
forwards (dual conformance) or reversed (the Lemma 5.2 identity) by the
dual batch processes, and convertible to a scalar ``Schedule`` per
replica for oracle cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.schedule import Schedule
from repro.engine.backend import SamplingBackend
from repro.exceptions import ParameterError


def split_lazy(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split the lazy coin off a uniform matrix.

    ``u`` is i.i.d. uniform on [0, 1); the leading bit is the coin
    (heads = perform the update) and ``2u mod 1`` is again uniform and
    independent of it — the same bit-recycling the per-round node/slot
    draw uses.
    """
    doubled = u * 2.0
    keep = doubled >= 1.0
    return keep, doubled - keep


def draw_node_block(
    sampler: SamplingBackend,
    rng: np.random.Generator,
    n: int,
    block_rounds: int,
    replicas: int,
    rows: np.ndarray,
    lazy: bool = False,
) -> tuple[np.ndarray, tuple[np.ndarray, ...] | np.ndarray, np.ndarray | None]:
    """Draw one R-round block of NodeModel selections for the active rows.

    Returns ``(nodes, picked, keep)`` where ``nodes`` is the ``(R, A)``
    acting-node matrix over the active rows, ``picked`` the gathered
    neighbour ids — a tuple of ``k`` matrices ``(R, A)`` for the
    ``k <= 2`` single-uniform decodes, or one ``(R, A, k)`` array for
    the ``k > 2`` subset sampler — and ``keep`` the lazy coin mask (or
    ``None``).  The randomness is drawn **once, C-order, for the full
    batch** (frozen replicas' columns are discarded; the kept ones come
    back C-ordered), exactly per the kernel layer's block contract, so
    this function *is* the primal engine's selection stream.
    """
    full = rows.size == replicas
    k = sampler.k
    if k <= 2:
        # Node (and for k = 2 the ordered distinct neighbour pair)
        # decoded from ONE uniform per round: integer part selects the
        # node; the fractional part — exact, because floor-subtraction
        # of doubles is — carries ~44 spare mantissa bits that index
        # the neighbour slot (k = 1) or one of the deg*(deg-1) ordered
        # pairs (k = 2).
        u = rng.random((block_rounds, replicas))
        if not full:
            u = u.take(rows, axis=1)
        keep = None
        if lazy:
            keep, u = split_lazy(u)
        np.multiply(u, n, out=u)
        nodes = u.astype(np.int64)
        np.subtract(u, nodes, out=u)
        if k == 1:
            return nodes, (sampler.pick_block(nodes, u),), keep
        if sampler._common_degree is not None:
            degree_m1 = int(sampler._common_degree) - 1
            np.multiply(u, float(degree_m1 + 1) * degree_m1, out=u)
        else:
            degree_m1 = sampler._degrees[nodes] - 1
            np.multiply(u, (degree_m1 + 1) * degree_m1, out=u)
        pair = u.astype(np.int64)
        first, second = np.divmod(pair, degree_m1)
        second += second >= first
        return (
            nodes,
            (
                sampler._pick_slots(nodes, first),
                sampler._pick_slots(nodes, second),
            ),
            keep,
        )

    # k > 2: node selector and subset keys come from one C-order draw so
    # block splits cannot reorder the stream; neighbour subsets are
    # computed for the full batch because the rejection strategy may
    # consume extra (data-dependent) variates.
    keys = None
    if sampler.uses_subset_keys:
        block = rng.random((block_rounds, replicas, sampler.d_max + 1))
        u = block[..., 0]
        keys = block[..., 1:]
    else:
        u = rng.random((block_rounds, replicas))
    keep = None
    if lazy:
        keep, u = split_lazy(u)
    nodes = (u * n).astype(np.int64)
    picked = sampler.pick_subsets(nodes, keys, rng)
    if not full:
        nodes = nodes.take(rows, axis=1)
        picked = picked.take(rows, axis=1)
        keep = None if keep is None else keep.take(rows, axis=1)
    return nodes, picked, keep


def draw_edge_block(
    tails: np.ndarray,
    heads: np.ndarray,
    rng: np.random.Generator,
    block_rounds: int,
    replicas: int,
    rows: np.ndarray,
    lazy: bool = False,
) -> tuple[np.ndarray, tuple[np.ndarray, ...], np.ndarray | None]:
    """Draw one R-round block of EdgeModel selections for the active rows.

    Same return convention as :func:`draw_node_block` with ``picked`` a
    1-tuple (the selected head per entry): ``edge = floor(u * 2m)`` per
    the block contract.
    """
    u = rng.random((block_rounds, replicas))
    if rows.size != replicas:
        u = u.take(rows, axis=1)
    keep = None
    if lazy:
        keep, u = split_lazy(u)
    edges = (u * len(tails)).astype(np.int64)
    return tails[edges], (heads[edges],), keep


def normalise_picked(
    picked: tuple[np.ndarray, ...] | Sequence[np.ndarray] | np.ndarray,
) -> np.ndarray:
    """Canonical ``(R, A, k)`` form of a block's neighbour picks."""
    if isinstance(picked, np.ndarray):
        if picked.ndim == 2:
            return picked[:, :, None]
        return picked
    return np.stack(tuple(picked), axis=-1)


@dataclass(frozen=True)
class RecordedSelections:
    """A per-replica selection stream recorded from a live batch run.

    ``nodes`` has shape ``(T, B)`` (acting node of replica ``b`` at
    round ``t``), ``picked`` shape ``(T, B, k)`` (its gathered
    neighbour sample), and ``keep`` is either ``None`` (every round of
    every replica performed an update) or a ``(T, B)`` mask whose
    ``False`` entries are no-ops — lazy tails, or rounds a frozen
    replica sat out.  The dual processes treat no-ops as identity maps,
    exactly like :meth:`Schedule.without_noops` steps.
    """

    nodes: np.ndarray
    picked: np.ndarray
    keep: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.nodes.ndim != 2:
            raise ParameterError(
                f"nodes must be (T, B), got shape {self.nodes.shape}"
            )
        if (
            self.picked.ndim != 3
            or self.picked.shape[:2] != self.nodes.shape
        ):
            raise ParameterError(
                f"picked must be (T, B, k) matching nodes {self.nodes.shape}, "
                f"got {self.picked.shape}"
            )
        if self.keep is not None and self.keep.shape != self.nodes.shape:
            raise ParameterError(
                f"keep must match nodes shape {self.nodes.shape}, "
                f"got {self.keep.shape}"
            )

    def __len__(self) -> int:
        return self.nodes.shape[0]

    @property
    def replicas(self) -> int:
        return self.nodes.shape[1]

    @property
    def k(self) -> int:
        return self.picked.shape[2]

    def reversed(self) -> "RecordedSelections":
        """The time-reversed stream ``chi^R`` of every replica at once."""
        return RecordedSelections(
            nodes=self.nodes[::-1],
            picked=self.picked[::-1],
            keep=None if self.keep is None else self.keep[::-1],
        )

    def schedule_for(self, replica: int) -> Schedule:
        """Replica ``replica``'s stream as a scalar :class:`Schedule`.

        No-op rounds become empty-sample steps, matching the scalar
        processes' lazy records — the bridge to the ``repro.core`` /
        ``repro.dual`` oracles in the conformance tests.
        """
        schedule = Schedule()
        for t in range(len(self)):
            if self.keep is not None and not self.keep[t, replica]:
                schedule.append(int(self.nodes[t, replica]), ())
            else:
                schedule.append(
                    int(self.nodes[t, replica]),
                    tuple(int(v) for v in self.picked[t, replica]),
                )
        return schedule

    @classmethod
    def concatenate(
        cls, parts: Sequence["RecordedSelections"]
    ) -> "RecordedSelections":
        """Join block-wise recordings into one stream."""
        if not parts:
            raise ParameterError("no recorded selection blocks to concatenate")
        keep = None
        if any(p.keep is not None for p in parts):
            keep = np.concatenate(
                [
                    p.keep
                    if p.keep is not None
                    else np.ones(p.nodes.shape, dtype=bool)
                    for p in parts
                ]
            )
        return cls(
            nodes=np.concatenate([p.nodes for p in parts]),
            picked=np.concatenate([p.picked for p in parts]),
            keep=keep,
        )
