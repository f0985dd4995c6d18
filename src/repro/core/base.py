"""Shared machinery of the two asynchronous averaging processes.

Both models perform, at each time step, the unilateral update

    xi_u(t) = alpha * xi_u(t-1) + (1 - alpha)/k * sum_i xi_{v_i}(t-1)

for a selected node ``u`` and neighbour sample ``v_1..v_k``; they differ
only in *how* ``(u, S)`` is drawn (uniform node + uniform k-subset for the
NodeModel, uniform directed edge for the EdgeModel).
:class:`AveragingProcess` implements everything else: the update, the
incremental potential/martingale tracking, optional laziness (Section 4),
optional schedule recording (for the duality of Section 5), and replay.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Sequence

import networkx as nx
import numpy as np

from repro.core.potentials import PotentialTracker, discrepancy
from repro.core.schedule import Schedule
from repro.exceptions import ParameterError
from repro.graphs.adjacency import Adjacency
from repro.rng import SeedLike, as_generator


@dataclass(frozen=True)
class StepRecord:
    """What happened in one executed step.

    ``node`` and ``sample`` echo the selection ``chi(t)``; ``old_value`` and
    ``new_value`` give the unilateral update at ``node``.  Lazy no-op steps
    produce ``sample == ()`` and equal old/new values.
    """

    t: int
    node: int
    sample: tuple[int, ...]
    old_value: float
    new_value: float

    @property
    def is_noop(self) -> bool:
        return len(self.sample) == 0


class AveragingProcess(abc.ABC):
    """Base class for the NodeModel and the EdgeModel.

    Parameters
    ----------
    graph:
        A connected undirected graph (``networkx.Graph`` or pre-frozen
        :class:`Adjacency`).
    initial_values:
        The vector ``xi(0)`` of length ``n``.
    alpha:
        Self-weight ``alpha`` in ``(0, 1)``.  The boundary ``alpha = 0`` is
        additionally admitted so the voter-model special case
        (Definition 2.1 with ``k = 1``) can be exercised.
    seed:
        Seed / generator for the process's random choices.
    lazy:
        If set, each step first flips a fair coin and performs no update on
        tails — the lazy variant of Section 4 whose transition structure
        matches the lazy walk matrix ``P``.
    record_schedule:
        If set, every step's selection is appended to :attr:`schedule`, to
        be replayed (reversed) by the dual Diffusion Process.
    """

    def __init__(
        self,
        graph: nx.Graph | Adjacency,
        initial_values: Sequence[float],
        alpha: float,
        seed: SeedLike = None,
        lazy: bool = False,
        record_schedule: bool = False,
    ) -> None:
        if not 0.0 <= alpha < 1.0:
            raise ParameterError(f"alpha must be in [0, 1), got {alpha}")
        self.adjacency = (
            graph if isinstance(graph, Adjacency) else Adjacency.from_graph(graph)
        )
        values = np.asarray(initial_values, dtype=np.float64).copy()
        if values.shape != (self.adjacency.n,):
            raise ParameterError(
                f"initial_values must have shape ({self.adjacency.n},), "
                f"got {values.shape}"
            )
        self.alpha = float(alpha)
        self.lazy = bool(lazy)
        self.rng = as_generator(seed)
        self._initial = values.copy()
        self.values = values
        self.t = 0
        self._pi = self.adjacency.stationary_pi()
        self._tracker = PotentialTracker(self._pi, self.values)
        self.schedule: Optional[Schedule] = Schedule() if record_schedule else None

    # ------------------------------------------------------------------
    # Selection: the only model-specific ingredient
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _select(self) -> tuple[int, np.ndarray]:
        """Draw ``(u, S)`` for the next step according to the model's law."""

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self) -> StepRecord:
        """Execute one time step and return its :class:`StepRecord`."""
        self.t += 1
        if self.lazy and self.rng.random() < 0.5:
            node = int(self.rng.integers(self.adjacency.n))
            if self.schedule is not None:
                self.schedule.append(node, ())
            value = float(self.values[node])
            return StepRecord(self.t, node, (), value, value)

        node, sample = self._select()
        record = self._apply(node, sample)
        if self.schedule is not None:
            self.schedule.append(node, sample)
        return record

    def _apply(self, node: int, sample: np.ndarray) -> StepRecord:
        """Apply the unilateral averaging update at ``node``."""
        old = float(self.values[node])
        neighbour_mean = float(self.values[sample].mean())
        new = self.alpha * old + (1.0 - self.alpha) * neighbour_mean
        self.values[node] = new
        self._tracker.update(node, old, new, self.values)
        return StepRecord(self.t, node, tuple(int(v) for v in sample), old, new)

    def run(self, steps: int) -> None:
        """Execute ``steps`` further time steps.

        Dispatches to the model's batched fast loop when no schedule is
        being recorded; behaviour (in law) is identical to calling
        :meth:`step` repeatedly.
        """
        if steps < 0:
            raise ParameterError(f"steps must be non-negative, got {steps}")
        self._fast_loop(steps, epsilon=None)

    def run_until_phi(self, epsilon: float, max_steps: int) -> int | None:
        """Run until ``phi <= epsilon`` or ``max_steps`` elapse.

        Returns the number of steps executed when the threshold was hit,
        or ``None`` if the budget ran out first.
        """
        if epsilon <= 0:
            raise ParameterError(f"epsilon must be positive, got {epsilon}")
        if max_steps < 0:
            raise ParameterError(f"max_steps must be non-negative, got {max_steps}")
        if self.is_converged(epsilon):
            return 0
        executed = self._fast_loop(max_steps, epsilon=epsilon)
        return executed if self.is_converged(epsilon) else None

    def _fast_loop(self, steps: int, epsilon: float | None) -> int:
        """Generic step loop; subclasses override with batched versions.

        Returns the number of steps actually executed (may stop early when
        ``epsilon`` is given and reached).
        """
        executed = 0
        while executed < steps:
            self.step()
            executed += 1
            if epsilon is not None and self._tracker.phi <= epsilon:
                break
        return executed

    def replay(self, schedule: Schedule) -> None:
        """Apply a recorded selection sequence deterministically.

        Used by the duality experiments: the same ``chi`` drives the
        Averaging Process forward while the Diffusion Process consumes
        ``chi`` reversed (Lemma 5.2).
        """
        for step in schedule:
            self.t += 1
            if step.is_noop:
                continue
            self._apply(step.node, np.asarray(step.sample, dtype=np.int64))

    def reset(self, values: Sequence[float] | None = None) -> None:
        """Restore ``xi(0)`` (or set a new initial vector) and ``t = 0``."""
        if values is not None:
            values = np.asarray(values, dtype=np.float64).copy()
            if values.shape != (self.adjacency.n,):
                raise ParameterError(
                    f"values must have shape ({self.adjacency.n},), got {values.shape}"
                )
            self._initial = values.copy()
        self.values = self._initial.copy()
        self.t = 0
        self._tracker.reset(self.values)
        if self.schedule is not None:
            self.schedule = Schedule()

    # ------------------------------------------------------------------
    # Observables
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.adjacency.n

    @property
    def pi(self) -> np.ndarray:
        """Stationary distribution ``pi_u = d_u / 2m`` (read-only copy)."""
        return self._pi.copy()

    @property
    def phi(self) -> float:
        """Current potential ``phi(xi(t))`` (Eq. 3), tracked incrementally."""
        return self._tracker.phi

    @property
    def simple_average(self) -> float:
        """``Avg(t) = (1/n) sum_u xi_u(t)`` (Eq. 1)."""
        return float(self.values.mean())

    @property
    def weighted_average(self) -> float:
        """``M(t) = sum_u d_u/(2m) xi_u(t)`` (Eq. 1) — the NodeModel martingale."""
        return self._tracker.weighted_mean

    @property
    def discrepancy(self) -> float:
        """``K(t) = max_u xi_u(t) - min_u xi_u(t)``."""
        return discrepancy(self.values)

    def is_converged(self, epsilon: float) -> bool:
        """Whether the state is ``eps``-converged, i.e. ``phi(xi(t)) <= eps``."""
        return self.phi <= epsilon
