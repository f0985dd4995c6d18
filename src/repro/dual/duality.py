"""Executable duality (Proposition 5.1 / Lemma 5.2) and the worked figures.

Lemma 5.2 is an exact statement: run the Averaging Process forward on a
selection sequence ``chi`` and the Diffusion Process on the *reversed*
sequence ``chi^R`` (with cost ``c = xi(0)^T`` and identity initial loads),
and ``W(T) = xi(T)^T`` holds deterministically.  :func:`run_coupled`
performs the coupling and :func:`verify_duality` checks the identity to
machine precision.

:func:`figure1_trace` and :func:`figure4_trace` regenerate the paper's two
worked examples (triangle graph, ``xi(0) = [6, 8, 9]``, ``alpha = 1/2``,
``k = 1`` resp. ``k = 2``) including every intermediate matrix, so the
benchmark harness can print the exact numbers shown in the figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import networkx as nx
import numpy as np

from repro.core.node_model import NodeModel
from repro.core.schedule import Schedule
from repro.dual.diffusion import DiffusionProcess
from repro.dual.matrices import averaging_step_matrix, product_matrix
from repro.graphs.adjacency import Adjacency
from repro.rng import SeedLike


@dataclass(frozen=True)
class DualityTrace:
    """Everything produced by one coupled run.

    ``xi`` has shape ``(T+1, n)`` (states of the Averaging Process),
    ``w_final`` is the diffusion cost vector ``W(T)``, ``r_final`` the
    accumulated product ``R(T)`` of the reversed run, and ``schedule`` the
    forward selection sequence ``chi``.
    """

    xi: np.ndarray
    w_final: np.ndarray
    r_final: np.ndarray
    schedule: Schedule

    @property
    def max_error(self) -> float:
        """``max |W(T) - xi(T)|`` — zero up to floating point by Lemma 5.2."""
        return float(np.abs(self.w_final - self.xi[-1]).max())


def run_coupled(
    graph: nx.Graph | Adjacency,
    initial_values: Sequence[float],
    alpha: float,
    k: int = 1,
    steps: int = 10,
    seed: SeedLike = None,
    schedule: Schedule | None = None,
) -> DualityTrace:
    """Couple an Averaging run with its time-reversed Diffusion run.

    When ``schedule`` is given it is replayed deterministically; otherwise
    the NodeModel draws ``steps`` fresh selections (recorded).
    """
    adjacency = graph if isinstance(graph, Adjacency) else Adjacency.from_graph(graph)
    initial = np.asarray(initial_values, dtype=np.float64)

    process = NodeModel(
        adjacency, initial, alpha=alpha, k=k, seed=seed, record_schedule=True
    )
    states = [process.values.copy()]
    if schedule is None:
        for _ in range(steps):
            process.step()
            states.append(process.values.copy())
        schedule = process.schedule
    else:
        for step in schedule:
            process.replay(Schedule([step]))
            states.append(process.values.copy())

    assert schedule is not None
    diffusion = DiffusionProcess(adjacency, cost=initial, alpha=alpha, k=k)
    diffusion.replay(schedule.reversed())
    r_final = product_matrix(adjacency.n, schedule.reversed(), alpha)

    return DualityTrace(
        xi=np.vstack(states),
        w_final=diffusion.costs.copy(),
        r_final=r_final,
        schedule=schedule,
    )


def verify_duality(trace: DualityTrace, atol: float = 1e-9) -> bool:
    """Whether ``W(T) == xi(T)^T`` within ``atol`` (Lemma 5.2)."""
    return trace.max_error <= atol


# ----------------------------------------------------------------------
# Worked examples: Figure 1 (k = 1) and Figure 4 (k = 2)
# ----------------------------------------------------------------------
def _triangle() -> nx.Graph:
    """The 3-node graph of the figures (u1, u2, u3 pairwise adjacent)."""
    return nx.complete_graph(3)


@dataclass(frozen=True)
class FigureTrace:
    """A worked figure: states, step matrices, diffusion products, costs.

    All entries are exact rationals rendered as floats; ``expected_xi``
    holds the paper's printed values for cross-checking.
    """

    trace: DualityTrace
    f_matrices: list[np.ndarray]
    expected_xi: np.ndarray


def _figure_trace(k: int, schedule_pairs: list[tuple[int, tuple[int, ...]]],
                  expected_rows: list[list[Fraction]]) -> FigureTrace:
    graph = _triangle()
    initial = np.array([6.0, 8.0, 9.0])
    schedule = Schedule.from_pairs(schedule_pairs)
    trace = run_coupled(graph, initial, alpha=0.5, k=k, schedule=schedule)
    f_matrices = [
        averaging_step_matrix(3, step, alpha=0.5) for step in schedule
    ]
    expected = np.array([[float(x) for x in row] for row in expected_rows])
    return FigureTrace(trace=trace, f_matrices=f_matrices, expected_xi=expected)


def figure1_trace() -> FigureTrace:
    """Figure 1: ``alpha = 1/2, k = 1``.

    Step 1: ``u1`` averages with ``u2``; step 2: ``u2`` averages with
    ``u1``.  The paper reports ``xi(1) = [7, 8, 9]`` and
    ``xi(2) = W(2) = [7, 15/2, 9]``.
    """
    return _figure_trace(
        k=1,
        schedule_pairs=[(0, (1,)), (1, (0,))],
        expected_rows=[
            [Fraction(6), Fraction(8), Fraction(9)],
            [Fraction(7), Fraction(8), Fraction(9)],
            [Fraction(7), Fraction(15, 2), Fraction(9)],
        ],
    )


def figure4_trace() -> FigureTrace:
    """Figure 4 (Appendix F): ``alpha = 1/2, k = 2``.

    Step 1: ``u1`` averages with ``{u2, u3}``; step 2: ``u2`` averages with
    ``{u1, u3}``.  The paper reports ``xi(1) = [29/4, 8, 9]`` and
    ``xi(2) = W(2) = [29/4, 129/16, 9]``.
    """
    return _figure_trace(
        k=2,
        schedule_pairs=[(0, (1, 2)), (1, (0, 2))],
        expected_rows=[
            [Fraction(6), Fraction(8), Fraction(9)],
            [Fraction(29, 4), Fraction(8), Fraction(9)],
            [Fraction(29, 4), Fraction(129, 16), Fraction(9)],
        ],
    )
