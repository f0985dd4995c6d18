"""Step matrices of the Averaging and Diffusion Processes.

Equation (4) of the paper defines the diffusion step matrix ``B(t)`` for a
selection ``(u, S)`` with ``|S| = k``:

    B[i, j] = 1            if i = j != u
              alpha        if i = j = u
              (1-alpha)/k  if i in S and j = u
              0            otherwise,

i.e. column ``u`` spreads a ``(1 - alpha)`` fraction of ``u``'s load evenly
over ``S``.  The Averaging Process applies the transpose:
``xi(t) = F(t) xi(t-1)`` with ``F(t) = B'(t)^T`` for the selection used at
step ``t`` (Lemma 5.2).  ``R(t) = B(t) B(t-1) ... B(1)`` (Eq. 5) accumulates
a whole run.

These dense matrices exist for exactness, not speed: the simulators use
O(k) sparse updates; the matrices back the duality *proofs-by-execution*
and the worked examples of Figures 1 and 4.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.schedule import Schedule, SelectionStep
from repro.exceptions import ParameterError


def diffusion_step_matrix(n: int, step: SelectionStep, alpha: float) -> np.ndarray:
    """The matrix ``B`` of Eq. (4) for selection ``step`` on ``n`` nodes.

    A lazy no-op step yields the identity.
    """
    if not 0.0 <= alpha < 1.0:
        raise ParameterError(f"alpha must be in [0, 1), got {alpha}")
    if not 0 <= step.node < n:
        raise ParameterError(f"node {step.node} out of range for n = {n}")
    matrix = np.eye(n)
    if step.is_noop:
        return matrix
    k = len(step.sample)
    u = step.node
    matrix[u, u] = alpha
    share = (1.0 - alpha) / k
    for v in step.sample:
        if not 0 <= v < n:
            raise ParameterError(f"sampled node {v} out of range for n = {n}")
        matrix[v, u] += share
    return matrix


def averaging_step_matrix(n: int, step: SelectionStep, alpha: float) -> np.ndarray:
    """The matrix ``F = B^T`` applying one Averaging Process step.

    Row ``u`` becomes ``alpha`` on the diagonal and ``(1-alpha)/k`` on the
    sampled neighbours; all other rows are identity — exactly the
    unilateral update of Definitions 2.1/2.3.
    """
    return diffusion_step_matrix(n, step, alpha).T


def product_matrix(
    n: int, steps: Iterable[SelectionStep] | Schedule, alpha: float
) -> np.ndarray:
    """``R = B(t_last) ... B(t_first)`` over the given steps (Eq. 5).

    Steps are consumed in iteration order as times ``1..T``, and the
    product is accumulated as ``R <- B R``, matching
    ``R(t) = B(t) R(t-1)``.
    """
    result = np.eye(n)
    for step in steps:
        result = diffusion_step_matrix(n, step, alpha) @ result
    return result


def is_stochastic(matrix: np.ndarray, axis: int = 1, atol: float = 1e-12) -> bool:
    """Whether ``matrix`` is (row- by default) stochastic.

    The paper stresses that the update matrices are stochastic but *not*
    doubly stochastic (Section 1): rows of ``F`` sum to one, columns
    generally do not.
    """
    if np.any(matrix < -atol):
        return False
    sums = matrix.sum(axis=axis)
    return bool(np.allclose(sums, 1.0, atol=atol))
