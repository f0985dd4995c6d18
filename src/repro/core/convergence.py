"""``eps``-convergence detection and ``T_eps`` measurement.

The paper defines the state ``xi(t)`` to be *eps-converged* when
``phi(xi(t)) <= eps`` (Section 4), and ``T_eps`` as the first such time.
Because :class:`~repro.core.base.AveragingProcess` tracks ``phi``
incrementally, :func:`measure_t_eps` costs O(1) per step on top of the
simulation itself, so the convergence-time experiments measure ``T_eps``
*exactly* rather than by sub-sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.base import AveragingProcess
from repro.exceptions import ConvergenceError, ParameterError


@dataclass(frozen=True)
class ConsensusResult:
    """Outcome of a run-to-consensus.

    ``t`` is the number of executed steps, ``value`` the common value ``F``
    reached (the mean of the final vector — all coordinates agree to within
    ``residual_discrepancy``).
    """

    t: int
    value: float
    residual_discrepancy: float
    phi: float


def measure_t_eps(
    process: AveragingProcess,
    epsilon: float,
    max_steps: int,
) -> int:
    """Run ``process`` until ``phi(xi(t)) <= epsilon`` and return ``T_eps``.

    Counts steps executed *from the current state* (callers normally start
    at ``t = 0``).  Raises :class:`ConvergenceError` if the budget
    ``max_steps`` is exhausted first — convergence-time experiments treat
    that as a failed configuration rather than silently reporting the cap.
    """
    if epsilon <= 0:
        raise ParameterError(f"epsilon must be positive, got {epsilon}")
    if max_steps < 0:
        raise ParameterError(f"max_steps must be non-negative, got {max_steps}")
    executed = process.run_until_phi(epsilon, max_steps)
    if executed is None:
        raise ConvergenceError(
            f"phi = {process.phi:.3e} > epsilon = {epsilon:.3e} "
            f"after {max_steps} steps"
        )
    return executed


def run_to_consensus(
    process: AveragingProcess,
    discrepancy_tol: float = 1e-9,
    max_steps: int = 50_000_000,
    check_every: int = 64,
) -> ConsensusResult:
    """Run until the value spread falls below ``discrepancy_tol``.

    This is how the Monte-Carlo harness samples the convergence value
    ``F``: once ``max - min <= tol`` the common value is determined to
    within ``tol`` and we report the mean.  The potential gives a cheap
    O(1) necessary condition, so the O(n) discrepancy check only runs when
    the potential is already small and at most every ``check_every`` steps.
    """
    if discrepancy_tol <= 0:
        raise ParameterError(f"discrepancy_tol must be positive, got {discrepancy_tol}")
    if check_every < 1:
        raise ParameterError(f"check_every must be positive, got {check_every}")

    # phi >= pi_min^2 * sum of squared deviations is awkward; use the simple
    # sufficient relation: spread K satisfies
    #   phi >= pi_min^2 * K^2   (the max and min nodes contribute at least
    #   pi_min * pi_min * K^2 to the pairwise form of Eq. 3),
    # so phi <= pi_min^2 * tol^2 implies K <= tol.  We use the cheap phi
    # gate first, then confirm with the exact spread.
    pi_min = float(process.pi.min())
    phi_gate = (pi_min * discrepancy_tol) ** 2

    start = process.t
    while process.t - start < max_steps:
        remaining = max_steps - (process.t - start)
        process.run(min(check_every, remaining))
        if process.phi <= phi_gate or process.discrepancy <= discrepancy_tol:
            spread = process.discrepancy
            if spread <= discrepancy_tol:
                return ConsensusResult(
                    t=process.t - start,
                    value=float(process.values.mean()),
                    residual_discrepancy=spread,
                    phi=process.phi,
                )
    raise ConvergenceError(
        f"discrepancy = {process.discrepancy:.3e} > tol = {discrepancy_tol:.3e} "
        f"after {max_steps} steps"
    )
