"""Convergence-time bounds (Theorems 2.2(1), 2.4(1); Proposition B.2).

Upper bounds (w.h.p., up to constants):

    NodeModel:  T_eps = O( n log(n ||xi(0)||_2^2 / eps) / (1 - lambda_2(P)) )
    EdgeModel:  T_eps = O( m log(n ||xi(0)||_2^2 / eps) / lambda_2(L) )

Lower bounds for the adversarial eigenvector-aligned initial states
(Proposition B.2, ``xi(0) = n f_2``):

    NodeModel:  E[T_eps] = Omega( n log(n ||xi(0)||^2 / eps)
                                   / ((1-alpha)(1 - lambda_2(P))) )
    EdgeModel:  E[T_eps] = Omega( m log(n ||xi(0)||^2 / eps)
                                   / ((1-alpha) lambda_2(L)) )

These return the bound *expressions with constant 1*; experiments report
the ratio measured / bound, which Theorem 2.2 predicts to be Theta(1)
across graph families and sizes.  :func:`predicted_t_eps_node` additionally
exposes the sharper estimate ``log(phi(0)/eps) / rate`` using the exact
one-step rates of :mod:`repro.theory.contraction`, which tracks measured
times closely (including the mild ``(1 + 1/k)``-style dependence on
``k``).
"""

from __future__ import annotations

import math

from repro.exceptions import ParameterError
from repro.theory.contraction import node_model_contraction_rate


def _log_term(n: int, norm_sq: float, epsilon: float) -> float:
    if n < 2:
        raise ParameterError(f"n must be >= 2, got {n}")
    if norm_sq <= 0:
        raise ParameterError(f"||xi(0)||^2 must be positive, got {norm_sq}")
    if epsilon <= 0:
        raise ParameterError(f"epsilon must be positive, got {epsilon}")
    return math.log(n * norm_sq / epsilon)


def node_model_upper_bound(
    n: int, lambda2: float, norm_sq: float, epsilon: float
) -> float:
    """Theorem 2.2(1): ``n log(n ||xi||^2 / eps) / (1 - lambda_2(P))``."""
    if not 0.0 <= lambda2 < 1.0:
        raise ParameterError(f"lambda2 must be in [0, 1), got {lambda2}")
    return n * _log_term(n, norm_sq, epsilon) / (1.0 - lambda2)


def node_model_lower_bound(
    n: int, lambda2: float, norm_sq: float, epsilon: float, alpha: float
) -> float:
    """Proposition B.2 (NodeModel): the Omega(...) expression, constant 1."""
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must be in (0, 1), got {alpha}")
    if not 0.0 <= lambda2 < 1.0:
        raise ParameterError(f"lambda2 must be in [0, 1), got {lambda2}")
    return n * _log_term(n, norm_sq, epsilon) / ((1.0 - alpha) * (1.0 - lambda2))


def edge_model_upper_bound(
    n: int, m: int, lambda2_l: float, norm_sq: float, epsilon: float
) -> float:
    """Theorem 2.4(1): ``m log(n ||xi||^2 / eps) / lambda_2(L)``."""
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    if lambda2_l <= 0:
        raise ParameterError(f"lambda2(L) must be positive, got {lambda2_l}")
    return m * _log_term(n, norm_sq, epsilon) / lambda2_l


def edge_model_lower_bound(
    n: int, m: int, lambda2_l: float, norm_sq: float, epsilon: float, alpha: float
) -> float:
    """Proposition B.2 (EdgeModel): the Omega(...) expression, constant 1."""
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must be in (0, 1), got {alpha}")
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    if lambda2_l <= 0:
        raise ParameterError(f"lambda2(L) must be positive, got {lambda2_l}")
    return m * _log_term(n, norm_sq, epsilon) / ((1.0 - alpha) * lambda2_l)


def predicted_t_eps_node(
    n: int, lambda2: float, alpha: float, k: int, phi0: float, epsilon: float
) -> float:
    """Sharp NodeModel estimate ``log(phi(0)/eps) / rate`` (Prop. B.1 rate).

    Unlike the Theorem 2.2 expression this carries the exact dependence on
    ``alpha`` and ``k``, so the EXP-T221K experiment can check the claimed
    near-independence of ``k`` quantitatively.
    """
    if phi0 <= 0 or epsilon <= 0:
        raise ParameterError("phi0 and epsilon must be positive")
    if phi0 <= epsilon:
        return 0.0
    rate = node_model_contraction_rate(n, lambda2, alpha, k)
    if rate <= 0:
        raise ParameterError("contraction rate must be positive")
    return math.log(phi0 / epsilon) / rate
