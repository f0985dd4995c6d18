"""Bound-ratio diagnostics.

The asymptotic statements (``T_eps = O(...)``, ``Var(F) = Theta(...)``)
are validated empirically by :func:`ratio_statistics`, a summary of
measured/bound ratios across a sweep; a Theta(...) claim means the
ratios stay within a constant band.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import ParameterError


@dataclass(frozen=True)
class RatioStatistics:
    """Spread of measured/predicted ratios across a sweep."""

    minimum: float
    maximum: float
    geometric_mean: float

    @property
    def band(self) -> float:
        """``max / min`` — a Theta(...) claim keeps this O(1) in the sweep."""
        return self.maximum / self.minimum if self.minimum > 0 else float("inf")


def ratio_statistics(
    measured: Sequence[float], predicted: Sequence[float]
) -> RatioStatistics:
    """Summarise ``measured[i] / predicted[i]`` over a sweep."""
    m = np.asarray(measured, dtype=np.float64)
    p = np.asarray(predicted, dtype=np.float64)
    if m.shape != p.shape or m.ndim != 1 or len(m) == 0:
        raise ParameterError("measured and predicted must be equal-length 1-D")
    if np.any(p <= 0):
        raise ParameterError("predicted values must be positive")
    ratios = m / p
    positive = ratios[ratios > 0]
    geo = float(np.exp(np.mean(np.log(positive)))) if len(positive) else 0.0
    return RatioStatistics(
        minimum=float(ratios.min()),
        maximum=float(ratios.max()),
        geometric_mean=geo,
    )
