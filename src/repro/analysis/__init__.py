"""Analysis helpers: scaling fits and bound-ratio diagnostics."""

from repro.analysis.fits import loglog_slope, ratio_statistics

__all__ = [
    "loglog_slope",
    "ratio_statistics",
]
