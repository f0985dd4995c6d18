"""Analysis helpers: bound-ratio diagnostics."""

from repro.analysis.fits import ratio_statistics

__all__ = [
    "ratio_statistics",
]
