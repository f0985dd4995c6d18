"""Monte-Carlo harness: seeded replication and estimators.

The variance experiments need i.i.d. samples of the random convergence
value ``F``; the convergence-time experiments need i.i.d. samples of
``T_eps``.  :mod:`repro.sim.montecarlo` provides both with reproducible
seed fan-out, and :mod:`repro.sim.results` collects the rows every
front end renders.
"""

from repro.sim.montecarlo import (
    MomentEstimate,
    estimate_moments,
    sample_f_values,
    sample_meeting_times,
    sample_t_eps,
)
from repro.sim.results import ResultTable

__all__ = [
    "MomentEstimate",
    "ResultTable",
    "estimate_moments",
    "sample_f_values",
    "sample_meeting_times",
    "sample_t_eps",
]
