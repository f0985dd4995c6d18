"""Closed-form theory oracle.

Implements every quantitative statement of the paper so the experiments
can print *predicted vs measured* rows:

* :mod:`repro.theory.convergence` — the ``T_eps`` bounds of Theorems
  2.2(1) and 2.4(1) and the lower bounds of Proposition B.2,
* :mod:`repro.theory.contraction` — the one-step contraction factors of
  Proposition B.1 (NodeModel) and Proposition D.1(ii) (EdgeModel), and
  the exact one-step expected potential they bound,
* :mod:`repro.theory.variance` — Lemma 5.7 / Proposition 5.8 variance
  bounds and the time-dependent envelopes of Corollary E.2,
* :mod:`repro.theory.martingale` — the expected one-step update matrices
  behind Lemma 4.1 and Proposition D.1(i),
* :mod:`repro.theory.absorbing` — exact mean-first-passage, pairwise
  meeting-time and full-coalescence-time expectations for the Section-5
  dual chains via absorbing-chain fundamental-matrix solves (the
  ``engine="exact"`` backend).
"""

from repro.theory.absorbing import (
    exact_coalescence_feasible,
    exact_coalescence_time,
    expected_meeting_time,
    mean_first_passage_times,
    meeting_time_matrix,
    walk_transition_matrix,
)
from repro.theory.contraction import (
    edge_model_contraction_factor,
    exact_one_step_phi,
    node_model_contraction_factor,
)
from repro.theory.convergence import (
    edge_model_lower_bound,
    edge_model_upper_bound,
    node_model_lower_bound,
    node_model_upper_bound,
)
from repro.theory.exact import (
    exact_avg_variance,
    exact_limit_variance,
    exact_variance_trajectory,
)
from repro.theory.martingale import (
    edge_model_expected_update,
    node_model_expected_update,
)
from repro.theory.variance import (
    VarianceBounds,
    variance_bounds,
    variance_envelope,
    variance_time_bound_avg,
    variance_time_bound_weighted,
)

__all__ = [
    "VarianceBounds",
    "edge_model_contraction_factor",
    "edge_model_expected_update",
    "exact_avg_variance",
    "exact_coalescence_feasible",
    "exact_coalescence_time",
    "exact_limit_variance",
    "exact_one_step_phi",
    "exact_variance_trajectory",
    "expected_meeting_time",
    "mean_first_passage_times",
    "meeting_time_matrix",
    "walk_transition_matrix",
    "edge_model_lower_bound",
    "edge_model_upper_bound",
    "node_model_contraction_factor",
    "node_model_expected_update",
    "node_model_lower_bound",
    "node_model_upper_bound",
    "variance_bounds",
    "variance_envelope",
    "variance_time_bound_avg",
    "variance_time_bound_weighted",
]
