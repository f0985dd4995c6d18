"""Dual machinery of Section 5.

* :mod:`repro.dual.matrices` — the step matrices ``B(t)`` (Eq. 4) and
  ``F(t) = B(t)^T`` and their products ``R(t)`` (Eq. 5),
* :mod:`repro.dual.diffusion` — the multi-commodity Diffusion Process,
* :mod:`repro.dual.walks` — the ``n`` correlated random walks driven by the
  same transition matrices (Section 5.2),
* :mod:`repro.dual.qchain` — the two-walk Q-chain (Section 5.3) and the
  closed-form stationary distribution of Lemma 5.7,
* :mod:`repro.dual.duality` — the executable coupling of Proposition 5.1 /
  Lemma 5.2 plus the worked examples of Figure 1 and Figure 4.

The process classes are thin single-replica facades over the vectorized
dual batch engine (:mod:`repro.engine.dual`), which advances ``B``
replicas of the diffusion loads, the correlated walks or the coalescing
walks per round and drives the shared-schedule duality at engine scale
(:func:`repro.engine.dual.run_duality_batch`).
"""

from repro.dual.coalescing import CoalescingWalks, meeting_time_estimate
from repro.dual.diffusion import DiffusionProcess
from repro.dual.duality import (
    DualityTrace,
    figure1_trace,
    figure4_trace,
    run_coupled,
    verify_duality,
)
from repro.dual.matrices import (
    averaging_step_matrix,
    diffusion_step_matrix,
    product_matrix,
)
from repro.dual.qchain import (
    QChain,
    mu_closed_form,
    stationary_distribution_numeric,
)
from repro.dual.walks import RandomWalkProcess

__all__ = [
    "CoalescingWalks",
    "DiffusionProcess",
    "DualityTrace",
    "QChain",
    "RandomWalkProcess",
    "averaging_step_matrix",
    "diffusion_step_matrix",
    "figure1_trace",
    "meeting_time_estimate",
    "figure4_trace",
    "mu_closed_form",
    "product_matrix",
    "run_coupled",
    "stationary_distribution_numeric",
    "verify_duality",
]
