"""Core averaging processes: the paper's primary contribution.

* :class:`repro.core.node_model.NodeModel` — Definition 2.1,
* :class:`repro.core.edge_model.EdgeModel` — Definition 2.3,
* :mod:`repro.core.potentials` — the ``pi``-weighted potential ``phi``
  (Eq. 3), the uniform potential ``phi_V`` (Proposition D.1), discrepancy,
  all maintained incrementally,
* :mod:`repro.core.schedule` — recorded selection sequences ``chi`` enabling
  the exact duality replay of Lemma 5.2,
* :mod:`repro.core.initial` — initial-value workloads, including the
  worst-case eigenvector-aligned states of Proposition B.2,
* :mod:`repro.core.convergence` — ``eps``-convergence detection and
  ``T_eps`` measurement.

These scalar processes are the oracles of the batch engine
(:mod:`repro.engine`): ``engine="loop"`` in :mod:`repro.sim.montecarlo`
runs one of them per replica.
"""

from repro.core.base import AveragingProcess, StepRecord
from repro.core.dynamic import DynamicAveraging
from repro.core.convergence import measure_t_eps, run_to_consensus
from repro.core.edge_model import EdgeModel
from repro.core.initial import (
    center_degree_weighted,
    center_simple,
    fiedler_aligned,
    gaussian_values,
    indicator_values,
    linear_ramp,
    rademacher_values,
    second_eigenvector_aligned,
    uniform_values,
)
from repro.core.node_model import NodeModel
from repro.core.potentials import (
    PotentialTracker,
    discrepancy,
    phi_pi,
    phi_uniform,
)
from repro.core.schedule import Schedule, SelectionStep

__all__ = [
    "AveragingProcess",
    "DynamicAveraging",
    "EdgeModel",
    "NodeModel",
    "PotentialTracker",
    "Schedule",
    "SelectionStep",
    "StepRecord",
    "center_degree_weighted",
    "center_simple",
    "discrepancy",
    "fiedler_aligned",
    "gaussian_values",
    "indicator_values",
    "linear_ramp",
    "measure_t_eps",
    "phi_pi",
    "phi_uniform",
    "rademacher_values",
    "run_to_consensus",
    "second_eigenvector_aligned",
    "uniform_values",
]
