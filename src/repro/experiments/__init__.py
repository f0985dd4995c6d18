"""Experiment registry: one module per paper artefact.

Every experiment module registers itself with the
:func:`repro.api.experiment` decorator, declaring its id, the paper
artefact it reproduces, a typed parameter schema and the ``fast`` /
``full`` scale presets as data.  Importing this package triggers the
registrations — the modules below are imported in the order of the
DESIGN.md section-3 index, so :data:`repro.api.REGISTRY` iterates in
index order.  Run an experiment with
``repro.api.get_experiment(id).run(preset, seed, overrides)`` or execute
a :class:`repro.api.RunSpec` through :func:`repro.api.execute`.
"""

# Imported for registration side effects, in DESIGN.md index order.
from repro.experiments import exp_fig_duality  # EXP-F1, EXP-F4
from repro.experiments import exp_node_convergence  # EXP-T221
from repro.experiments import exp_k_dependence  # EXP-T221K
from repro.experiments import exp_lower_bound  # EXP-T221LB
from repro.experiments import exp_variance_regular  # EXP-T222
from repro.experiments import exp_edge_convergence  # EXP-T241
from repro.experiments import exp_variance_edge  # EXP-T242
from repro.experiments import exp_martingale  # EXP-L41
from repro.experiments import exp_qchain  # EXP-L57
from repro.experiments import exp_potential_drop  # EXP-PB1
from repro.experiments import exp_time_variance  # EXP-CE2
from repro.experiments import exp_price_of_simplicity  # EXP-PRICE
from repro.experiments import exp_higher_moments  # EXP-MOM
from repro.experiments import exp_variance_irregular  # EXP-IRR
from repro.experiments import exp_alpha_ablation  # EXP-ABL
from repro.experiments import exp_variance_trajectory  # EXP-VT
from repro.experiments import exp_dynamic_convergence  # EXP-DYN
from repro.experiments import exp_dynamic_martingale  # EXP-DYNM
from repro.experiments import exp_coalescing  # EXP-COAL
