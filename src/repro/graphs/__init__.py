"""Graph substrate: generators, compact adjacency, spectral toolkit.

The paper's processes run on arbitrary connected undirected graphs.  This
package provides

* :mod:`repro.graphs.generators` — named graph families used throughout the
  paper's discussion (cycle, clique, torus, hypercube, random regular,
  Erdős–Rényi, star, barbell, …),
* :mod:`repro.graphs.adjacency` — an immutable CSR-style adjacency structure
  optimised for the simulators' inner loops,
* :mod:`repro.graphs.spectral` — the lazy random-walk matrix ``P``, the
  Laplacian ``L``, their second eigenpairs and the stationary distribution
  ``pi`` (Section 4 of the paper),
* :mod:`repro.graphs.properties` — structural predicates and the distance
  classes ``S_0 / S_1 / S_+`` of Definition 5.6.
"""

from repro.graphs.adjacency import Adjacency, collect_content_hashes
from repro.graphs.generators import (
    barbell_graph,
    binary_tree_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    hypercube_graph,
    lollipop_graph,
    path_graph,
    petersen_graph,
    random_geometric_connected,
    random_regular_graph,
    star_graph,
    torus_graph,
)
from repro.graphs.properties import (
    degree_vector,
    distance_classes,
    is_bipartite,
    is_regular,
    require_connected,
    require_regular,
)
from repro.graphs.spectral import (
    laplacian_matrix,
    lazy_walk_matrix,
    second_laplacian_eigenpair,
    second_walk_eigenpair,
    simple_walk_matrix,
    stationary_distribution,
)

__all__ = [
    "Adjacency",
    "barbell_graph",
    "binary_tree_graph",
    "collect_content_hashes",
    "complete_graph",
    "cycle_graph",
    "degree_vector",
    "distance_classes",
    "erdos_renyi_graph",
    "hypercube_graph",
    "is_bipartite",
    "is_regular",
    "laplacian_matrix",
    "lazy_walk_matrix",
    "lollipop_graph",
    "path_graph",
    "petersen_graph",
    "random_geometric_connected",
    "random_regular_graph",
    "require_connected",
    "require_regular",
    "second_laplacian_eigenpair",
    "second_walk_eigenpair",
    "simple_walk_matrix",
    "star_graph",
    "stationary_distribution",
    "torus_graph",
]
