"""Tests for the named graph families."""

import networkx as nx
import pytest

from repro.exceptions import ParameterError
from repro.graphs import generators as gen


FAMILIES = {
    "barbell": gen.barbell_graph,
    "binary_tree": gen.binary_tree_graph,
    "complete": gen.complete_graph,
    "cycle": gen.cycle_graph,
    "erdos_renyi": gen.erdos_renyi_graph,
    "hypercube": gen.hypercube_graph,
    "lollipop": gen.lollipop_graph,
    "path": gen.path_graph,
    "petersen": gen.petersen_graph,
    "random_geometric": gen.random_geometric_connected,
    "random_regular": gen.random_regular_graph,
    "star": gen.star_graph,
    "torus": gen.torus_graph,
}
ALL_FAMILIES = sorted(FAMILIES)


class TestRegistry:
    """Properties every generator in the ``FAMILIES`` table shares."""

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_every_family_produces_connected_graph(self, family):
        n = {"petersen": 10, "torus": 16, "hypercube": 16, "barbell": 10}.get(
            family, 12
        )
        graph = FAMILIES[family](n, **({"seed": 3} if family in
                 ("random_regular", "erdos_renyi", "random_geometric") else {}),
                 **({"d": 4} if family == "random_regular" else {}))
        assert nx.is_connected(graph)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_nodes_relabelled_to_range(self, family):
        n = {"petersen": 10, "torus": 9, "hypercube": 8, "barbell": 8}.get(
            family, 8
        )
        kwargs = {}
        if family in ("random_regular", "erdos_renyi", "random_geometric"):
            kwargs["seed"] = 5
        if family == "random_regular":
            kwargs["d"] = 3
        graph = FAMILIES[family](n, **kwargs)
        assert sorted(graph.nodes()) == list(range(graph.number_of_nodes()))


class TestSpecificShapes:
    def test_cycle_is_2_regular(self):
        graph = gen.cycle_graph(9)
        assert all(d == 2 for _, d in graph.degree())

    def test_complete_edge_count(self):
        graph = gen.complete_graph(7)
        assert graph.number_of_edges() == 21

    def test_star_degrees(self):
        graph = gen.star_graph(8)
        degrees = sorted(d for _, d in graph.degree())
        assert degrees == [1] * 7 + [7]

    def test_torus_is_4_regular(self):
        graph = gen.torus_graph(25)
        assert all(d == 4 for _, d in graph.degree())

    def test_torus_requires_square(self):
        with pytest.raises(ParameterError):
            gen.torus_graph(24)

    def test_torus_requires_r_at_least_3(self):
        with pytest.raises(ParameterError):
            gen.torus_graph(4)

    def test_hypercube_regular_log_degree(self):
        graph = gen.hypercube_graph(16)
        assert all(d == 4 for _, d in graph.degree())

    def test_hypercube_requires_power_of_two(self):
        with pytest.raises(ParameterError):
            gen.hypercube_graph(12)

    def test_random_regular_degree(self):
        graph = gen.random_regular_graph(20, 5, seed=1)
        assert all(d == 5 for _, d in graph.degree())

    def test_random_regular_parity_check(self):
        with pytest.raises(ParameterError):
            gen.random_regular_graph(9, 5, seed=1)

    def test_random_regular_needs_n_greater_than_d(self):
        with pytest.raises(ParameterError):
            gen.random_regular_graph(4, 4, seed=1)

    def test_erdos_renyi_connected_with_default_p(self):
        graph = gen.erdos_renyi_graph(40, seed=2)
        assert nx.is_connected(graph)

    def test_erdos_renyi_p_validation(self):
        with pytest.raises(ParameterError):
            gen.erdos_renyi_graph(10, p=1.5)

    def test_barbell_structure(self):
        graph = gen.barbell_graph(10)
        degrees = sorted(d for _, d in graph.degree())
        # two K5s joined by one edge: two nodes of degree 5, rest 4.
        assert degrees == [4] * 8 + [5] * 2

    def test_barbell_requires_even(self):
        with pytest.raises(ParameterError):
            gen.barbell_graph(9)

    def test_binary_tree_node_count(self):
        graph = gen.binary_tree_graph(11)
        assert graph.number_of_nodes() == 11
        assert nx.is_tree(graph)

    def test_petersen_shape(self):
        graph = gen.petersen_graph()
        assert graph.number_of_nodes() == 10
        assert all(d == 3 for _, d in graph.degree())

    def test_petersen_rejects_other_sizes(self):
        with pytest.raises(ParameterError):
            gen.petersen_graph(12)

    def test_lollipop_connected(self):
        graph = gen.lollipop_graph(11)
        assert nx.is_connected(graph)
        assert graph.number_of_nodes() == 11

    def test_random_geometric_connected(self):
        graph = gen.random_geometric_connected(30, seed=4)
        assert nx.is_connected(graph)

    def test_random_geometric_radius_validation(self):
        with pytest.raises(ParameterError):
            gen.random_geometric_connected(10, radius=-0.1)

    def test_path_minimum_size(self):
        with pytest.raises(ParameterError):
            gen.path_graph(1)


class TestDeterminism:
    def test_random_regular_seed_reproducible(self):
        a = gen.random_regular_graph(16, 4, seed=11)
        b = gen.random_regular_graph(16, 4, seed=11)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_erdos_renyi_seed_reproducible(self):
        a = gen.erdos_renyi_graph(25, seed=11)
        b = gen.erdos_renyi_graph(25, seed=11)
        assert sorted(a.edges()) == sorted(b.edges())
