"""Tests for structural properties and Definition 5.6 distance classes."""

import networkx as nx
import numpy as np
import pytest

from repro.exceptions import NotConnectedError, NotRegularError
from repro.graphs import properties as props


class TestBasicPredicates:
    def test_degree_vector(self, star5):
        degrees = props.degree_vector(star5)
        assert degrees.tolist() == [5, 1, 1, 1, 1, 1]

    def test_is_regular(self, petersen, star5):
        assert props.is_regular(petersen)
        assert not props.is_regular(star5)

    def test_require_regular_returns_degree(self, petersen):
        assert props.require_regular(petersen) == 3

    def test_require_regular_raises(self, star5):
        with pytest.raises(NotRegularError, match="Lemma 5.7"):
            props.require_regular(star5, context="Lemma 5.7")

    def test_require_connected(self):
        with pytest.raises(NotConnectedError):
            props.require_connected(nx.Graph([(0, 1), (2, 3)]))

    def test_require_connected_passes(self, cycle6):
        props.require_connected(cycle6)  # no raise


class TestDistanceClasses:
    def test_counts_sum_to_n_squared(self, petersen):
        classes = props.distance_classes(petersen)
        s0, s1, s_plus = classes.counts
        assert s0 + s1 + s_plus == 100

    def test_s0_size_is_n(self, petersen):
        classes = props.distance_classes(petersen)
        assert classes.counts[0] == 10

    def test_s1_size_is_2m(self, petersen):
        classes = props.distance_classes(petersen)
        assert classes.counts[1] == 2 * 15

    def test_complete_graph_has_empty_s_plus(self):
        classes = props.distance_classes(nx.complete_graph(5))
        assert classes.counts == (5, 20, 0)

    def test_cycle_s_plus(self, cycle6):
        classes = props.distance_classes(cycle6)
        # 36 pairs: 6 diagonal, 12 adjacent, rest at distance >= 2.
        assert classes.counts == (6, 12, 18)

    def test_class_matrix_consistent(self, petersen):
        classes = props.distance_classes(petersen)
        matrix = classes.class_of()
        # Diagonal is class 0.
        assert np.all(np.diag(matrix) == 0)
        # Adjacent pairs are class 1 and symmetric.
        for u, v in petersen.edges():
            assert matrix[u, v] == 1 and matrix[v, u] == 1
        # Spot-check a distance-2 pair.
        paths = dict(nx.all_pairs_shortest_path_length(petersen))
        far = [(u, v) for u in paths for v, dist in paths[u].items() if dist >= 2]
        u, v = far[0]
        assert matrix[u, v] == 2
