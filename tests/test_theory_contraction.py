"""Tests for the one-step contraction factors (Prop B.1 / D.1(ii))."""

import itertools

import networkx as nx
import numpy as np
import pytest

from repro.core.edge_model import EdgeModel
from repro.core.node_model import NodeModel
from repro.core.potentials import phi_pi, phi_uniform
from repro.core.schedule import Schedule
from repro.engine import EngineSpec, sample_checkpoints_batch
from repro.engine.driver import PHI
from repro.exceptions import ParameterError
from repro.graphs.adjacency import Adjacency
from repro.graphs.generators import cycle_graph, lollipop_graph, random_regular_graph
from repro.graphs.spectral import (
    second_laplacian_eigenpair,
    second_walk_eigenpair,
    stationary_distribution,
)
from repro.theory import contraction


class TestNodeFactor:
    def test_k1_closed_form(self):
        # For k = 1 the bracket reduces to 2 alpha.
        factor = contraction.node_model_contraction_factor(10, 0.5, 0.5, 1)
        expected = 1.0 - (0.5 * 0.5 * 2 * 0.5) / 10
        assert factor == pytest.approx(expected)

    def test_factor_in_unit_interval(self):
        for alpha in (0.1, 0.5, 0.9):
            for k in (1, 2, 8):
                factor = contraction.node_model_contraction_factor(20, 0.7, alpha, k)
                assert 0.0 < factor < 1.0

    def test_rate_increases_with_k(self):
        # More sampled neighbours -> (weakly) faster contraction.
        rates = [
            contraction.node_model_contraction_rate(20, 0.6, 0.5, k)
            for k in (1, 2, 4, 8)
        ]
        assert all(b >= a - 1e-15 for a, b in zip(rates, rates[1:]))

    def test_rate_k_dependence_bounded_by_factor_two(self):
        # The paper: the k-dependent factor is (1 + 1/k)-like, in [1, 2].
        rate1 = contraction.node_model_contraction_rate(20, 0.6, 0.5, 1)
        rate_inf = contraction.node_model_contraction_rate(20, 0.6, 0.5, 10**6)
        assert rate_inf / rate1 <= 2.0 + 1e-9

    def test_validation(self):
        with pytest.raises(ParameterError):
            contraction.node_model_contraction_factor(1, 0.5, 0.5, 1)
        with pytest.raises(ParameterError):
            contraction.node_model_contraction_factor(10, 1.0, 0.5, 1)
        with pytest.raises(ParameterError):
            contraction.node_model_contraction_factor(10, 0.5, 0.5, 0)


class TestEdgeFactor:
    def test_closed_form(self):
        factor = contraction.edge_model_contraction_factor(15, 2.0, 0.5)
        assert factor == pytest.approx(1.0 - 0.5 * 0.5 * 2.0 / 15)

    def test_validation(self):
        with pytest.raises(ParameterError):
            contraction.edge_model_contraction_factor(0, 1.0, 0.5)
        with pytest.raises(ParameterError):
            contraction.edge_model_contraction_factor(10, 0.0, 0.5)


class TestEmpiricalContraction:
    """Monte-Carlo verification that the factors really bound the drop."""

    @pytest.mark.parametrize("alpha,k", [(0.5, 1), (0.3, 2)])
    def test_node_bound_holds_from_random_state(self, small_regular, rng, alpha, k):
        initial = rng.normal(size=10)
        pi = stationary_distribution(small_regular)
        lambda2, _ = second_walk_eigenpair(small_regular)
        phi0 = phi_pi(pi, initial)
        bound = contraction.node_model_contraction_factor(10, lambda2, alpha, k)
        trials = 20_000
        process = NodeModel(small_regular, initial, alpha=alpha, k=k, seed=1)
        total = 0.0
        for _ in range(trials):
            process.reset()
            process.step()
            total += process.phi
        measured = (total / trials) / phi0
        assert measured <= bound + 4.0 / np.sqrt(trials)

    def test_node_bound_tight_on_f2(self, small_regular):
        # On xi = f_2 with k = 1 the bound is close but not attained (the
        # exact gap is far below this Monte-Carlo tolerance; see
        # TestExactOneStepPhi), so measured ~= bound.
        lambda2, f2 = second_walk_eigenpair(small_regular)
        pi = stationary_distribution(small_regular)
        phi0 = phi_pi(pi, f2)
        bound = contraction.node_model_contraction_factor(10, lambda2, 0.5, 1)
        trials = 60_000
        process = NodeModel(small_regular, f2, alpha=0.5, k=1, seed=2)
        total = 0.0
        for _ in range(trials):
            process.reset()
            process.step()
            total += process.phi
        measured = (total / trials) / phi0
        assert measured == pytest.approx(bound, abs=6.0 / np.sqrt(trials))

    def test_edge_bound_holds(self, rng):
        graph = cycle_graph(12)
        initial = rng.normal(size=12)
        initial -= initial.mean()
        lambda2_l, _ = second_laplacian_eigenpair(graph)
        bound = contraction.edge_model_contraction_factor(12, lambda2_l, 0.5)
        phi0 = phi_uniform(initial)
        trials = 20_000
        process = EdgeModel(graph, initial, alpha=0.5, seed=3)
        total = 0.0
        for _ in range(trials):
            process.reset()
            process.step()
            total += phi_uniform(process.values)
        measured = (total / trials) / phi0
        assert measured <= bound + 4.0 / np.sqrt(trials)


def _brute_force_one_step_phi(graph, values, alpha, k, model):
    """E[phi] over every one-step selection, replayed on a scalar process."""
    adjacency = Adjacency.from_graph(graph)
    n = adjacency.n
    if model == "node":
        process = NodeModel(graph, values, alpha=alpha, k=k)
        outcomes = [
            ((u, sample), 1.0 / (n * len(samples)))
            for u in range(n)
            for samples in [
                list(itertools.combinations(adjacency.neighbors_of(u).tolist(), k))
            ]
            for sample in samples
        ]
    else:
        process = EdgeModel(graph, values, alpha=alpha)
        outcomes = [
            ((int(u), (int(v),)), 1.0 / adjacency.num_directed_edges)
            for u, v in zip(adjacency.edge_tails, adjacency.edge_heads)
        ]
    total = 0.0
    for selection, probability in outcomes:
        process.reset()
        process.replay(Schedule.from_pairs([selection]))
        total += probability * process.phi
    return total


class TestExactOneStepPhi:
    """The exact one-step E[phi] against the scalar processes as oracle."""

    @pytest.mark.parametrize(
        "graph,model,k",
        [
            (cycle_graph(7), "node", 1),
            (cycle_graph(7), "node", 2),
            (nx.petersen_graph(), "node", 1),
            (nx.petersen_graph(), "node", 2),
            (lollipop_graph(9), "node", 1),  # irregular: pi-weighted
            (cycle_graph(7), "edge", 1),
            (nx.petersen_graph(), "edge", 1),
            (lollipop_graph(9), "edge", 1),
        ],
        ids=[
            "cycle-node-k1", "cycle-node-k2", "petersen-node-k1",
            "petersen-node-k2", "lollipop-node-k1", "cycle-edge",
            "petersen-edge", "lollipop-edge",
        ],
    )
    def test_matches_brute_force_replay(self, graph, model, k):
        # Off-centre values exercise the first-moment term of the update.
        values = np.random.default_rng(5).normal(1.0, 1.0, graph.number_of_nodes())
        exact = contraction.exact_one_step_phi(graph, values, 0.3, k, model)
        oracle = _brute_force_one_step_phi(graph, values, 0.3, k, model)
        assert exact == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize(
        "graph",
        [cycle_graph(24), nx.petersen_graph(), random_regular_graph(24, 4, seed=0)],
        ids=["cycle24", "petersen", "random_regular"],
    )
    def test_node_k1_equals_edge_on_regular_graphs(self, graph):
        # On a regular graph a uniform node plus a uniform neighbour is a
        # uniform directed edge: the two one-step laws coincide.
        _, f2 = second_walk_eigenpair(graph)
        node = contraction.exact_one_step_phi(graph, f2, 0.5, 1, "node")
        edge = contraction.exact_one_step_phi(graph, f2, 0.5, 1, "edge")
        assert node == pytest.approx(edge, rel=1e-12)

    def test_cycle_f2_factor_sits_below_the_bound(self):
        graph = cycle_graph(24)
        lambda2, f2 = second_walk_eigenpair(graph)
        pi = stationary_distribution(graph)
        factor = contraction.exact_one_step_phi(graph, f2, 0.5) / phi_pi(pi, f2)
        bound = contraction.node_model_contraction_factor(24, lambda2, 0.5, 1)
        assert factor == pytest.approx(0.9992605431, abs=1e-10)
        assert bound - factor == pytest.approx(3.845e-4, rel=1e-3)

    @pytest.mark.parametrize("model,k", [("node", 1), ("node", 2), ("edge", 1)])
    def test_batched_monte_carlo_agrees(self, small_regular, model, k):
        # |z| <= 4: false-alarm rate 6.3e-5 per case (normal approximation).
        values = np.random.default_rng(6).normal(size=10)
        exact = contraction.exact_one_step_phi(small_regular, values, 0.5, k, model)
        spec = EngineSpec(
            kind=model, adjacency=Adjacency.from_graph(small_regular),
            initial_values=values, alpha=0.5, k=k,
        )
        trials = 20_000
        phi = sample_checkpoints_batch(spec, [1], trials, seed=7)[:, 0, PHI]
        z = (phi.mean() - exact) / (phi.std(ddof=1) / np.sqrt(trials))
        assert abs(z) <= 4.0

    def test_validation(self, small_regular):
        values = np.zeros(10)
        with pytest.raises(ParameterError):
            contraction.exact_one_step_phi(small_regular, values, 0.5, k=5)
        with pytest.raises(ParameterError):
            contraction.exact_one_step_phi(small_regular, values, 0.5, model="pair")
        with pytest.raises(ParameterError):
            contraction.exact_one_step_phi(small_regular, values[:3], 0.5)
