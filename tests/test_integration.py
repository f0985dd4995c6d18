"""Cross-module integration tests: end-to-end paper claims at small scale."""

import networkx as nx
import numpy as np
import pytest

from repro.core.convergence import measure_t_eps, run_to_consensus
from repro.core.initial import center_simple, rademacher_values
from repro.core.edge_model import EdgeModel
from repro.core.node_model import NodeModel
from repro.dual.duality import run_coupled, verify_duality
from repro.engine import EngineSpec
from repro.graphs.adjacency import Adjacency
from repro.graphs.spectral import (
    second_laplacian_eigenpair,
    second_walk_eigenpair,
    stationary_distribution,
)
from repro.sim.montecarlo import estimate_moments, sample_f_values
from repro.theory.convergence import (
    edge_model_upper_bound,
    node_model_upper_bound,
)
from repro.theory.variance import variance_bounds


def _spec(kind, graph, initial, k=1):
    """The alpha = 1/2 configuration the samplers run."""
    return EngineSpec(kind, Adjacency.from_graph(graph), initial, 0.5, k)


class TestExpectationOfF:
    def test_node_model_f_expectation_degree_weighted(self):
        """Lemma 4.1's consequence: E[F] = sum_u pi_u xi_u(0) on an
        irregular graph (star)."""
        graph = nx.star_graph(5)
        initial = np.array([6.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        pi = stationary_distribution(graph)
        expected = float(np.sum(pi * initial))  # = 3.0: hub has half the mass
        sample = sample_f_values(
            _spec("node", graph, initial), 300, seed=1, discrepancy_tol=1e-7
        )
        estimate = estimate_moments(sample, seed=1)
        lo, hi = estimate.mean_ci
        assert lo <= expected <= hi

    def test_edge_model_f_expectation_simple_average(self):
        """Theorem 2.4's remark: E[F] = Avg(0) even on irregular graphs."""
        graph = nx.star_graph(5)
        initial = np.array([6.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        expected = 1.0  # simple average
        sample = sample_f_values(
            _spec("edge", graph, initial), 300, seed=2, discrepancy_tol=1e-7
        )
        estimate = estimate_moments(sample, seed=2)
        lo, hi = estimate.mean_ci
        assert lo <= expected <= hi

    def test_two_models_differ_on_irregular_graphs(self):
        """The hub-weighted vs uniform expectations are distinguishable."""
        graph = nx.star_graph(5)
        initial = np.array([6.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        node_mean = float(sample_f_values(
            _spec("node", graph, initial), 300, seed=3, discrepancy_tol=1e-7
        ).mean())
        edge_mean = float(sample_f_values(
            _spec("edge", graph, initial), 300, seed=4, discrepancy_tol=1e-7
        ).mean())
        assert node_mean > 2.0  # near 3
        assert edge_mean < 2.0  # near 1


class TestConvergenceTimeShapes:
    def test_node_bound_dominates_measured_time(self):
        """Measured T_eps stays below the Theorem 2.2(1) expression (the
        hidden constant is ~1 in practice, so constant 1 suffices here)."""
        epsilon = 1e-6
        for graph in (nx.cycle_graph(24), nx.complete_graph(24)):
            initial = center_simple(np.arange(24.0))
            lambda2, _ = second_walk_eigenpair(graph)
            bound = node_model_upper_bound(
                24, lambda2, float(np.sum(initial**2)), epsilon
            )
            times = []
            for s in range(3):
                process = NodeModel(graph, initial, alpha=0.5, k=1, seed=s)
                times.append(measure_t_eps(process, epsilon, 100_000_000))
            assert np.mean(times) <= bound

    def test_edge_bound_dominates_measured_time(self):
        epsilon = 1e-6
        graph = nx.barbell_graph(8, 0)
        n = graph.number_of_nodes()
        m = graph.number_of_edges()
        initial = center_simple(np.arange(float(n)))
        lambda2_l, _ = second_laplacian_eigenpair(graph)
        bound = edge_model_upper_bound(
            n, m, lambda2_l, float(np.sum(initial**2)), epsilon
        )
        times = []
        for s in range(3):
            process = EdgeModel(graph, initial, alpha=0.5, seed=s)
            times.append(measure_t_eps(process, epsilon, 200_000_000))
        # Theorem 2.4(1) is O(.); the hidden constant on the barbell
        # (where xi(0) projects mostly on the bottleneck mode) is ~1.5.
        assert np.mean(times) <= 4.0 * bound

    def test_cycle_slower_than_clique(self):
        """The spectral gap drives the ordering the paper implies."""
        epsilon = 1e-6
        initial = center_simple(np.arange(20.0))
        cycle_times, clique_times = [], []
        for s in range(3):
            cycle = NodeModel(nx.cycle_graph(20), initial, alpha=0.5, seed=s)
            cycle_times.append(measure_t_eps(cycle, epsilon, 100_000_000))
            clique = NodeModel(nx.complete_graph(20), initial, alpha=0.5, seed=s)
            clique_times.append(measure_t_eps(clique, epsilon, 100_000_000))
        assert np.mean(cycle_times) > 2 * np.mean(clique_times)


class TestVarianceEndToEnd:
    def test_cycle_and_clique_variances_close(self):
        """Theorem 2.2(2): same Var(F) (asymptotically) on the clique and
        the cycle for the same initial values — checked at n = 24 with
        generous Monte-Carlo tolerance."""
        n = 24
        initial = center_simple(rademacher_values(n, seed=5))
        variances = {}
        for name, graph in (("cycle", nx.cycle_graph(n)),
                            ("clique", nx.complete_graph(n))):
            sample = sample_f_values(
                _spec("node", graph, initial), 250, seed=6,
                discrepancy_tol=1e-7,
            )
            variances[name] = float(np.var(sample, ddof=1))
        ratio = variances["cycle"] / variances["clique"]
        assert 0.5 < ratio < 2.0

    def test_variance_within_prop58_interval(self):
        n = 16
        graph = nx.random_regular_graph(4, n, seed=8)
        initial = center_simple(rademacher_values(n, seed=9))
        bounds = variance_bounds(graph, initial, alpha=0.5, k=2)
        sample = sample_f_values(
            _spec("node", graph, initial, k=2), 300, seed=10,
            discrepancy_tol=1e-7,
        )
        estimate = estimate_moments(sample, confidence=0.99, seed=10)
        lo, hi = estimate.variance_ci
        assert hi >= bounds.lower and lo <= bounds.upper


class TestDualityAtScale:
    @pytest.mark.parametrize("steps", [0, 1, 500])
    def test_duality_various_lengths(self, steps):
        graph = nx.random_regular_graph(4, 20, seed=11)
        rng = np.random.default_rng(11)
        initial = rng.normal(size=20)
        trace = run_coupled(graph, initial, alpha=0.5, k=2, steps=steps, seed=12)
        assert verify_duality(trace, atol=1e-9)

    def test_duality_with_lazy_schedule(self):
        """No-op (lazy) steps are identity in both processes, so the
        duality must survive them."""
        graph = nx.cycle_graph(8)
        rng = np.random.default_rng(13)
        initial = rng.normal(size=8)
        process = NodeModel(
            graph, initial, alpha=0.5, k=1, seed=14, lazy=True,
            record_schedule=True,
        )
        process.run(100)
        from repro.dual.diffusion import DiffusionProcess

        diffusion = DiffusionProcess(graph, cost=initial, alpha=0.5, k=1)
        diffusion.replay(process.schedule.reversed())
        assert np.allclose(diffusion.costs, process.values, atol=1e-10)


class TestConsensusValueConsistency:
    def test_f_from_trace_equals_consensus_result(self):
        """run_to_consensus's value agrees with simply running far longer."""
        graph = nx.random_regular_graph(4, 12, seed=15)
        rng = np.random.default_rng(15)
        initial = rng.normal(size=12)
        process = NodeModel(graph, initial, alpha=0.5, k=1, seed=16)
        result = run_to_consensus(process, discrepancy_tol=1e-10)
        process.run(50_000)
        assert float(process.values.mean()) == pytest.approx(result.value, abs=1e-9)
