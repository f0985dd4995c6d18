"""Exact absorbing-chain backend: oracles, solver agreement, guards.

Four layers, mirroring DESIGN.md section 12:

1. *Hand-computed oracles* — P2/P3, K3 and C4 at ``alpha = 0.5`` have
   meeting/coalescence/MFPT expectations small enough to derive on
   paper; the solver must hit them to ~machine precision.
2. *Structural laws* — every off-diagonal transition carries the
   factor ``1 - alpha``, so all expected times scale exactly like
   ``1/(1 - alpha)``; complete graphs admit the cluster-count closed
   form ``(n - 1)^2 / (1 - alpha)`` at any ``n``.
3. *Exact vs Monte-Carlo* — the solver is the expectation of what
   :func:`repro.sim.sample_meeting_times` samples: the loop engine is
   checked here, the batch engine in ``tests/test_dual_engine.py``.
4. *Bipartite guard* — the ``alpha == 0`` + bipartite regression of
   the dual sampler (parity lock), for every engine.
"""

import networkx as nx
import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.graphs.adjacency import Adjacency
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    hypercube_graph,
    path_graph,
    petersen_graph,
    random_regular_graph,
)
from repro.graphs.properties import is_bipartite
from repro.sim.montecarlo import sample_meeting_times, validate_engine
from repro.theory.absorbing import (
    DENSE_STATE_CUTOFF,
    MAX_DENSE_COALESCENCE_N,
    MAX_SPARSE_COALESCENCE_N,
    exact_coalescence_feasible,
    exact_coalescence_time,
    expected_meeting_time,
    mean_first_passage_times,
    meeting_time_matrix,
    scipy_available,
    validate_solver,
    walk_transition_matrix,
)

needs_scipy = pytest.mark.skipif(
    not scipy_available(), reason="scipy not installed"
)


# ----------------------------------------------------------------------
# Hand-computed oracles
# ----------------------------------------------------------------------
class TestHandOracles:
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_p2_pair_meets_in_one_over_beta(self, alpha):
        """P2: one of the two walks is selected every round and moves
        w.p. (1 - alpha) onto the other: E = 1/(1 - alpha)."""
        value = expected_meeting_time(path_graph(2), 0, 1, alpha=alpha)
        assert value == pytest.approx(1.0 / (1.0 - alpha))

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_p2_mfpt(self, alpha):
        """P2 single walk: moves only in the 1/2 of rounds selecting
        its node, then w.p. (1 - alpha): E[hit] = 2/(1 - alpha)."""
        times = mean_first_passage_times(path_graph(2), 1, alpha=alpha)
        assert times[0] == pytest.approx(2.0 / (1.0 - alpha))
        assert times[1] == 0.0

    def test_p3_mfpt_endpoint_to_endpoint(self):
        """P3, alpha=0: from an endpoint each move goes to the middle
        (rate 1/3) and from the middle half the moves (rate 1/3, each
        neighbour 1/6) reach the target: m0 = 3 + m1, m1 = 6 + m0/2,
        so m0 = 12, m1 = 9."""
        times = mean_first_passage_times(path_graph(3), 2, alpha=0.0)
        assert times[0] == pytest.approx(12.0)
        assert times[1] == pytest.approx(9.0)

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_k3_pair_and_coalescence(self, alpha):
        """K3: a selected walk leaves its partner w.p. 1/2, so the pair
        meets at rate (1 - alpha) * 2/3 * 1/2 = E = 3/(1 - alpha); full
        coalescence adds the (n-1)^2 closed form = 4/(1 - alpha)."""
        k3 = complete_graph(3)
        assert expected_meeting_time(k3, 0, 1, alpha=alpha) == pytest.approx(
            3.0 / (1.0 - alpha)
        )
        assert exact_coalescence_time(k3, alpha=alpha) == pytest.approx(
            4.0 / (1.0 - alpha)
        )

    def test_c4_meeting_times_at_half_laziness(self):
        """C4, alpha=0.5: solving the two-distance system by hand gives
        E[adjacent] = 12 and E[opposite] = 16."""
        matrix = meeting_time_matrix(cycle_graph(4), alpha=0.5)
        assert matrix[0, 1] == pytest.approx(12.0)
        assert matrix[0, 2] == pytest.approx(16.0)
        assert matrix[1, 2] == pytest.approx(12.0)
        assert np.diag(matrix) == pytest.approx(np.zeros(4))
        np.testing.assert_allclose(matrix, matrix.T)

    def test_walk_transition_matrix_is_the_round_law(self):
        p = walk_transition_matrix(cycle_graph(5), alpha=0.5)
        np.testing.assert_allclose(p.sum(axis=1), np.ones(5))
        # off-diagonal: (1 - alpha) / (n deg) = 0.5 / 10
        assert p[0, 1] == pytest.approx(0.05)
        assert p[0, 0] == pytest.approx(1.0 - 0.1)


class TestStructuralLaws:
    def test_laziness_scales_all_times_exactly(self):
        graph = petersen_graph()
        base = meeting_time_matrix(graph, alpha=0.0)
        lazy = meeting_time_matrix(graph, alpha=0.75)
        np.testing.assert_allclose(lazy, base * 4.0, rtol=1e-9)
        base_c = exact_coalescence_time(cycle_graph(7), alpha=0.0)
        lazy_c = exact_coalescence_time(cycle_graph(7), alpha=0.5)
        assert lazy_c == pytest.approx(2.0 * base_c, rel=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 8, 64, 500])
    def test_complete_graph_closed_form_any_n(self, n):
        assert exact_coalescence_time(
            complete_graph(n), alpha=0.25
        ) == pytest.approx((n - 1) ** 2 / 0.75)

    def test_complete_graph_closed_form_matches_subset_chain(self, monkeypatch):
        """The cluster-count lumping agrees with the generic 2^n
        occupied-set chain on K5."""
        import repro.theory.absorbing as absorbing

        closed = exact_coalescence_time(complete_graph(5), alpha=0.3)
        monkeypatch.setattr(absorbing, "_is_complete", lambda adj: False)
        generic = exact_coalescence_time(complete_graph(5), alpha=0.3)
        assert generic == pytest.approx(closed, rel=1e-9)

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            meeting_time_matrix(cycle_graph(5), alpha=1.0)
        with pytest.raises(ParameterError):
            mean_first_passage_times(cycle_graph(5), [])
        with pytest.raises(ParameterError):
            mean_first_passage_times(cycle_graph(5), 9)
        with pytest.raises(ParameterError):
            expected_meeting_time(cycle_graph(5), 0, 7)

    def test_infeasible_coalescence_raises(self):
        graph = cycle_graph(25)  # odd, non-complete, n > sparse cap
        assert not exact_coalescence_feasible(graph)
        with pytest.raises(ParameterError, match="occupied-set chain"):
            exact_coalescence_time(graph)

    def test_feasibility_consults_scipy_only_between_caps(self, monkeypatch):
        """Outside the n-band where the cap depends on SciPy the check
        must not import it: the import stays resident for the process."""
        import repro.theory.absorbing as absorbing

        calls = []

        def probe(available):
            def scipy_available():
                calls.append(available)
                return available
            return scipy_available

        monkeypatch.setattr(absorbing, "scipy_available", probe(True))
        assert exact_coalescence_feasible(cycle_graph(MAX_DENSE_COALESCENCE_N))
        assert not exact_coalescence_feasible(cycle_graph(MAX_SPARSE_COALESCENCE_N + 1))
        assert calls == []
        assert exact_coalescence_feasible(cycle_graph(MAX_SPARSE_COALESCENCE_N))
        monkeypatch.setattr(absorbing, "scipy_available", probe(False))
        assert not exact_coalescence_feasible(cycle_graph(MAX_DENSE_COALESCENCE_N + 1))
        assert calls == [True, False]

    def test_mfpt_multiple_targets(self):
        """Hitting either endpoint of P3 from the middle: the middle
        moves at rate 1/3 and always lands on a target."""
        times = mean_first_passage_times(path_graph(3), [0, 2], alpha=0.0)
        assert times[0] == times[2] == 0.0
        assert times[1] == pytest.approx(3.0)


# ----------------------------------------------------------------------
# Solver dispatch
# ----------------------------------------------------------------------
class TestSolvers:
    def test_validate_solver(self):
        for name in ("auto", "dense"):
            assert validate_solver(name) == name
        with pytest.raises(ParameterError):
            validate_solver("qr")

    @needs_scipy
    def test_sparse_and_cg_match_dense(self):
        """Solver bit-agreement: identical chains, tolerances far below
        anything the experiments resolve."""
        graph = random_regular_graph(12, 3, seed=5)
        dense = meeting_time_matrix(graph, alpha=0.25, solver="dense")
        sparse = meeting_time_matrix(graph, alpha=0.25, solver="sparse")
        cg = meeting_time_matrix(graph, alpha=0.25, solver="cg")
        np.testing.assert_allclose(sparse, dense, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(cg, dense, rtol=1e-9, atol=1e-9)
        d = exact_coalescence_time(cycle_graph(9), alpha=0.0, solver="dense")
        s = exact_coalescence_time(cycle_graph(9), alpha=0.0, solver="sparse")
        assert s == pytest.approx(d, rel=1e-9)

    def test_sparse_without_scipy_raises(self, monkeypatch):
        import repro.theory.absorbing as absorbing

        monkeypatch.setattr(absorbing, "scipy_available", lambda: False)
        with pytest.raises(ParameterError, match="requires scipy"):
            meeting_time_matrix(cycle_graph(5), solver="sparse")

    def test_auto_is_dense_below_cutoff(self):
        # n(n-1)/2 pair states stay below the cutoff here, so "auto"
        # and "dense" must be the same solve bit for bit.
        graph = petersen_graph()
        assert 10 * 9 // 2 < DENSE_STATE_CUTOFF
        np.testing.assert_array_equal(
            meeting_time_matrix(graph, alpha=0.5, solver="auto"),
            meeting_time_matrix(graph, alpha=0.5, solver="dense"),
        )


# ----------------------------------------------------------------------
# Exact vs Monte-Carlo
# ----------------------------------------------------------------------
class TestExactVsMonteCarlo:
    def test_loop_engine_agrees_with_exact(self):
        # |z| <= 4: false-alarm rate 6.3e-5 (two-sided, normal approximation).
        adjacency = Adjacency.from_graph(complete_graph(8))
        samples = sample_meeting_times(
            adjacency, 300, seed=3, alpha=0.5, engine="loop"
        )
        se = samples.std(ddof=1) / np.sqrt(len(samples))
        exact = exact_coalescence_time(adjacency, alpha=0.5)
        assert abs(samples.mean() - exact) <= 4.0 * se

    def test_exact_engine_returns_constant_expectation(self):
        graph = cycle_graph(9)
        times = sample_meeting_times(graph, 5, seed=1, engine="exact")
        assert times.shape == (5,)
        assert np.ptp(times) == 0.0
        assert times[0] == pytest.approx(exact_coalescence_time(graph))

    def test_exact_engine_honors_alpha(self):
        graph = complete_graph(30)
        times = sample_meeting_times(graph, 3, alpha=0.5, engine="exact")
        assert times[0] == pytest.approx(29**2 / 0.5)

    def test_exact_engine_infeasible_graph_raises(self):
        with pytest.raises(ParameterError, match="occupied-set chain"):
            sample_meeting_times(cycle_graph(25), 3, engine="exact")

    def test_validate_engine_gates_exact(self):
        assert validate_engine("exact", allow_exact=True) == "exact"
        with pytest.raises(ParameterError):
            validate_engine("exact")
        with pytest.raises(ParameterError):
            validate_engine("bogus", allow_exact=True)


# ----------------------------------------------------------------------
# Bipartite + alpha == 0: the parity-lock guard
# ----------------------------------------------------------------------
class TestBipartiteGuard:
    @pytest.mark.parametrize(
        "graph",
        [
            cycle_graph(6),
            nx.complete_bipartite_graph(3, 3),
            hypercube_graph(16),
        ],
        ids=["even_cycle", "complete_bipartite", "hypercube"],
    )
    @pytest.mark.parametrize("engine", ["batch", "loop", "exact"])
    def test_alpha_zero_on_bipartite_raises(self, graph, engine):
        assert is_bipartite(graph)
        with pytest.raises(ParameterError, match="bipartite"):
            sample_meeting_times(graph, 4, seed=0, engine=engine)

    def test_laziness_lifts_the_guard(self):
        times = sample_meeting_times(
            cycle_graph(6), 4, seed=0, alpha=0.5, engine="batch"
        )
        assert np.all(times > 0)
        exact = sample_meeting_times(
            cycle_graph(6), 2, alpha=0.5, engine="exact"
        )
        assert exact[0] == pytest.approx(
            exact_coalescence_time(cycle_graph(6), alpha=0.5)
        )

    def test_odd_cycle_passes_at_alpha_zero(self):
        times = sample_meeting_times(cycle_graph(7), 4, seed=0)
        assert np.all(times > 0)

    def test_is_bipartite_predicate(self):
        assert is_bipartite(cycle_graph(8))
        assert not is_bipartite(cycle_graph(7))
        assert not is_bipartite(petersen_graph())
        assert is_bipartite(Adjacency.from_graph(path_graph(4)))
