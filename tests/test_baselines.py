"""Tests for the baseline dynamics."""

import networkx as nx
import numpy as np
import pytest

from repro.baselines.gossip import PairwiseGossip, gossip_to_consensus_batch
from repro.baselines.pushsum import PushSum
from repro.baselines.voter import VoterModel, win_probabilities
from repro.engine.driver import EngineSpec, run_to_consensus_batch
from repro.exceptions import ConvergenceError, ParameterError
from repro.graphs.adjacency import Adjacency
from repro.rng import spawn

#: Two-sided |z| limit of the statistical checks below: a false-alarm
#: rate of 6.3e-5 per cell (normal approximation).
Z_LIMIT = 4.0


class TestVoterModel:
    def test_reaches_consensus(self, small_regular):
        opinions = list(range(10))
        voter = VoterModel(small_regular, opinions, seed=1)
        winner, steps = voter.run_to_consensus()
        assert winner in opinions
        assert steps > 0
        assert voter.num_distinct == 1

    def test_winner_is_an_initial_opinion(self, petersen):
        voter = VoterModel(petersen, [5] * 5 + [9] * 5, seed=2)
        winner, _ = voter.run_to_consensus()
        assert winner in (5, 9)

    def test_consensus_detection_immediate(self, triangle):
        voter = VoterModel(triangle, [1, 1, 1], seed=3)
        winner, steps = voter.run_to_consensus()
        assert winner == 1 and steps == 0

    def test_budget_raises(self, petersen):
        voter = VoterModel(petersen, list(range(10)), seed=4)
        with pytest.raises(ConvergenceError):
            voter.run_to_consensus(max_steps=1)

    def test_win_probabilities_degree_weighted(self, star5):
        probabilities = win_probabilities(star5)
        assert probabilities[0] == pytest.approx(0.5)
        assert probabilities.sum() == pytest.approx(1.0)

    def test_win_probability_empirical(self):
        """On a star the hub's opinion wins with probability ~1/2."""
        graph = nx.star_graph(5)
        hub_wins = 0
        trials = 800
        for s in range(trials):
            voter = VoterModel(graph, [1, 0, 0, 0, 0, 0], seed=s)
            winner, _ = voter.run_to_consensus()
            hub_wins += winner
        assert hub_wins / trials == pytest.approx(0.5, abs=0.06)

    def test_shape_validation(self, triangle):
        with pytest.raises(ParameterError):
            VoterModel(triangle, [1, 2], seed=0)


class TestEngineVoter:
    """The batch engine's NodeModel at ``k = 1, alpha = 0`` is the voter model.

    Opinions are small integers, so the mean of ``n`` equal copies (the
    consensus value ``run_to_consensus_batch`` reports) is exact.  The law check z-tests the
    frequency of each opinion against the exact
    ``sum(win_probabilities)`` over the nodes holding it: 3 cells on
    each of 2 graphs at ``Z_LIMIT``, a family-wise false-alarm rate of
    at most 6 x 6.3e-5 = 3.8e-4 (Bonferroni) at a random seed.
    """

    REPLICAS = 4000

    GRAPHS = {
        "regular": (
            lambda: nx.random_regular_graph(4, 12, seed=3),
            np.repeat([0.0, 1.0, 2.0], [2, 4, 6]),
        ),
        # Hub 0 holds opinion 0 and half of the stationary mass.
        "star": (lambda: nx.star_graph(5), np.array([0.0, 1, 1, 2, 2, 2])),
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_values_and_law(self, name):
        build, initial = self.GRAPHS[name]
        adjacency = Adjacency.from_graph(build())
        batch = EngineSpec("node", adjacency, initial, 0.0).build(
            self.REPLICAS, seed=11
        )
        value = run_to_consensus_batch(batch, discrepancy_tol=1e-9).value
        assert np.all(np.isin(batch.values, initial))
        assert np.all(np.isin(value, initial))
        pi = win_probabilities(adjacency)
        for opinion in np.unique(initial):
            p = float(pi[initial == opinion].sum())
            count = int(np.sum(value == opinion))
            z = (count - self.REPLICAS * p) / np.sqrt(self.REPLICAS * p * (1 - p))
            assert abs(z) <= Z_LIMIT, (opinion, count, p, z)


class TestGossipBatch:
    @pytest.fixture
    def adjacency(self, small_regular):
        return Adjacency.from_graph(small_regular)

    def test_values_are_initial_average(self, adjacency, rng):
        initial = rng.normal(size=10)
        value, steps = gossip_to_consensus_batch(
            adjacency, initial, 200, seed=1, discrepancy_tol=1e-9
        )
        assert value.shape == steps.shape == (200,)
        assert np.all(np.abs(value - initial.mean()) <= 1e-12)
        assert np.all(steps > 0)

    def test_mean_steps_match_scalar_oracle(self, adjacency, rng):
        """Two-sample z-test of mean steps, |z| <= Z_LIMIT (rate 6.3e-5)."""
        initial = rng.normal(size=10)
        _, batch_steps = gossip_to_consensus_batch(
            adjacency, initial, 4000, seed=2, discrepancy_tol=1e-6
        )
        scalar_steps = np.array([
            PairwiseGossip(adjacency, initial, seed=r).run_to_consensus(
                discrepancy_tol=1e-6
            )[1]
            for r in spawn(3, 400)
        ])
        se = np.hypot(
            batch_steps.std(ddof=1) / np.sqrt(len(batch_steps)),
            scalar_steps.std(ddof=1) / np.sqrt(len(scalar_steps)),
        )
        z = (batch_steps.mean() - scalar_steps.mean()) / se
        assert abs(z) <= Z_LIMIT, z

    def test_budget_raises(self, adjacency, rng):
        with pytest.raises(ConvergenceError):
            gossip_to_consensus_batch(
                adjacency, rng.normal(size=10), 8, seed=4,
                discrepancy_tol=1e-9, max_steps=5,
            )

    def test_shape_validation(self, triangle):
        with pytest.raises(ParameterError):
            gossip_to_consensus_batch(
                Adjacency.from_graph(triangle), [0.0, 1.0], 4, seed=0
            )


class TestPairwiseGossip:
    def test_average_exactly_preserved(self, small_regular, rng):
        initial = rng.normal(size=10)
        gossip = PairwiseGossip(small_regular, initial, seed=1)
        average = gossip.average
        gossip.run(10_000)
        assert gossip.average == pytest.approx(average, abs=1e-10)

    def test_consensus_value_is_initial_average(self, small_regular, rng):
        initial = rng.normal(size=10)
        gossip = PairwiseGossip(small_regular, initial, seed=2)
        value, steps = gossip.run_to_consensus(discrepancy_tol=1e-10)
        assert value == pytest.approx(float(initial.mean()), abs=1e-9)
        assert steps > 0

    def test_phi_decreases(self, small_regular, rng):
        gossip = PairwiseGossip(small_regular, rng.normal(size=10), seed=3)
        phi0 = gossip.phi
        gossip.run(5_000)
        assert gossip.phi < phi0 * 1e-6

    def test_pair_moves_to_midpoint(self, triangle):
        gossip = PairwiseGossip(triangle, [0.0, 6.0, 12.0], seed=4)
        before = gossip.values.copy()
        gossip.step()
        changed = np.flatnonzero(gossip.values != before)
        assert len(changed) in (0, 2)  # 0 if the pair already agreed
        if len(changed) == 2:
            u, v = changed
            assert gossip.values[u] == gossip.values[v]
            assert gossip.values[u] == pytest.approx(
                (before[u] + before[v]) / 2
            )


class TestPushSum:
    def test_mass_conservation(self, petersen, rng):
        initial = rng.normal(size=10)
        model = PushSum(petersen, initial, seed=1)
        model.run(5_000)
        assert model.sums.sum() == pytest.approx(float(initial.sum()), abs=1e-9)
        assert model.weights.sum() == pytest.approx(10.0, abs=1e-9)

    def test_estimates_converge_to_exact_average(self, petersen, rng):
        initial = rng.normal(size=10)
        model = PushSum(petersen, initial, seed=2)
        value, steps = model.run_to_accuracy(tol=1e-10)
        assert value == pytest.approx(float(initial.mean()), abs=1e-9)
        assert np.allclose(model.estimates, initial.mean(), atol=1e-9)
        assert steps > 0

    def test_weights_stay_positive(self, petersen, rng):
        model = PushSum(petersen, rng.normal(size=10), seed=3)
        model.run(20_000)
        assert np.all(model.weights > 0)

    def test_validation(self, triangle):
        with pytest.raises(ParameterError):
            PushSum(triangle, [0.0, 1.0], seed=0)
        model = PushSum(triangle, [0.0, 1.0, 2.0], seed=0)
        with pytest.raises(ParameterError):
            model.run_to_accuracy(tol=0.0)
