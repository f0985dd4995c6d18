"""Equivalence and behaviour tests for the batch engine.

The scalar :mod:`repro.core` processes are the correctness oracle: the
batch engine must reproduce them *exactly* under a shared recorded
schedule (the coupling argument — same selections, same arithmetic) and
*statistically* when each engine draws its own randomness.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.convergence import measure_t_eps, run_to_consensus
from repro.core.edge_model import EdgeModel
from repro.core.initial import center_simple, rademacher_values
from repro.core.node_model import NodeModel
from repro.engine import (
    BatchEdgeModel,
    BatchNodeModel,
    CyclicSchedule,
    EngineSpec,
    ResultCache,
    measure_t_eps_batch,
    run_to_consensus_batch,
    sample_checkpoints_batch,
    sample_f_batch,
)
from repro.engine.driver import (
    AVERAGE,
    DISCREPANCY_SAMPLE_EVERY,
    PHI,
    WEIGHTED_AVERAGE,
)
from repro.exceptions import ConvergenceError, ParameterError
from repro.graphs.adjacency import Adjacency
from repro.graphs.generators import cycle_graph, lollipop_graph, random_regular_graph
from repro.obs import Tracer, activate
from repro.obs.metrics import METRICS
from repro.theory.exact import exact_variance_trajectory
from repro.sim.montecarlo import sample_f_values, sample_t_eps


@pytest.fixture
def regular36():
    return random_regular_graph(36, 4, seed=0)


@pytest.fixture
def values36():
    return center_simple(rademacher_values(36, seed=1))


class TestScheduleReplayEquivalence:
    """Shared schedule => identical trajectories, step for step."""

    def _assert_stepwise(self, reference, batch):
        for step in reference.schedule:
            batch.apply_selection(step.node, step.sample)
        assert batch.t == reference.t
        np.testing.assert_array_equal(
            batch.values, np.broadcast_to(reference.values, batch.values.shape)
        )

    def test_node_model(self, regular36, values36):
        ref = NodeModel(
            regular36, values36, alpha=0.5, k=2, seed=3, record_schedule=True
        )
        ref.run(500)
        batch = BatchNodeModel(
            regular36, values36, alpha=0.5, k=2, replicas=3, seed=99
        )
        self._assert_stepwise(ref, batch)
        assert batch.phi[0] == pytest.approx(ref.phi, abs=1e-12)

    def test_edge_model(self, regular36, values36):
        ref = EdgeModel(
            regular36, values36, alpha=0.7, seed=4, record_schedule=True
        )
        ref.run(500)
        batch = BatchEdgeModel(
            regular36, values36, alpha=0.7, replicas=2, seed=99
        )
        self._assert_stepwise(ref, batch)

    def test_lazy_variant_with_noops(self, regular36, values36):
        ref = NodeModel(
            regular36, values36, alpha=0.5, k=1, seed=5, lazy=True,
            record_schedule=True,
        )
        ref.run(400)
        assert any(step.is_noop for step in ref.schedule)
        batch = BatchNodeModel(
            regular36, values36, alpha=0.5, k=1, replicas=2, seed=99
        )
        batch.replay(ref.schedule)
        assert batch.t == ref.t
        np.testing.assert_array_equal(batch.values[0], ref.values)

    def test_stepwise_values_track_reference(self, regular36, values36):
        """Not just the endpoint: every intermediate state matches."""
        ref = NodeModel(
            regular36, values36, alpha=0.5, k=3, seed=6, record_schedule=True
        )
        batch = BatchNodeModel(
            regular36, values36, alpha=0.5, k=3, replicas=2, seed=99
        )
        for _ in range(100):
            ref.step()
            batch.apply_selection(ref.schedule[-1].node, ref.schedule[-1].sample)
            np.testing.assert_array_equal(batch.values[1], ref.values)


class TestBackendAgreement:
    def test_dense_and_csr_identical_k1_irregular(self, star5):
        import networkx as nx

        graph = nx.connected_watts_strogatz_graph(30, 6, 0.3, seed=2)
        values = center_simple(np.random.default_rng(0).normal(size=30))
        dense = BatchNodeModel(
            graph, values, alpha=0.5, k=1, replicas=8, seed=11, backend="dense"
        )
        csr = BatchNodeModel(
            graph, values, alpha=0.5, k=1, replicas=8, seed=11, backend="csr"
        )
        dense.run(400)
        csr.run(400)
        np.testing.assert_array_equal(dense.values, csr.values)

    def test_dense_and_csr_identical_general_k(self):
        import networkx as nx

        graph = nx.connected_watts_strogatz_graph(30, 6, 0.3, seed=3)
        values = center_simple(np.random.default_rng(1).normal(size=30))
        dense = BatchNodeModel(
            graph, values, alpha=0.5, k=2, replicas=8, seed=13, backend="dense"
        )
        csr = BatchNodeModel(
            graph, values, alpha=0.5, k=2, replicas=8, seed=13, backend="csr"
        )
        dense.run(400)
        csr.run(400)
        np.testing.assert_array_equal(dense.values, csr.values)

    def test_unknown_backend_rejected(self, regular36, values36):
        with pytest.raises(ParameterError):
            BatchNodeModel(
                regular36, values36, alpha=0.5, replicas=2, backend="gpu"
            )


class TestStatisticalEquivalence:
    """Each engine draws its own randomness; moments must agree."""

    def test_f_moments_match_loop(self, regular36, values36):
        def make(rng):
            return NodeModel(regular36, values36, alpha=0.5, k=1, seed=rng)

        loop = sample_f_values(
            make, 300, seed=5, discrepancy_tol=1e-6, engine="loop"
        )
        batch = sample_f_values(
            make, 300, seed=5, discrepancy_tol=1e-6, engine="batch"
        )
        assert len(batch) == len(loop) == 300
        # Means: both estimate E[F] = 0; compare within combined stderr.
        stderr = np.hypot(loop.std() / np.sqrt(300), batch.std() / np.sqrt(300))
        assert abs(loop.mean() - batch.mean()) < 5 * stderr
        # Variances: Var(F) is the paper's headline quantity.
        ratio = batch.var(ddof=1) / loop.var(ddof=1)
        assert 0.6 < ratio < 1.7

    def test_t_eps_distribution_matches_loop(self, regular36, values36):
        def make(rng):
            return NodeModel(regular36, values36, alpha=0.5, k=1, seed=rng)

        loop = sample_t_eps(make, 1e-6, 60, seed=6, engine="loop")
        batch = sample_t_eps(make, 1e-6, 60, seed=6, engine="batch")
        assert np.all(batch > 0)
        assert 0.8 < batch.mean() / loop.mean() < 1.25

    def test_edge_model_f_moments_match_loop(self, regular36, values36):
        def make(rng):
            return EdgeModel(regular36, values36, alpha=0.5, seed=rng)

        loop = sample_f_values(
            make, 200, seed=7, discrepancy_tol=1e-6, engine="loop"
        )
        batch = sample_f_values(
            make, 200, seed=7, discrepancy_tol=1e-6, engine="batch"
        )
        ratio = batch.var(ddof=1) / loop.var(ddof=1)
        assert 0.5 < ratio < 2.0


class TestDrivers:
    def test_consensus_matches_scalar_semantics(self, regular36, values36):
        batch = BatchNodeModel(
            regular36, values36, alpha=0.5, k=1, replicas=32, seed=5
        )
        result = run_to_consensus_batch(batch, discrepancy_tol=1e-6)
        assert len(result) == 32
        assert np.all(result.residual_discrepancy <= 1e-6)
        assert np.all(result.t > 0)
        # F values stay in the convex hull of the initial values.
        assert np.all(result.value >= values36.min() - 1e-9)
        assert np.all(result.value <= values36.max() + 1e-9)
        # Every replica is frozen afterwards.
        assert batch.num_active == 0

    def test_consensus_budget_exhaustion_raises(self, regular36, values36):
        batch = BatchNodeModel(
            regular36, values36, alpha=0.5, k=1, replicas=4, seed=5
        )
        with pytest.raises(ConvergenceError):
            run_to_consensus_batch(batch, discrepancy_tol=1e-9, max_steps=10)

    def test_t_eps_exact_counting(self, regular36, values36):
        """Batch hitting times agree with the scalar loop's in scale."""
        batch = BatchNodeModel(
            regular36, values36, alpha=0.5, k=1, replicas=16, seed=8
        )
        times = measure_t_eps_batch(batch, 1e-6, 10_000_000)
        reference = [
            measure_t_eps(
                NodeModel(regular36, values36, alpha=0.5, k=1, seed=s),
                1e-6,
                10_000_000,
            )
            for s in range(3)
        ]
        assert 0.5 < times.mean() / np.mean(reference) < 2.0

    def test_already_converged_replicas_report_zero(self, regular36):
        batch = BatchNodeModel(
            regular36, np.zeros(36), alpha=0.5, k=1, replicas=4, seed=9
        )
        times = batch.run_until_phi(1e-6, 100)
        np.testing.assert_array_equal(times, 0)

    def test_frozen_converged_batch_reports_zero(self, regular36, values36):
        """A fully consensus-frozen batch is not a T_eps failure."""
        batch = BatchNodeModel(
            regular36, values36, alpha=0.5, k=1, replicas=4, seed=11
        )
        run_to_consensus_batch(batch, discrepancy_tol=1e-6)
        assert batch.num_active == 0
        times = measure_t_eps_batch(batch, 1.0, 100)
        np.testing.assert_array_equal(times, 0)

    def test_multiprocessing_shards_match_serial(self, regular36, values36):
        spec = EngineSpec(
            "node", Adjacency.from_graph(regular36), values36, 0.5, 1
        )
        serial = sample_f_batch(
            spec, 120, seed=7, discrepancy_tol=1e-6, shard_size=48, processes=1
        )
        parallel = sample_f_batch(
            spec, 120, seed=7, discrepancy_tol=1e-6, shard_size=48, processes=2
        )
        np.testing.assert_array_equal(serial, parallel)


def _full_scan_consensus(batch, discrepancy_tol, max_steps, check_every=64):
    """Reference harvest: ``batch.run(check_every)``, then a whole-row
    max/min of every active replica at each check (no witnesses)."""
    B = batch.replicas
    t = np.zeros(B, dtype=np.int64)
    value = np.empty(B)
    residual = np.empty(B)
    phi = np.empty(B)
    start = batch.t

    def harvest():
        rows = np.flatnonzero(batch.active)
        spread = batch.values.max(axis=1) - batch.values.min(axis=1)
        done = rows[spread[rows] <= discrepancy_tol]
        if len(done) == 0:
            return
        finished = batch.values[done]
        batch._sync_snapshot()
        s1 = finished @ batch.pi
        s2 = (finished**2) @ batch.pi
        t[done] = batch.t - start
        value[done] = finished.mean(axis=1)
        residual[done] = spread[done]
        phi[done] = np.maximum(s2 - s1 * s1, 0.0)
        batch.freeze(done)

    harvest()
    while batch.num_active and batch.t - start < max_steps:
        batch.run(min(check_every, max_steps - (batch.t - start)))
        harvest()
    if batch.num_active:
        raise ConvergenceError("reference harvest exhausted max_steps")
    return t, value, residual, phi


def _assert_same_consensus(result, reference):
    for got, want in zip(
        (result.t, result.value, result.residual_discrepancy, result.phi),
        reference,
    ):
        assert np.array_equal(got, want)


def _cyclic_lollipop_path():
    return CyclicSchedule(
        [nx.lollipop_graph(6, 4), nx.path_graph(10)], switch_every=64
    )


class TestWitnessHarvest:
    """The witness-pair harvest decides exactly what a full scan decides."""

    CASES = {
        "node-k1": lambda g, x0: BatchNodeModel(g, x0, 0.5, k=1, replicas=24, seed=3),
        "node-k2": lambda g, x0: BatchNodeModel(g, x0, 0.5, k=2, replicas=24, seed=3),
        "lazy": lambda g, x0: BatchNodeModel(
            g, x0, 0.5, k=1, replicas=24, seed=3, lazy=True
        ),
        "edge": lambda g, x0: BatchEdgeModel(g, x0, 0.5, replicas=24, seed=3),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("check_every", [1, 64])
    def test_matches_full_scan_oracle(self, regular36, values36, case, check_every):
        build = self.CASES[case]
        result = run_to_consensus_batch(
            build(regular36, values36), discrepancy_tol=1e-6,
            check_every=check_every,
        )
        reference = _full_scan_consensus(
            build(regular36, values36), 1e-6, 50_000_000, check_every
        )
        _assert_same_consensus(result, reference)

    def test_matches_full_scan_oracle_on_a_dynamic_schedule(self):
        x0 = np.linspace(-1.0, 1.0, 10)

        def build():
            return BatchNodeModel(_cyclic_lollipop_path(), x0, 0.5, replicas=16, seed=4)

        result = run_to_consensus_batch(build(), discrepancy_tol=1e-6)
        _assert_same_consensus(result, _full_scan_consensus(build(), 1e-6, 50_000_000))

    def test_phi_at_a_snapshot_switch_uses_the_next_snapshot(self):
        """The replica finishes at t = 2816, a switch boundary: phi is
        measured against the snapshot of the round about to run, as
        ``batch.phi`` is (not the one that governed the last round)."""
        batch = BatchNodeModel(
            _cyclic_lollipop_path(), np.linspace(-1.0, 1.0, 10), 0.5,
            replicas=1, seed=0,
        )
        result = run_to_consensus_batch(batch, discrepancy_tol=1e-6)
        assert result.t[0] % 64 == 0
        assert result.phi[0] == batch.phi[0]

    def test_equal_witnesses_with_a_wide_spread_do_not_freeze(self, regular36):
        """Scripted states: after the first scan the witnesses are nodes 1
        (max) and 0 (min); the next state gives both the same value while
        node 2 is far away, so the gap is 0 but the row has not
        converged.  It must be scanned, not frozen."""
        n = regular36.number_of_nodes()
        script = [np.full(n, 0.5) for _ in range(3)]
        script[0][:3] = (0.0, 1.0, 0.5)
        script[1][:3] = (0.5, 0.5, 0.9)
        states = iter(script[1:])

        class Scripted(BatchNodeModel):
            def run(self, steps):
                self.values[0] = next(states)
                self.t += steps

        batch = Scripted(regular36, script[0], 0.5, replicas=1, seed=0)
        result = run_to_consensus_batch(batch, discrepancy_tol=1e-6, check_every=10)
        assert result.t[0] == 20
        assert result.value[0] == 0.5

    def test_nan_row_never_converges(self, regular36, values36):
        x0 = np.vstack([values36, values36])
        x0[1, 5] = np.nan
        batch = BatchNodeModel(regular36, x0, 0.5, k=1, seed=2)
        with pytest.raises(ConvergenceError, match="1 of 2 replicas"):
            run_to_consensus_batch(batch, discrepancy_tol=1e-6, max_steps=20_000)
        assert batch.active.tolist() == [False, True]

    def test_harvest_counters_repeat_and_scan_few_rows(self, regular36, values36):
        def counters():
            baseline = METRICS.snapshot()
            batch = BatchNodeModel(regular36, values36, 0.5, replicas=64, seed=6)
            run_to_consensus_batch(batch, discrepancy_tol=1e-8)
            delta = METRICS.delta(baseline)["counters"]
            return delta["engine.harvest.rows"], delta["engine.harvest.scanned_rows"]

        first = counters()
        assert first == counters()
        rows, scanned = first
        assert 64 <= scanned < rows

    def test_tracing_samples_the_spread_every_16th_check(self, regular36, values36):
        """A traced run returns the untraced result and counters; the
        full-scan spread sample lands on checks 0, 16, 32, ... while the
        active-replica count is sampled at every check."""

        def run(tracer=None):
            baseline = METRICS.snapshot()
            batch = BatchNodeModel(regular36, values36, 0.5, replicas=32, seed=6)
            if tracer is None:
                result = run_to_consensus_batch(batch, discrepancy_tol=1e-8)
            else:
                with activate(tracer):
                    result = run_to_consensus_batch(batch, discrepancy_tol=1e-8)
            return result, METRICS.delta(baseline)["counters"]

        plain, plain_counters = run()
        tracer = Tracer()
        traced, traced_counters = run(tracer)
        _assert_same_consensus(
            traced,
            (plain.t, plain.value, plain.residual_discrepancy, plain.phi),
        )
        assert traced_counters == plain_counters
        active = tracer.streams.series("engine.active_replicas")
        spread = tracer.streams.series("engine.max_discrepancy")
        checks = len(active)
        assert checks > 2 * DISCREPANCY_SAMPLE_EVERY
        # A check that froze the last replica has no row to sample.
        sampled = [
            i for i in range(checks)
            if i % DISCREPANCY_SAMPLE_EVERY == 0 and active.values[i] > 0
        ]
        assert len(sampled) >= 3
        assert spread.ts == [active.ts[i] for i in sampled]
        assert spread.ts == [active.ts[i] for i in sampled]


class TestWitnessHarvestProperty:
    """Hypothesis: witness and full-scan harvests agree bit for bit."""

    GRAPHS = {
        "cycle": cycle_graph(9),
        "lollipop": lollipop_graph(8),
        "regular": random_regular_graph(12, 3, seed=1),
    }

    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(sorted(GRAPHS)),
        seed=st.integers(0, 2**16),
        tol=st.sampled_from([1e-3, 1e-6, 1e-9]),
        check_every=st.integers(1, 100),
        edge=st.booleans(),
    )
    def test_matches_full_scan_oracle(self, name, seed, tol, check_every, edge):
        graph = self.GRAPHS[name]
        x0 = np.random.default_rng(seed).standard_normal(graph.number_of_nodes())
        cls = BatchEdgeModel if edge else BatchNodeModel

        def build():
            return cls(graph, x0, 0.5, replicas=6, seed=seed)

        result = run_to_consensus_batch(
            build(), discrepancy_tol=tol, check_every=check_every
        )
        reference = _full_scan_consensus(build(), tol, 50_000_000, check_every)
        _assert_same_consensus(result, reference)


class TestSampleCheckpoints:
    """The fixed-horizon sampler: Avg(t), M(t) and phi at fixed times."""

    #: Crosses the default 256-round block and repeats one time.
    CHECKPOINTS = [0, 1, 37, 300, 300, 701]

    @staticmethod
    def _spec(graph, values, kind="node", k=1, **kwargs):
        return EngineSpec(
            kind=kind, adjacency=Adjacency.from_graph(graph),
            initial_values=values, alpha=0.5, k=k, kernel="fused", **kwargs,
        )

    @pytest.mark.parametrize("kind,k", [("node", 1), ("node", 2), ("edge", 1)])
    def test_bit_identical_across_block_rounds(self, regular36, values36, kind, k):
        outs = [
            sample_checkpoints_batch(
                self._spec(regular36, values36, kind, k, block_rounds=rounds),
                self.CHECKPOINTS, 24, seed=3, shard_size=10,
            )
            for rounds in (None, 7, 64)
        ]
        assert outs[0].shape == (24, len(self.CHECKPOINTS), 3)
        for out in outs[1:]:
            np.testing.assert_array_equal(out, outs[0])

    def test_single_shard_equals_direct_run(self, regular36, values36):
        spec = self._spec(regular36, values36)
        out = sample_checkpoints_batch(spec, self.CHECKPOINTS, 16, seed=4)
        (child,) = np.random.SeedSequence(4).spawn(1)
        batch = spec.build(16, seed=child)
        previous = 0
        for j, t in enumerate(self.CHECKPOINTS):
            batch.run(t - previous)
            previous = t
            np.testing.assert_array_equal(out[:, j, AVERAGE], batch.simple_average)
            np.testing.assert_array_equal(
                out[:, j, WEIGHTED_AVERAGE], batch.weighted_average
            )
            np.testing.assert_array_equal(out[:, j, PHI], batch.phi)

    def test_variance_matches_exact_trajectory(self):
        # |z| <= 4 at each of 3 checkpoints: false-alarm rate 1.9e-4
        # (6.3e-5 per checkpoint, normal approximation).
        graph = cycle_graph(9)
        values = center_simple(np.arange(9.0))
        checkpoints = [1, 10, 80]
        exact = exact_variance_trajectory(graph, values, 0.5, 1, checkpoints)
        averages = sample_checkpoints_batch(
            self._spec(graph, values), checkpoints, 4000, seed=12
        )[:, :, AVERAGE]
        for j, expected in enumerate(exact):
            sample = averages[:, j]
            var = sample.var(ddof=1)
            m4 = np.mean((sample - sample.mean()) ** 4)
            z = (var - expected) / np.sqrt((m4 - var * var) / len(sample))
            assert abs(z) <= 4.0, (checkpoints[j], var, expected)

    def test_weighted_average_is_a_martingale_on_irregular_graph(self):
        # |z| <= 4 at each of 2 checkpoints: false-alarm rate 1.3e-4.
        graph = lollipop_graph(11)
        values = np.linspace(0.0, 1.0, 11)
        spec = self._spec(graph, values)
        m0 = float(spec.adjacency.stationary_pi() @ values)
        weighted = sample_checkpoints_batch(
            spec, [50, 400], 2000, seed=13
        )[:, :, WEIGHTED_AVERAGE]
        z = (weighted.mean(axis=0) - m0) / (
            weighted.std(axis=0, ddof=1) / np.sqrt(len(weighted))
        )
        assert np.all(np.abs(z) <= 4.0), z

    @pytest.mark.parametrize("checkpoints", [[5, 3], [-1, 2]])
    def test_rejects_bad_checkpoints(self, regular36, values36, checkpoints):
        with pytest.raises(ParameterError):
            sample_checkpoints_batch(
                self._spec(regular36, values36), checkpoints, 4, seed=0
            )


class TestCache:
    def test_round_trip_and_reuse(self, tmp_path, regular36, values36):
        spec = EngineSpec(
            "node", Adjacency.from_graph(regular36), values36, 0.5, 1
        )
        cache = ResultCache(tmp_path)
        first = sample_f_batch(
            spec, 60, seed=3, discrepancy_tol=1e-6, cache=cache
        )
        assert list(tmp_path.glob("*.npy"))
        again = sample_f_batch(
            spec, 60, seed=3, discrepancy_tol=1e-6, cache=cache
        )
        np.testing.assert_array_equal(first, again)

    def test_key_separates_parameters(self, tmp_path, regular36, values36):
        spec = EngineSpec(
            "node", Adjacency.from_graph(regular36), values36, 0.5, 1
        )
        cache = ResultCache(tmp_path)
        a = sample_f_batch(spec, 40, seed=3, discrepancy_tol=1e-6, cache=cache)
        b = sample_f_batch(spec, 40, seed=4, discrepancy_tol=1e-6, cache=cache)
        assert len(list(tmp_path.glob("*.npy"))) == 2
        assert not np.array_equal(a, b)

    def test_nondeterministic_seed_not_cached(self, tmp_path, regular36, values36):
        spec = EngineSpec(
            "node", Adjacency.from_graph(regular36), values36, 0.5, 1
        )
        cache = ResultCache(tmp_path)
        sample_f_batch(spec, 20, seed=None, discrepancy_tol=1e-6, cache=cache)
        assert not list(tmp_path.glob("*.npy"))

    def test_via_sample_f_values_cache_dir(self, tmp_path, regular36, values36):
        def make(rng):
            return NodeModel(regular36, values36, alpha=0.5, k=1, seed=rng)

        first = sample_f_values(
            make, 40, seed=9, discrepancy_tol=1e-6, cache_dir=str(tmp_path)
        )
        second = sample_f_values(
            make, 40, seed=9, discrepancy_tol=1e-6, cache_dir=str(tmp_path)
        )
        np.testing.assert_array_equal(first, second)
        assert list(tmp_path.glob("*.npy"))


class TestEngineSelection:
    def test_loop_fallback_for_custom_process(self, regular36, values36):
        """A factory the engine cannot describe silently uses the loop.

        A subclass may override the selection law, so it must not be
        batchable even when it adds nothing else.
        """
        from repro.sim.montecarlo import _derive_spec

        class Custom(NodeModel):
            pass

        def make(rng):
            return Custom(regular36, values36, alpha=0.5, k=1, seed=rng)

        assert _derive_spec(make, 1) is None
        sample = sample_f_values(make, 5, seed=1, discrepancy_tol=1e-6)
        assert len(sample) == 5

    def test_loop_fallback_for_per_replica_initials(self, regular36):
        """Randomised per-replica starts are detected and loop-routed."""

        def make(rng):
            return NodeModel(
                regular36, rng.normal(size=36), alpha=0.5, k=1, seed=rng
            )

        sample = sample_f_values(make, 5, seed=2, discrepancy_tol=1e-6)
        assert len(np.unique(np.round(sample, 12))) > 1

    def test_unknown_engine_rejected(self, regular36, values36):
        def make(rng):
            return NodeModel(regular36, values36, alpha=0.5, k=1, seed=rng)

        with pytest.raises(ParameterError):
            sample_f_values(make, 5, seed=1, engine="warp")

    def test_spec_equality_and_hash(self, regular36, values36):
        """Specs compare and hash by content (usable as dict/set keys)."""
        adjacency = Adjacency.from_graph(regular36)
        a = EngineSpec("node", adjacency, values36, 0.5, 2)
        b = EngineSpec("node", adjacency, values36.copy(), 0.5, 2)
        c = EngineSpec("node", adjacency, values36, 0.5, 4)
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert len({a, b, c}) == 2


class TestBatchConstruction:
    def test_matrix_initials_per_replica(self, regular36, rng):
        starts = rng.normal(size=(5, 36))
        batch = BatchNodeModel(regular36, starts, alpha=0.5, k=1, seed=1)
        assert batch.replicas == 5
        np.testing.assert_array_equal(batch.values, starts)

    def test_shape_validation(self, regular36, values36):
        with pytest.raises(ParameterError):
            BatchNodeModel(regular36, values36, alpha=0.5, k=1)  # no replicas
        with pytest.raises(ParameterError):
            BatchNodeModel(
                regular36, values36[:-1], alpha=0.5, k=1, replicas=2
            )
        with pytest.raises(ParameterError):
            BatchNodeModel(
                regular36, np.zeros((3, 36)), alpha=0.5, k=1, replicas=4
            )

    def test_k_validation_matches_scalar(self, star5):
        values = np.zeros(6)
        with pytest.raises(ParameterError):
            BatchNodeModel(star5, values, alpha=0.5, k=2, replicas=2)

    def test_observables_shapes(self, regular36, values36):
        batch = BatchNodeModel(
            regular36, values36, alpha=0.5, k=1, replicas=7, seed=2
        )
        batch.run(50)
        assert batch.phi.shape == (7,)
        assert batch.discrepancy.shape == (7,)
        assert batch.weighted_average.shape == (7,)
        assert batch.simple_average.shape == (7,)

    def test_martingale_preserved(self, regular36, values36):
        """The pi-weighted mean is a martingale; it never drifts far."""
        batch = BatchNodeModel(
            regular36, values36, alpha=0.5, k=1, replicas=64, seed=3
        )
        before = batch.weighted_average.mean()
        batch.run(2_000)
        batch.resync_moments()
        after = batch.weighted_average.mean()
        assert abs(after - before) < 0.2
