"""Conformance tests for the vectorized dual engine (repro.engine.dual).

The scalar ``repro.dual`` facades and hand-loop reimplementations in
this module are the oracles: batch replays must be *bit-identical* to
them, selection streams must match the primal engine's, and the
Lemma 5.2 shared-schedule identity must hold to machine precision for
every replica at engine scale, under every kernel.
"""

import numpy as np
import pytest

from repro.core.node_model import NodeModel
from repro.core.schedule import Schedule, draw_node_selection
from repro.dual.coalescing import CoalescingWalks, meeting_time_estimate
from repro.dual.diffusion import DiffusionProcess
from repro.dual.walks import RandomWalkProcess
from repro.engine import (
    BatchCoalescing,
    BatchDiffusion,
    BatchNodeModel,
    BatchWalks,
    DualSpec,
    RecordedSelections,
    ResultCache,
    run_duality_batch,
    resolve_kernel,
    sample_coalescence_times,
)
from repro.exceptions import ConvergenceError, ParameterError
from repro.graphs.adjacency import Adjacency
from repro.graphs.generators import (
    erdos_renyi_graph,
    lollipop_graph,
    random_regular_graph,
    star_graph,
)
from repro.rng import as_generator, spawn

KERNELS = ["numpy", "fused"] + (["jit"] if resolve_kernel("auto") == "jit" else [])


@pytest.fixture(scope="module")
def regular16():
    return Adjacency.from_graph(random_regular_graph(16, 4, seed=1))


@pytest.fixture(scope="module")
def irregular12():
    return Adjacency.from_graph(erdos_renyi_graph(12, 0.5, seed=2))


def _random_schedule(adjacency, k, steps, seed, noop_every=0):
    rng = as_generator(seed)
    schedule = Schedule()
    for t in range(steps):
        if noop_every and t % noop_every == 0:
            schedule.append(int(rng.integers(adjacency.n)), ())
            continue
        step = draw_node_selection(adjacency, k, rng)
        schedule.append(step.node, step.sample)
    return schedule


# ----------------------------------------------------------------------
# RecordedSelections
# ----------------------------------------------------------------------
class TestRecordedSelections:
    def test_shapes_validated(self):
        with pytest.raises(ParameterError):
            RecordedSelections(np.zeros(3, dtype=np.int64), np.zeros((3, 2, 1)))
        with pytest.raises(ParameterError):
            RecordedSelections(
                np.zeros((3, 2), dtype=np.int64), np.zeros((3, 3, 1), dtype=np.int64)
            )
        with pytest.raises(ParameterError):
            RecordedSelections(
                np.zeros((3, 2), dtype=np.int64),
                np.zeros((3, 2, 1), dtype=np.int64),
                keep=np.ones((2, 2), dtype=bool),
            )

    def test_reversed_round_trip(self):
        nodes = np.arange(6, dtype=np.int64).reshape(3, 2)
        picked = np.arange(12, dtype=np.int64).reshape(3, 2, 2)
        sel = RecordedSelections(nodes, picked)
        rev = sel.reversed()
        assert np.array_equal(rev.nodes, nodes[::-1])
        assert np.array_equal(rev.reversed().nodes, nodes)
        assert len(sel) == 3 and sel.replicas == 2 and sel.k == 2

    def test_schedule_for_with_noops(self):
        nodes = np.array([[1, 2], [3, 4]], dtype=np.int64)
        picked = np.array([[[5], [6]], [[7], [8]]], dtype=np.int64)
        keep = np.array([[True, False], [False, True]])
        sel = RecordedSelections(nodes, picked, keep)
        s0 = sel.schedule_for(0)
        s1 = sel.schedule_for(1)
        assert [(s.node, s.sample) for s in s0] == [(1, (5,)), (3, ())]
        assert [(s.node, s.sample) for s in s1] == [(2, ()), (4, (8,))]

    def test_concatenate_mixed_keep(self):
        a = RecordedSelections(
            np.zeros((2, 2), dtype=np.int64), np.zeros((2, 2, 1), dtype=np.int64)
        )
        b = RecordedSelections(
            np.ones((1, 2), dtype=np.int64),
            np.ones((1, 2, 1), dtype=np.int64),
            keep=np.array([[True, False]]),
        )
        joined = RecordedSelections.concatenate([a, b])
        assert len(joined) == 3
        assert joined.keep is not None
        assert joined.keep[:2].all()
        assert joined.keep[2].tolist() == [True, False]


# ----------------------------------------------------------------------
# Primal selection recording (all kernels)
# ----------------------------------------------------------------------
class TestPrimalSelectionRecording:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_recorded_stream_replays_to_primal_state(self, regular16, kernel, k):
        """Replaying replica b's recorded schedule through the scalar
        NodeModel reproduces the batch trajectory (the recording is the
        trajectory, under every kernel)."""
        x0 = np.linspace(-1.0, 1.0, 16)
        batch = BatchNodeModel(
            regular16, x0, 0.4, k=k, replicas=3, seed=11, kernel=kernel
        )
        batch.record_selections()
        batch.run(130)
        selections = batch.recorded_selections()
        assert len(selections) == 130
        for b in range(3):
            schedule = selections.schedule_for(b)
            schedule.validate(regular16, k=k)
            scalar = NodeModel(regular16, x0, alpha=0.4, k=k)
            scalar.replay(schedule)
            np.testing.assert_allclose(
                scalar.values, batch.values[b], atol=1e-12
            )

    @pytest.mark.parametrize("kernel", ["numpy", "fused"])
    def test_lazy_recording_marks_noops(self, regular16, kernel):
        x0 = np.linspace(0.0, 1.0, 16)
        batch = BatchNodeModel(
            regular16, x0, 0.5, k=1, replicas=4, seed=3, lazy=True,
            kernel=kernel,
        )
        batch.record_selections()
        batch.run(200)
        selections = batch.recorded_selections()
        assert selections.keep is not None
        frac = selections.keep.mean()
        assert 0.35 < frac < 0.65  # the fair lazy coin
        scalar = NodeModel(regular16, x0, alpha=0.5, k=1)
        scalar.replay(selections.schedule_for(2))
        np.testing.assert_allclose(scalar.values, batch.values[2], atol=1e-12)

    def test_recording_requires_enable(self, regular16):
        batch = BatchNodeModel(
            regular16, np.zeros(16), 0.5, replicas=2, seed=0
        )
        with pytest.raises(ParameterError):
            batch.recorded_selections()
        batch.record_selections()
        with pytest.raises(ParameterError):
            batch.recorded_selections()


# ----------------------------------------------------------------------
# BatchDiffusion
# ----------------------------------------------------------------------
class TestBatchDiffusion:
    @pytest.mark.parametrize("backend", ["dense", "csr"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_shared_replay_bit_identical_to_scalar(self, regular16, backend, k):
        """Every replica replaying a shared schedule equals the scalar
        facade bit for bit (the diffusion replay is deterministic)."""
        cost = np.linspace(-2.0, 3.0, 16)
        schedule = _random_schedule(regular16, k, 80, seed=5, noop_every=11)
        scalar = DiffusionProcess(regular16, cost=cost, alpha=0.3, k=k)
        scalar.replay(schedule)
        batch = BatchDiffusion(
            regular16, cost=cost, alpha=0.3, k=k, replicas=4, backend=backend
        )
        batch.replay(schedule)
        for b in range(4):
            np.testing.assert_array_equal(batch.loads[b], scalar.loads)
        np.testing.assert_array_equal(batch.costs[0], scalar.costs)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_per_replica_streams_match_scalar_replay(self, regular16, kernel):
        """apply_selections on a recorded primal stream is bit-identical
        to replaying each replica's schedule through the scalar facade."""
        cost = np.linspace(0.0, 1.0, 16)
        x0 = np.linspace(-1.0, 1.0, 16)
        primal = BatchNodeModel(
            regular16, x0, 0.5, k=2, replicas=3, seed=7, kernel=kernel
        )
        primal.record_selections()
        primal.run(90)
        selections = primal.recorded_selections()
        batch = BatchDiffusion(
            regular16, cost=cost, alpha=0.5, k=2, replicas=3
        )
        batch.apply_selections(selections)
        for b in range(3):
            scalar = DiffusionProcess(regular16, cost=cost, alpha=0.5, k=2)
            scalar.replay(selections.schedule_for(b))
            np.testing.assert_array_equal(batch.loads[b], scalar.loads)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_free_run_selection_stream_matches_primal(self, regular16, k):
        """Tentpole contract: a free-running batch diffusion consumes
        bit-identical selection streams to the primal block kernels at a
        fixed seed."""
        x0 = np.zeros(16)
        primal = BatchNodeModel(
            regular16, x0, 0.5, k=k, replicas=5, seed=99, kernel="fused"
        )
        primal.record_selections()
        primal.run(300)
        ps = primal.recorded_selections()
        diffusion = BatchDiffusion(
            regular16, cost=x0, alpha=0.5, k=k, replicas=5, seed=99
        )
        diffusion.record_selections()
        diffusion.run(300)
        ds = diffusion.recorded_selections()
        np.testing.assert_array_equal(ps.nodes, ds.nodes)
        np.testing.assert_array_equal(ps.picked, ds.picked)

    def test_dense_csr_bit_identical_free_run(self, irregular12):
        cost = np.linspace(0.0, 1.0, 12)
        runs = []
        for backend in ("dense", "csr"):
            batch = BatchDiffusion(
                irregular12, cost=cost, alpha=0.4, k=1, replicas=4, seed=21,
                backend=backend,
            )
            batch.run(250)
            runs.append(batch.loads.copy())
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_mass_conserved_and_shapes(self, regular16):
        batch = BatchDiffusion(
            regular16, cost=np.ones(16), alpha=0.25, k=2, replicas=3, seed=2
        )
        batch.run(500)
        np.testing.assert_allclose(batch.total_mass(), 1.0)
        assert batch.costs.shape == (3, 16)
        assert batch.commodity_load(4).shape == (3, 16)

    def test_loads_validation(self, regular16):
        with pytest.raises(ParameterError):
            BatchDiffusion(
                regular16, cost=np.ones(16), alpha=0.5, replicas=2,
                loads=np.zeros((5, 3)),
            )
        with pytest.raises(ParameterError):
            BatchDiffusion(
                regular16, cost=np.ones(5), alpha=0.5, replicas=2
            )
        with pytest.raises(ParameterError):
            BatchDiffusion(regular16, cost=np.ones(16), alpha=1.0, replicas=2)


# ----------------------------------------------------------------------
# BatchWalks
# ----------------------------------------------------------------------
def _walk_oracle_replay(adjacency, alpha, schedule, replicas, seed):
    """Hand-loop reimplementation of the batch walk replay law.

    Consumes, per non-noop step, one C-order ``(B, n)`` uniform plane
    from the same generator the batch uses, and applies the documented
    decode (coin ``u < 1 - alpha``; slot ``floor(u * k / (1 - alpha))``)
    walk by walk.
    """
    rng = as_generator(seed)
    n = adjacency.n
    beta = 1.0 - alpha
    positions = np.tile(np.arange(n, dtype=np.int64), (replicas, 1))
    for step in schedule:
        if step.is_noop:
            continue
        plane = rng.random((replicas, n))
        sample = np.asarray(step.sample, dtype=np.int64)
        k = len(sample)
        for b in range(replicas):
            for walk in range(n):
                if positions[b, walk] != step.node:
                    continue
                u = plane[b, walk]
                if u >= beta:
                    continue
                if k == 1:
                    positions[b, walk] = sample[0]
                else:
                    slot = min(int(u * (k / beta)), k - 1)
                    positions[b, walk] = sample[slot]
    return positions


class TestBatchWalks:
    @pytest.mark.parametrize("alpha,k", [(0.0, 1), (0.5, 1), (0.3, 2)])
    def test_shared_replay_bit_identical_to_oracle(self, regular16, alpha, k):
        schedule = _random_schedule(regular16, k, 60, seed=8, noop_every=9)
        batch = BatchWalks(
            regular16, cost=np.zeros(16), alpha=alpha, k=k, replicas=4,
            seed=31,
        )
        batch.replay(schedule)
        oracle = _walk_oracle_replay(regular16, alpha, schedule, 4, seed=31)
        np.testing.assert_array_equal(batch.positions, oracle)

    def test_facade_is_the_single_replica_batch(self, regular16):
        schedule = _random_schedule(regular16, 1, 120, seed=4)
        scalar = RandomWalkProcess(
            regular16, cost=np.zeros(16), alpha=0.4, seed=17
        )
        scalar.replay(schedule)
        batch = BatchWalks(
            regular16, cost=np.zeros(16), alpha=0.4, replicas=1, seed=17
        )
        batch.replay(schedule)
        np.testing.assert_array_equal(scalar.positions, batch.positions[0])

    def test_costs_and_occupancy(self, regular16):
        cost = np.linspace(5.0, 6.0, 16)
        batch = BatchWalks(
            regular16, cost=cost, alpha=0.5, replicas=3, seed=9
        )
        batch.run(400)
        occupancy = batch.occupancy()
        assert occupancy.shape == (3, 16)
        np.testing.assert_array_equal(occupancy.sum(axis=1), 16)
        assert np.all(batch.costs >= cost.min())
        assert np.all(batch.costs <= cost.max())

    def test_apply_selections_moves_only_selected(self, regular16):
        """With alpha = 0 every walk on the selected node moves into the
        recorded sample, all other walks stay."""
        primal = BatchNodeModel(
            regular16, np.zeros(16), 0.5, k=1, replicas=2, seed=5
        )
        primal.record_selections()
        primal.run(1)
        selections = primal.recorded_selections()
        batch = BatchWalks(
            regular16, cost=np.zeros(16), alpha=0.0, k=1, replicas=2, seed=6
        )
        before = batch.positions.copy()
        batch.apply_selections(selections)
        for b in range(2):
            node = selections.nodes[0, b]
            target = selections.picked[0, b, 0]
            moved = np.flatnonzero(batch.positions[b] != before[b])
            assert moved.tolist() == [node]
            assert batch.positions[b, node] == target

    def test_apply_selections_consumes_one_c_order_plane(self, regular16):
        """Per-round planes are the stream of one (R, B, n) draw."""
        primal = BatchNodeModel(
            regular16, np.zeros(16), 0.5, k=2, replicas=3, seed=5
        )
        primal.record_selections()
        primal.run(300)
        selections = primal.recorded_selections()
        batch, oracle = (
            BatchWalks(
                regular16, cost=np.zeros(16), alpha=0.4, k=2, replicas=3,
                seed=6,
            )
            for _ in range(2)
        )
        batch.apply_selections(selections)
        planes = oracle.rng.random((300, 3, 16))
        for t in range(300):
            keep = None if selections.keep is None else selections.keep[t]
            oracle._apply_round(
                selections.nodes[t], selections.picked[t], keep, planes[t]
            )
        np.testing.assert_array_equal(batch.positions, oracle.positions)

    def test_positions_validation(self, regular16):
        with pytest.raises(ParameterError):
            BatchWalks(
                regular16, cost=np.zeros(16), alpha=0.5, replicas=2,
                positions=np.full(16, 99),
            )


# ----------------------------------------------------------------------
# BatchCoalescing
# ----------------------------------------------------------------------
def _coalescing_oracle(adjacency, alpha, block, positions):
    """Hand-loop reimplementation of one coalescing block.

    ``block`` is the ``(R, B)`` uniform matrix the batch consumed;
    ``positions`` the ``(B, n)`` start labels, mutated in place.
    """
    n = adjacency.n
    beta = 1.0 - alpha
    for r in range(block.shape[0]):
        for b in range(block.shape[1]):
            u = block[r, b]
            scaled = u * n
            node = int(scaled)
            frac = scaled - node
            if frac < alpha:
                continue
            if not np.any(positions[b] == node):
                continue
            degree = int(adjacency.degrees[node])
            slot = min(max(int((frac - alpha) / beta * degree), 0), degree - 1)
            target = int(adjacency.neighbors[adjacency.offsets[node] + slot])
            positions[b][positions[b] == node] = target
    return positions


class TestBatchCoalescing:
    @pytest.mark.parametrize("alpha", [0.0, 0.4])
    def test_block_bit_identical_to_oracle(self, regular16, alpha):
        steps = 600  # three blocks at the default block_rounds
        batch = BatchCoalescing(regular16, alpha=alpha, replicas=5, seed=13)
        batch.run(steps)
        oracle_rng = as_generator(13)
        block = oracle_rng.random((steps, 5))
        expected = _coalescing_oracle(
            regular16, alpha, block,
            np.tile(np.arange(16, dtype=np.int64), (5, 1)),
        )
        np.testing.assert_array_equal(batch.positions, expected)
        for b in range(5):
            assert batch.num_clusters[b] == len(set(expected[b].tolist()))

    @pytest.mark.parametrize("alpha", [0.0, 0.4])
    @pytest.mark.parametrize("graph", ["regular16", "lollipop"])
    def test_chunk_invariance(self, request, graph, alpha):
        """Positions and coalescence times do not depend on block_rounds."""
        adjacency = (
            request.getfixturevalue(graph) if graph == "regular16"
            else Adjacency.from_graph(lollipop_graph(10))
        )
        positions, times = [], []
        for block_rounds in (1, 7, None):
            batch = BatchCoalescing(adjacency, alpha=alpha, replicas=5, seed=29)
            walks = BatchCoalescing(adjacency, alpha=alpha, replicas=5, seed=31)
            if block_rounds is not None:
                batch.block_rounds = walks.block_rounds = block_rounds
            batch.run(600)  # more than two default blocks
            positions.append(batch.positions)
            times.append(walks.run_to_coalescence())
        assert times[-1].max() > 256
        for other_positions, other_times in zip(positions[:-1], times[:-1]):
            np.testing.assert_array_equal(other_positions, positions[-1])
            np.testing.assert_array_equal(other_times, times[-1])

    def test_cluster_count_matches_occupancy(self, regular16):
        batch = BatchCoalescing(regular16, alpha=0.0, replicas=8, seed=3)
        for _ in range(40):
            batch.run(25)
            for b in range(8):
                assert batch.num_clusters[b] == len(
                    set(batch.positions[b].tolist())
                )

    def test_run_to_coalescence_times_positive(self, regular16):
        batch = BatchCoalescing(regular16, alpha=0.0, replicas=6, seed=7)
        times = batch.run_to_coalescence()
        assert np.all(times > 0)
        assert np.all(batch.num_clusters == 1)
        # Already-coalesced replicas report 0 on a second call.
        np.testing.assert_array_equal(
            batch.run_to_coalescence(), np.zeros(6, dtype=np.int64)
        )

    def test_budget_raises(self, regular16):
        batch = BatchCoalescing(regular16, alpha=0.0, replicas=4, seed=7)
        with pytest.raises(ConvergenceError):
            batch.run_to_coalescence(max_steps=2)

    def test_untracked_positions_same_times(self, regular16):
        tracked = BatchCoalescing(
            regular16, alpha=0.0, replicas=6, seed=19, track_positions=True
        )
        bare = BatchCoalescing(
            regular16, alpha=0.0, replicas=6, seed=19, track_positions=False
        )
        assert bare.positions is None
        np.testing.assert_array_equal(
            tracked.run_to_coalescence(), bare.run_to_coalescence()
        )

    def test_facade_matches_batch_column(self, regular16):
        scalar = CoalescingWalks(regular16, alpha=0.2, seed=23)
        batch = BatchCoalescing(regular16, alpha=0.2, replicas=1, seed=23)
        scalar_time = scalar.run_to_coalescence()
        batch_time = int(batch.run_to_coalescence()[0])
        assert scalar_time == batch_time

    def test_meeting_time_estimate_batched(self, regular16):
        estimate = meeting_time_estimate(regular16, replicas=12, seed=5)
        assert estimate > 0


# ----------------------------------------------------------------------
# DualSpec + caching
# ----------------------------------------------------------------------
class TestDualSpec:
    def test_kind_and_cost_validation(self, regular16):
        with pytest.raises(ParameterError):
            DualSpec(kind="bogus", adjacency=regular16, alpha=0.5)
        with pytest.raises(ParameterError):
            DualSpec(kind="walks", adjacency=regular16, alpha=0.5)
        with pytest.raises(ParameterError):
            DualSpec(
                kind="diffusion", adjacency=regular16, alpha=0.5,
                cost=np.ones(3),
            )

    def test_cache_token_splits_configurations(self, regular16, irregular12):
        cost = np.ones(16)
        base = DualSpec(
            kind="walks", adjacency=regular16, alpha=0.5, k=1, cost=cost
        )
        assert base == DualSpec(
            kind="walks", adjacency=regular16, alpha=0.5, k=1, cost=cost.copy()
        )
        others = [
            DualSpec(kind="diffusion", adjacency=regular16, alpha=0.5, cost=cost),
            DualSpec(kind="walks", adjacency=regular16, alpha=0.25, cost=cost),
            DualSpec(kind="walks", adjacency=regular16, alpha=0.5, k=2, cost=cost),
            DualSpec(kind="walks", adjacency=regular16, alpha=0.5, cost=cost * 2),
            DualSpec(kind="coalescing", adjacency=regular16, alpha=0.5),
        ]
        tokens = {spec.cache_token() for spec in others}
        tokens.add(base.cache_token())
        assert len(tokens) == len(others) + 1

    def test_build_dispatches_kinds(self, regular16):
        cost = np.zeros(16)
        diff = DualSpec(
            kind="diffusion", adjacency=regular16, alpha=0.5, cost=cost
        ).build(3, seed=1)
        walks = DualSpec(
            kind="walks", adjacency=regular16, alpha=0.5, cost=cost
        ).build(3, seed=1)
        coal = DualSpec(kind="coalescing", adjacency=regular16, alpha=0.0).build(
            3, seed=1
        )
        assert isinstance(diff, BatchDiffusion)
        assert isinstance(walks, BatchWalks)
        assert isinstance(coal, BatchCoalescing)
        assert coal.positions is None  # sampling builds label-free batches

    def test_coalescence_sampler_caches(self, regular16, tmp_path):
        spec = DualSpec(kind="coalescing", adjacency=regular16, alpha=0.0)
        cache = ResultCache(tmp_path)
        first = sample_coalescence_times(spec, 8, seed=42, cache=cache)
        assert len(list(tmp_path.glob("*.npy"))) == 1
        second = sample_coalescence_times(spec, 8, seed=42, cache=cache)
        np.testing.assert_array_equal(first, second)
        # A different alpha must miss.
        lazy = DualSpec(kind="coalescing", adjacency=regular16, alpha=0.5)
        sample_coalescence_times(lazy, 8, seed=42, cache=cache)
        assert len(list(tmp_path.glob("*.npy"))) == 2

    def test_coalescence_sampler_shards_and_processes(self, regular16):
        spec = DualSpec(kind="coalescing", adjacency=regular16, alpha=0.0)
        single = sample_coalescence_times(spec, 10, seed=3, shard_size=4)
        multi = sample_coalescence_times(
            spec, 10, seed=3, shard_size=4, processes=2
        )
        np.testing.assert_array_equal(single, multi)

    def test_sampler_rejects_wrong_kind(self, regular16):
        spec = DualSpec(
            kind="walks", adjacency=regular16, alpha=0.5, cost=np.zeros(16)
        )
        with pytest.raises(ParameterError):
            sample_coalescence_times(spec, 4)


# ----------------------------------------------------------------------
# The loop oracles behind engine="loop"
# ----------------------------------------------------------------------
class TestLoopEnginePaths:
    def test_verification_checks_accept_loop_engine(self, regular16):
        from repro.dual.verification import (
            check_lemma_53,
            check_lemma_55,
            check_proposition_54,
        )

        cost = np.linspace(-1.0, 1.0, 16)
        schedule = _random_schedule(regular16, 1, 10, seed=1)
        for engine in ("batch", "loop"):
            check = check_lemma_53(
                regular16, cost, 0.5, 1, schedule, walk=3, replicas=60,
                seed=2, engine=engine,
            )
            assert np.isfinite(check.estimate)
            check = check_proposition_54(
                regular16, cost, 0.5, 2, steps=8, pair=(0, 5), replicas=40,
                seed=3, engine=engine,
            )
            assert np.isfinite(check.standard_error)
        check = check_lemma_55(
            regular16, cost, 0.5, 1, pair=(0, 7), horizon=20, replicas=30,
            seed=4, engine="loop",
        )
        assert np.isfinite(check.estimate)

    def test_verification_rejects_unknown_engine(self, regular16):
        from repro.dual.verification import check_lemma_53

        with pytest.raises(ParameterError):
            check_lemma_53(
                regular16, np.zeros(16), 0.5, 1, Schedule(), walk=0,
                replicas=4, engine="bogus",
            )

    def test_sample_meeting_times_engines_agree_in_law(self, regular16):
        from repro.sim import sample_meeting_times

        batch = sample_meeting_times(regular16, 12, seed=5, engine="batch")
        loop = sample_meeting_times(regular16, 12, seed=5, engine="loop")
        assert batch.shape == loop.shape == (12,)
        assert np.all(batch > 0) and np.all(loop > 0)
        with pytest.raises(ParameterError):
            sample_meeting_times(regular16, 4, engine="bogus")


# ----------------------------------------------------------------------
# The Lemma 5.2 acceptance harness
# ----------------------------------------------------------------------
class TestEngineScaleDuality:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("k", [1, 2])
    def test_node_duality_at_scale(self, kernel, k):
        """Acceptance: n >= 256, B >= 64, every kernel, machine precision."""
        adjacency = Adjacency.from_graph(random_regular_graph(256, 4, seed=0))
        initial = np.cos(np.arange(256) * 0.37) * 3.0
        report = run_duality_batch(
            adjacency, initial, alpha=0.5, k=k, steps=512, replicas=64,
            seed=123, kernel=kernel,
        )
        assert report.replicas == 64
        assert report.errors.shape == (64,)
        assert report.verified(), f"max error {report.max_error}"
        assert report.max_error <= 1e-12

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_edge_duality_at_scale(self, kernel):
        adjacency = Adjacency.from_graph(random_regular_graph(256, 4, seed=1))
        initial = np.sin(np.arange(256) * 0.21)
        report = run_duality_batch(
            adjacency, initial, alpha=0.5, steps=512, replicas=64, seed=5,
            kind="edge", kernel=kernel,
        )
        assert report.verified(), f"max error {report.max_error}"

    def test_irregular_and_lazy_duality(self):
        adjacency = Adjacency.from_graph(star_graph(40))
        initial = np.linspace(-1.0, 2.0, adjacency.n)
        report = run_duality_batch(
            adjacency, initial, alpha=0.6, k=1, steps=300, replicas=16,
            seed=2, lazy=True, kernel="fused",
        )
        assert report.verified(), f"max error {report.max_error}"

    def test_duality_fails_without_reversal(self, regular16):
        """The reversal is essential: applying the *forward* stream must
        not reproduce xi(T) in general."""
        initial = np.linspace(-3.0, 3.0, 16)
        primal = BatchNodeModel(
            regular16, initial, 0.5, k=1, replicas=4, seed=6, kernel="fused"
        )
        primal.record_selections()
        primal.run(120)
        selections = primal.recorded_selections()
        diffusion = BatchDiffusion(
            regular16, cost=initial, alpha=0.5, k=1, replicas=4
        )
        diffusion.apply_selections(selections)  # NOT reversed
        assert not np.allclose(diffusion.costs, primal.values, atol=1e-6)
