"""Cross-layer conformance tests for the dynamic-graph engine.

The dynamic analogue of ``test_engine.py`` / ``test_kernels.py``: the
*pre-engine hand loop* — per-segment scalar NodeModel/EdgeModel
composition, reimplemented here as :func:`scalar_dynamic_reference` —
is the correctness oracle.  One recorded ``Schedule`` plus the
schedule's snapshot stream must replay bit-identically through

1. the scalar :class:`~repro.core.dynamic.DynamicAveraging` facade,
2. the batch ``"numpy"`` kernel, and
3. the fused / jit block kernels,

and free-running dynamic batches must keep every static guarantee:
fused == numpy stream equality (node ``k = 1``),
fused == jit bit-equivalence, chunk invariance of ``run()``, and
``run_until_phi`` hitting times exact and invariant to ``block_rounds``
*across switch boundaries*.  The cache-key audit at the bottom pins the
disk-cache contract: a hit across differing kernel stream class,
``block_rounds``, or graph-schedule hash must be impossible.
"""

import pickle

import networkx as nx
import numpy as np
import pytest

from repro.core.dynamic import DynamicAveraging
from repro.core.edge_model import EdgeModel
from repro.core.initial import center_simple, rademacher_values
from repro.core.node_model import NodeModel
from repro.core.schedule import Schedule
from repro.engine import (
    SCHEDULE_KINDS,
    BatchEdgeModel,
    BatchNodeModel,
    CyclicSchedule,
    EngineSpec,
    RandomSchedule,
    ResultCache,
    RewiringSchedule,
    build_schedule,
    resolve_kernel,
    sample_t_eps_batch,
)
from repro.exceptions import ParameterError
from repro.graphs.adjacency import Adjacency
from repro.rng import as_generator

needs_jit = pytest.mark.skipif(
    resolve_kernel("auto") != "jit", reason="no C compiler for the jit loop"
)


@pytest.fixture
def snapshots12():
    return [
        Adjacency.from_graph(nx.cycle_graph(12)),
        Adjacency.from_graph(nx.random_regular_graph(4, 12, seed=1)),
        Adjacency.from_graph(
            nx.connected_watts_strogatz_graph(12, 4, 0.3, seed=2)
        ),
    ]


@pytest.fixture
def values12():
    return center_simple(rademacher_values(12, seed=3))


def scalar_dynamic_reference(
    schedule, initial, model="node", alpha=0.5, k=1, steps=300, seed=0,
    lazy=False,
):
    """The pre-engine hand loop: scalar processes composed per segment.

    Threads one generator through the segments, records the full
    selection sequence ``chi``, and returns the final state, the
    recorded schedule and the last segment's process (for ``phi``).
    This is deliberately independent of :mod:`repro.engine` — it is the
    oracle the engine must match bit for bit under replay.
    """
    rng = as_generator(seed)
    values = np.asarray(initial, dtype=np.float64).copy()
    chi = Schedule()
    t = 0
    process = None
    while t < steps:
        segment = min(schedule.rounds_until_switch(t), steps - t)
        adjacency = schedule.snapshots[schedule.snapshot_at(t)]
        if model == "node":
            process = NodeModel(
                adjacency, values, alpha=alpha, k=k, seed=rng, lazy=lazy,
                record_schedule=True,
            )
        else:
            process = EdgeModel(
                adjacency, values, alpha=alpha, seed=rng, lazy=lazy,
                record_schedule=True,
            )
        process.run(segment)
        for step in process.schedule:
            chi.append(step.node, step.sample)
        values = process.values.copy()
        t += segment
    return values, chi, process


class TestScheduleStream:
    """GraphSchedule: deterministic streams, validation, identity."""

    def test_cyclic_ids(self, snapshots12):
        schedule = CyclicSchedule(snapshots12, 5)
        assert [schedule.snapshot_id(j) for j in range(5)] == [0, 1, 2, 0, 1]
        assert schedule.snapshot_at(0) == 0
        assert schedule.snapshot_at(4) == 0
        assert schedule.snapshot_at(5) == 1
        assert schedule.rounds_until_switch(0) == 5
        assert schedule.rounds_until_switch(13) == 2
        np.testing.assert_array_equal(
            schedule.id_stream(3, 5), [0, 0, 1, 1, 1]
        )

    def test_random_ids_deterministic_random_access(self, snapshots12):
        a = RandomSchedule(snapshots12, 7, seed=4)
        b = RandomSchedule(snapshots12, 7, seed=4)
        # Random access (out of order) yields the same stream.
        ids_backwards = [b.snapshot_id(j) for j in reversed(range(50))][::-1]
        assert [a.snapshot_id(j) for j in range(50)] == ids_backwards
        assert set(ids_backwards) == {0, 1, 2}
        other = RandomSchedule(snapshots12, 7, seed=5)
        assert [other.snapshot_id(j) for j in range(50)] != ids_backwards

    def test_rewire_preserves_degrees_and_connectivity(self, snapshots12):
        base = snapshots12[1]  # 4-regular
        schedule = RewiringSchedule(
            base, num_snapshots=4, switch_every=9, rewires=3, seed=0
        )
        assert schedule.num_snapshots == 4
        assert schedule.snapshots[0] == base
        for adjacency in schedule.snapshots:
            np.testing.assert_array_equal(adjacency.degrees, base.degrees)
            assert nx.is_connected(adjacency.to_networkx())
        # The churn actually rewires: not every snapshot equals the base.
        assert any(a != base for a in schedule.snapshots[1:])

    def test_uniform_pi_flag(self, snapshots12):
        regular = [
            Adjacency.from_graph(nx.random_regular_graph(4, 12, seed=s))
            for s in range(2)
        ]
        assert CyclicSchedule(regular, 5).uniform_pi
        assert not CyclicSchedule(snapshots12, 5).uniform_pi  # mixed degrees
        star = Adjacency.from_graph(nx.star_graph(11))
        assert not CyclicSchedule([regular[0], star], 5).uniform_pi

    def test_validation(self, snapshots12):
        with pytest.raises(ParameterError):
            CyclicSchedule([], 5)
        with pytest.raises(ParameterError):
            CyclicSchedule(snapshots12, 0)
        with pytest.raises(ParameterError, match="same node set"):
            CyclicSchedule([nx.cycle_graph(10), nx.cycle_graph(12)], 5)
        with pytest.raises(ParameterError):
            RandomSchedule(snapshots12, 5, seed=None)
        with pytest.raises(ParameterError):
            build_schedule("warp", snapshots12, 5)
        assert set(SCHEDULE_KINDS) == {"cyclic", "random", "rewire"}

    def test_build_schedule_kinds(self, snapshots12):
        for kind in SCHEDULE_KINDS:
            schedule = build_schedule(kind, snapshots12, 6, seed=1)
            assert schedule.kind == kind
            assert schedule.num_snapshots == 3

    def test_content_hash_identity(self, snapshots12):
        base = CyclicSchedule(snapshots12, 7)
        assert base == CyclicSchedule(list(snapshots12), 7)
        assert base.content_hash() != CyclicSchedule(snapshots12, 8).content_hash()
        assert base.content_hash() != RandomSchedule(
            snapshots12, 7, seed=0
        ).content_hash()
        reordered = CyclicSchedule(snapshots12[::-1], 7)
        assert base.content_hash() != reordered.content_hash()
        assert (
            RandomSchedule(snapshots12, 7, seed=0).content_hash()
            != RandomSchedule(snapshots12, 7, seed=1).content_hash()
        )

    def test_pickle_round_trip(self, snapshots12):
        schedule = RandomSchedule(snapshots12, 7, seed=4)
        ids = [schedule.snapshot_id(j) for j in range(10)]
        clone = pickle.loads(pickle.dumps(schedule))
        assert clone == schedule
        assert [clone.snapshot_id(j) for j in range(10)] == ids


class TestDynamicReplayConformance:
    """One recorded chi + snapshot stream => bit-identical trajectories."""

    @pytest.mark.parametrize("kernel", ["numpy", "fused", "jit"])
    @pytest.mark.parametrize("model,k", [("node", 1), ("node", 2), ("edge", 1)])
    def test_batch_matches_scalar_oracle(
        self, snapshots12, values12, kernel, model, k
    ):
        schedule = CyclicSchedule(snapshots12, 7)
        reference, chi, last = scalar_dynamic_reference(
            schedule, values12, model=model, k=k, steps=300, seed=5
        )
        cls = BatchNodeModel if model == "node" else BatchEdgeModel
        kwargs = {"k": k} if model == "node" else {}
        batch = cls(
            schedule, values12, 0.5, replicas=3, seed=99, kernel=kernel,
            **kwargs,
        )
        batch.replay(chi)
        assert batch.t == 300
        np.testing.assert_array_equal(
            batch.values, np.broadcast_to(reference, batch.values.shape)
        )
        # phi is measured against the snapshot governing the next round,
        # exactly like the oracle's last rebuilt tracker.
        assert batch.phi[0] == pytest.approx(last.phi, abs=1e-12)

    def test_scalar_facade_matches_oracle(self, snapshots12, values12):
        schedule = CyclicSchedule(snapshots12, 7)
        reference, chi, _ = scalar_dynamic_reference(
            schedule, values12, model="node", k=2, steps=300, seed=6
        )
        facade = DynamicAveraging(
            schedule, values12, model="node", alpha=0.5, k=2, seed=1
        )
        facade.replay(chi)
        assert facade.t == 300
        np.testing.assert_array_equal(facade.values, reference)

    def test_lazy_noops_replay(self, snapshots12, values12):
        schedule = CyclicSchedule(snapshots12, 11)
        reference, chi, _ = scalar_dynamic_reference(
            schedule, values12, model="node", k=1, steps=200, seed=7,
            lazy=True,
        )
        assert any(step.is_noop for step in chi)
        batch = BatchNodeModel(
            schedule, values12, 0.5, k=1, replicas=2, seed=99, kernel="fused"
        )
        batch.replay(chi)
        assert batch.t == 200
        np.testing.assert_array_equal(batch.values[0], reference)

    def test_random_schedule_replay(self, snapshots12, values12):
        schedule = RandomSchedule(snapshots12, 9, seed=12)
        reference, chi, _ = scalar_dynamic_reference(
            schedule, values12, model="edge", steps=250, seed=8
        )
        batch = BatchEdgeModel(
            schedule, values12, 0.5, replicas=2, seed=99, kernel="fused"
        )
        batch.replay(chi)
        np.testing.assert_array_equal(batch.values[1], reference)


class TestDynamicFreeRunning:
    """Static kernel guarantees survive time-varying topologies."""

    def test_fused_matches_numpy_stream_node_k1(self, snapshots12, values12):
        schedule = CyclicSchedule(snapshots12, 13)
        legacy = BatchNodeModel(
            schedule, values12, 0.4, k=1, replicas=6, seed=7, kernel="numpy"
        )
        fused = BatchNodeModel(
            schedule, values12, 0.4, k=1, replicas=6, seed=7, kernel="fused"
        )
        legacy.run(600)
        fused.run(600)
        np.testing.assert_array_equal(fused.values, legacy.values)
        np.testing.assert_allclose(fused.phi, legacy.phi, atol=1e-13)

    @pytest.mark.parametrize("make_kwargs", [
        {"k": 2}, {"k": 1, "lazy": True},
    ])
    def test_chunk_invariance_across_switches(
        self, snapshots12, values12, make_kwargs
    ):
        schedule = CyclicSchedule(snapshots12, 17)

        def make():
            return BatchNodeModel(
                schedule, values12, 0.5, replicas=5, seed=5, kernel="fused",
                **make_kwargs,
            )

        one = make()
        one.run(503)
        chunked = make()
        for chunk in (1, 3, 130, 17, 256, 96):
            chunked.run(chunk)
        np.testing.assert_array_equal(one.values, chunked.values)

    def test_edge_chunk_invariance(self, snapshots12, values12):
        schedule = RandomSchedule(snapshots12, 10, seed=3)

        def make():
            return BatchEdgeModel(
                schedule, values12, 0.5, replicas=4, seed=5, kernel="fused",
                lazy=True,
            )

        one = make()
        one.run(403)
        chunked = make()
        for chunk in (2, 99, 17, 256, 29):
            chunked.run(chunk)
        np.testing.assert_array_equal(one.values, chunked.values)

    @needs_jit
    def test_jit_bit_identical_to_fused(self, snapshots12, values12):
        schedule = CyclicSchedule(snapshots12, 13)
        fused = BatchNodeModel(
            schedule, values12, 0.5, k=1, replicas=6, seed=13, kernel="fused"
        )
        jit = BatchNodeModel(
            schedule, values12, 0.5, k=1, replicas=6, seed=13, kernel="jit"
        )
        assert jit.kernel == "jit"
        fused.run(500)
        jit.run(500)
        np.testing.assert_array_equal(fused.values, jit.values)

    def test_facade_is_a_single_replica_batch(self, snapshots12, values12):
        """DynamicAveraging is the engine: bit-identical, not just in law."""
        facade = DynamicAveraging(
            snapshots12, values12, model="node", alpha=0.5, k=1,
            switch_every=19, seed=21,
        )
        facade.run(300)
        batch = BatchNodeModel(
            CyclicSchedule(snapshots12, 19), values12, 0.5, k=1,
            replicas=1, seed=as_generator(21),
        )
        batch.run(300)
        np.testing.assert_array_equal(facade.values, batch.values[0])

    def test_snapshot_samplers_share_d_max(self, snapshots12, values12):
        """Every snapshot's sampler takes the schedule-wide d_max, so the
        k > 2 key width (the RNG draw shape) is the same in every
        segment."""
        batch = BatchNodeModel(
            CyclicSchedule(snapshots12, 5), values12, 0.5, k=1, replicas=2,
            seed=0,
        )
        d_max = max(a.d_max for a in snapshots12)
        assert [s.d_max for s in batch._samplers] == [d_max] * 3
        assert [s.adjacency for s in batch._samplers] == list(snapshots12)


class TestDynamicHittingTimes:
    """Chunked detection stays exact across switch boundaries."""

    def _hits(self, make, block_rounds, epsilon=1e-4, max_steps=500_000):
        batch = make()
        batch.block_rounds = block_rounds
        return batch, batch.run_until_phi(epsilon, max_steps)

    @pytest.mark.parametrize("block_rounds", [7, 64, 256, 1000])
    def test_block_rounds_invariant_node(
        self, snapshots12, values12, block_rounds
    ):
        schedule = CyclicSchedule(snapshots12, 23)

        def make():
            return BatchNodeModel(
                schedule, values12, 0.5, k=1, replicas=12, seed=9,
                kernel="fused",
            )

        ref_batch, reference = self._hits(make, 1)
        assert (reference > 0).all()
        assert reference.max() > 23  # crossings land beyond a switch
        batch, hits = self._hits(make, block_rounds)
        np.testing.assert_array_equal(hits, reference)
        # Crossed replicas are rewound to the exact crossing state, so
        # the frozen values are block-size invariant too.  (phi is not
        # compared directly: it is measured against the snapshot of the
        # *current* round, and the over-stepped t differs by block size.)
        np.testing.assert_array_equal(batch.values, ref_batch.values)

    @pytest.mark.parametrize("block_rounds", [5, 200])
    def test_block_rounds_invariant_edge_lazy(
        self, snapshots12, values12, block_rounds
    ):
        schedule = RandomSchedule(snapshots12, 14, seed=6)

        def make():
            return BatchEdgeModel(
                schedule, values12, 0.5, replicas=8, seed=11, kernel="fused",
                lazy=True,
            )

        _, reference = self._hits(make, 1)
        batch, hits = self._hits(make, block_rounds)
        np.testing.assert_array_equal(hits, reference)

    def test_numpy_kernel_agrees_until_first_freeze(
        self, snapshots12, values12
    ):
        """Node k=1 shares the RNG layout while every replica is live,
        so the first crossing (round and replica) must agree exactly;
        after a freeze the per-round kernel's draws shrink with the
        active set and the streams legitimately diverge (which is why
        ``"numpy"`` is its own cache stream class)."""
        schedule = CyclicSchedule(snapshots12, 23)
        legacy = BatchNodeModel(
            schedule, values12, 0.5, k=1, replicas=8, seed=15, kernel="numpy"
        )
        fused = BatchNodeModel(
            schedule, values12, 0.5, k=1, replicas=8, seed=15, kernel="fused"
        )
        legacy_hits = legacy.run_until_phi(1e-4, 500_000)
        fused_hits = fused.run_until_phi(1e-4, 500_000)
        assert legacy_hits.min() == fused_hits.min()
        assert legacy_hits.argmin() == fused_hits.argmin()

    def test_budget_respected(self, snapshots12, values12):
        batch = BatchNodeModel(
            CyclicSchedule(snapshots12, 6), values12, 0.5, k=1, replicas=3,
            seed=2, kernel="fused",
        )
        times = batch.run_until_phi(1e-14, 50)
        np.testing.assert_array_equal(times, -1)
        assert batch.t == 50


class TestDynamicDriver:
    def test_spec_builds_dynamic_batch(self, snapshots12, values12):
        schedule = CyclicSchedule(snapshots12, 8)
        spec = EngineSpec.for_schedule("node", schedule, values12, 0.5, k=1)
        batch = spec.build(4, seed=0)
        assert batch.graph_schedule is schedule
        spec_edge = EngineSpec.for_schedule("edge", schedule, values12, 0.5)
        assert spec_edge.build(2, seed=0).graph_schedule is schedule

    def test_spec_adjacency_must_match_schedule(self, snapshots12, values12):
        schedule = CyclicSchedule(snapshots12, 8)
        with pytest.raises(ParameterError, match="first snapshot"):
            EngineSpec(
                "node", snapshots12[1], values12, 0.5, 1,
                graph_schedule=schedule,
            )

    def test_block_rounds_threaded(self, snapshots12, values12):
        spec = EngineSpec(
            "node", snapshots12[1], values12, 0.5, 1, block_rounds=64
        )
        assert spec.build(2, seed=0).block_rounds == 64
        with pytest.raises(ParameterError):
            EngineSpec(
                "node", snapshots12[1], values12, 0.5, 1, block_rounds=0
            )

    def test_sharded_dynamic_runs_identical(self, snapshots12, values12):
        schedule = CyclicSchedule(snapshots12, 11)
        spec = EngineSpec.for_schedule(
            "node", schedule, values12, 0.5, k=1, kernel="fused"
        )
        serial = sample_t_eps_batch(
            spec, 1e-4, 24, seed=7, max_steps=500_000, shard_size=8,
            processes=1,
        )
        parallel = sample_t_eps_batch(
            spec, 1e-4, 24, seed=7, max_steps=500_000, shard_size=8,
            processes=2,
        )
        np.testing.assert_array_equal(serial, parallel)


class TestDynamicExperimentEndToEnd:
    def test_exp_dyn_cached_rerun_resumes_for_free(self, tmp_path):
        """The acceptance path: `repro run` a dynamic experiment, then
        re-run the identical spec — every sample array must come back
        from the engine's disk cache, byte for byte."""
        from repro.api import RunSpec, execute

        spec = RunSpec(
            "EXP-DYN",
            overrides={
                "n": 12, "snapshots": 2, "switch_every": 8, "replicas": 6,
                "cache_dir": str(tmp_path),
            },
        )
        first = execute(spec)
        entries = sorted(tmp_path.glob("*.npy"))
        assert len(entries) == 4  # (node|edge) x (static|dynamic)
        second = execute(spec)
        assert [t.to_payload() for t in second.tables] == [
            t.to_payload() for t in first.tables
        ]
        assert sorted(tmp_path.glob("*.npy")) == entries  # pure hits


class TestCacheKeyAudit:
    """A cache hit across kernel stream class, block_rounds, or the
    graph-schedule hash must be impossible."""

    def _spec(self, snapshots12, values12, **kwargs):
        return EngineSpec("node", snapshots12[1], values12, 0.5, 1, **kwargs)

    def test_kernel_stream_classes_split(self, snapshots12, values12):
        tokens = {
            kernel: self._spec(snapshots12, values12, kernel=kernel).cache_token()
            for kernel in ("auto", "fused", "jit", "numpy")
        }
        assert tokens["auto"] == tokens["fused"] == tokens["jit"]
        assert tokens["numpy"] != tokens["fused"]

    def test_block_rounds_split_for_block_streams(self, snapshots12, values12):
        default = self._spec(snapshots12, values12).cache_token()
        explicit_default = self._spec(
            snapshots12, values12, block_rounds=256
        ).cache_token()
        small = self._spec(snapshots12, values12, block_rounds=64).cache_token()
        assert default == explicit_default  # None normalises to the default
        assert small != default
        # The per-round numpy stream has no block structure: its results
        # cannot depend on block_rounds, so its key ignores it.
        assert (
            self._spec(snapshots12, values12, kernel="numpy").cache_token()
            == self._spec(
                snapshots12, values12, kernel="numpy", block_rounds=64
            ).cache_token()
        )

    def test_schedule_hash_split(self, snapshots12, values12):
        static = self._spec(snapshots12, values12).cache_token()
        ordered = [snapshots12[1], snapshots12[0], snapshots12[2]]

        def dynamic(schedule):
            return EngineSpec.for_schedule(
                "node", schedule, values12, 0.5, k=1
            ).cache_token()

        cyclic = dynamic(CyclicSchedule(ordered, 7))
        assert cyclic != static
        assert cyclic == dynamic(CyclicSchedule(list(ordered), 7))
        assert cyclic != dynamic(CyclicSchedule(ordered, 8))
        assert cyclic != dynamic(RandomSchedule(ordered, 7, seed=0))
        assert dynamic(RandomSchedule(ordered, 7, seed=0)) != dynamic(
            RandomSchedule(ordered, 7, seed=1)
        )

    def test_disk_cache_separates_entries(
        self, tmp_path, snapshots12, values12
    ):
        cache = ResultCache(tmp_path)
        ordered = [snapshots12[1], snapshots12[0], snapshots12[2]]
        specs = [
            self._spec(snapshots12, values12),
            self._spec(snapshots12, values12, block_rounds=64),
            EngineSpec.for_schedule(
                "node", CyclicSchedule(ordered, 7), values12, 0.5, k=1
            ),
            EngineSpec.for_schedule(
                "node", RandomSchedule(ordered, 7, seed=0), values12, 0.5, k=1
            ),
        ]
        results = [
            sample_t_eps_batch(
                spec, 1e-4, 6, seed=3, max_steps=500_000, cache=cache
            )
            for spec in specs
        ]
        assert len(list(tmp_path.glob("*.npy"))) == len(specs)
        # And each spec reloads its own array, not a neighbour's.
        for spec, expected in zip(specs, results):
            np.testing.assert_array_equal(
                sample_t_eps_batch(
                    spec, 1e-4, 6, seed=3, max_steps=500_000, cache=cache
                ),
                expected,
            )
