"""Kernel-layer tests: fused/jit block stepping and chunked detection.

Three layers of guarantees, mirroring DESIGN.md section 6:

1. *Replay* — schedule replay is kernel-independent, so every kernel
   reproduces the scalar oracle bit for bit through the coupling path.
2. *Free-running bit-equivalence* — where kernels share an RNG layout
   they must agree exactly: fused == legacy numpy for non-lazy node
   ``k = 1`` free runs (same stream by construction), fused == jit
   always (same pre-drawn variates, same IEEE operations), and fused
   against itself under any chunking of ``run()`` calls.
3. *Chunked detection* — ``run_until_phi`` hitting times are exact and
   invariant to ``block_rounds``: the per-block reconstruction
   backdates each replica to the same crossing round per-round checking
   finds (``block_rounds = 1`` is the per-round reference).
"""

import json
import os
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.edge_model import EdgeModel
from repro.core.initial import center_simple, rademacher_values
from repro.core.node_model import NodeModel
from repro.engine import (
    BatchEdgeModel,
    BatchNodeModel,
    CyclicSchedule,
    EngineSpec,
    KERNEL_CHOICES,
    ResultCache,
    resolve_kernel,
    sample_f_batch,
)
from repro.engine import kernels as kernels_mod
from repro.engine.kernels import run_block_fused
from repro.exceptions import ParameterError
from repro.graphs.adjacency import Adjacency
from repro.graphs.generators import complete_graph, random_regular_graph
from repro.graphs.spectral import adjacency_matrix
from repro.sim.montecarlo import sample_f_values, sample_t_eps

#: Whether the compiled block loop builds and loads on this machine.
HAS_JIT = resolve_kernel("auto") == "jit"
needs_jit = pytest.mark.skipif(not HAS_JIT, reason="no C compiler for the jit loop")


@pytest.fixture
def regular64():
    return random_regular_graph(64, 4, seed=0)


@pytest.fixture
def values64():
    return center_simple(rademacher_values(64, seed=1))


@pytest.fixture
def irregular30():
    import networkx as nx

    return nx.connected_watts_strogatz_graph(30, 6, 0.3, seed=2)


@pytest.fixture
def values30():
    return center_simple(np.random.default_rng(3).normal(size=30))


class TestKernelResolution:
    def test_choices_and_invalid(self):
        assert KERNEL_CHOICES == ("auto", "numpy", "fused", "jit")
        with pytest.raises(ParameterError):
            resolve_kernel("warp")

    def test_jit_par_and_cupy_resolution(self):
        """Both tiers were removed: the names are unknown kernels."""
        from repro.engine import validate_kernel

        for name in ("jit-par", "cupy"):
            with pytest.raises(ParameterError, match="unknown kernel"):
                validate_kernel(name)
            with pytest.raises(ParameterError, match="unknown kernel"):
                resolve_kernel(name)

    def test_numpy_is_identity(self):
        assert resolve_kernel("numpy") == "numpy"

    def test_auto_and_jit_follow_the_compiled_loop(self):
        expected = "jit" if HAS_JIT else "fused"
        assert resolve_kernel("auto") == expected
        # Without a compiler this would fire the one-shot fallback warning,
        # but conftest pre-arms the flag so the suite stays clean under
        # filterwarnings = error::RuntimeWarning.
        assert resolve_kernel("jit") == expected

    def test_jit_fallback_warning_is_captured(self, monkeypatch):
        """Regression: the fallback RuntimeWarning fires exactly where
        expected and is captured by ``pytest.warns`` — never escaping
        into the suite (which runs with RuntimeWarning promoted to an
        error by pytest.ini)."""
        from repro.engine import kernels as kernels_mod

        monkeypatch.setattr(kernels_mod, "_LOOP", None)
        monkeypatch.setattr(kernels_mod, "_FALLBACK_WARNED", False)
        with pytest.warns(RuntimeWarning, match="compiled block loop"):
            assert resolve_kernel("jit") == "fused"
        assert kernels_mod._FALLBACK_WARNED  # re-armed: once per process

    def test_batch_rejects_unknown_kernel(self, regular64, values64):
        with pytest.raises(ParameterError):
            BatchNodeModel(
                regular64, values64, alpha=0.5, replicas=2, kernel="warp"
            )

    def test_batch_records_requested_and_effective(self, regular64, values64):
        batch = BatchNodeModel(
            regular64, values64, alpha=0.5, replicas=2, kernel="jit"
        )
        assert batch.kernel_requested == "jit"
        assert batch.kernel == ("jit" if HAS_JIT else "fused")


class TestScheduleReplayAcrossKernels:
    """Replay never draws RNG: every kernel matches the scalar oracle."""

    @pytest.mark.parametrize("kernel", ["numpy", "fused", "jit"])
    def test_node_model(self, regular64, values64, kernel):
        ref = NodeModel(
            regular64, values64, alpha=0.5, k=2, seed=3, record_schedule=True
        )
        ref.run(400)
        batch = BatchNodeModel(
            regular64, values64, alpha=0.5, k=2, replicas=3, seed=99,
            kernel=kernel,
        )
        batch.replay(ref.schedule)
        assert batch.t == ref.t
        np.testing.assert_array_equal(
            batch.values, np.broadcast_to(ref.values, batch.values.shape)
        )
        assert batch.phi[0] == pytest.approx(ref.phi, abs=1e-12)

    @pytest.mark.parametrize("kernel", ["numpy", "fused", "jit"])
    def test_edge_model(self, regular64, values64, kernel):
        ref = EdgeModel(
            regular64, values64, alpha=0.7, seed=4, record_schedule=True
        )
        ref.run(400)
        batch = BatchEdgeModel(
            regular64, values64, alpha=0.7, replicas=2, seed=99, kernel=kernel
        )
        batch.replay(ref.schedule)
        np.testing.assert_array_equal(batch.values[0], ref.values)


class TestFusedMatchesLegacyStream:
    """Non-lazy node k=1 free runs share the numpy kernel's RNG layout."""

    @pytest.mark.parametrize("form", ["dense", "csr"])
    def test_regular_and_irregular(
        self, regular64, values64, irregular30, values30, form
    ):
        for graph, values, n_rep in (
            (_graph_in(form, regular64), values64, 8),
            (_graph_in(form, irregular30), values30, 5),
        ):
            legacy = BatchNodeModel(
                graph, values, alpha=0.4, k=1, replicas=n_rep, seed=7,
                kernel="numpy",
            )
            fused = BatchNodeModel(
                graph, values, alpha=0.4, k=1, replicas=n_rep, seed=7,
                kernel="fused",
            )
            legacy.run(600)
            fused.run(600)
            assert fused.t == legacy.t == 600
            np.testing.assert_array_equal(fused.values, legacy.values)
            # Deferred moments resync to the same state.
            np.testing.assert_allclose(fused.phi, legacy.phi, atol=1e-13)


class TestChunkInvariance:
    """One realized trajectory no matter how run() calls are chunked."""

    def _variants(self, make):
        one = make()
        one.run(703)
        chunked = make()
        for chunk in (1, 3, 130, 17, 256, 296):
            chunked.run(chunk)
        np.testing.assert_array_equal(one.values, chunked.values)

    def test_node_k1(self, regular64, values64):
        self._variants(lambda: BatchNodeModel(
            regular64, values64, alpha=0.5, k=1, replicas=8, seed=5,
            kernel="fused",
        ))

    def test_node_k2_lazy(self, regular64, values64):
        self._variants(lambda: BatchNodeModel(
            regular64, values64, alpha=0.5, k=2, replicas=8, seed=5,
            kernel="fused", lazy=True,
        ))

    def test_edge_lazy(self, regular64, values64):
        self._variants(lambda: BatchEdgeModel(
            regular64, values64, alpha=0.5, replicas=8, seed=5,
            kernel="fused", lazy=True,
        ))


class TestBlockRangeCheck:
    """The fused fast path checks a block's indices once, before any write."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("bad", [-1, "past_end"])
    @pytest.mark.parametrize("column", ["neighbour", "write"])
    def test_bad_index_raises_before_any_write(
        self, regular64, values64, k, record, bad, column
    ):
        batch = BatchNodeModel(
            regular64, values64, alpha=0.5, k=k, replicas=4, seed=5,
            kernel="fused",
        )
        batch.run(3)
        plan = batch._plan_block(8)
        flat = batch.values.reshape(-1)
        before = flat.copy()
        # Corrupt the last round only: a per-gather check would raise
        # after rounds 0..6 had already written.
        entry = 0 if column == "neighbour" else plan.cat_idx.shape[1] - 1
        plan.cat_idx[-1, entry] = flat.size if bad == "past_end" else bad
        with pytest.raises(IndexError):
            run_block_fused(flat, plan, batch.alpha, record)
        np.testing.assert_array_equal(flat, before)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("bad", [-1, "past_end"])
    @pytest.mark.parametrize("column", ["gather", "write"])
    def test_lazy_plan_bad_index_raises_before_any_write(
        self, regular64, values64, k, record, bad, column
    ):
        """The lazy (general) path checks its write and gather indices
        before the first write too: a negative index must not wrap into
        another replica's entry."""
        batch = BatchNodeModel(
            regular64, values64, alpha=0.5, k=k, replicas=4, seed=5,
            lazy=True, kernel="fused",
        )
        batch.run(3)
        plan = batch._plan_block(8)
        assert plan.cat_idx is None
        flat = batch.values.reshape(-1)
        before = flat.copy()
        index = plan.write_idx if column == "write" else plan.gather_idx
        index[-1, 0] = flat.size if bad == "past_end" else bad
        plan.keep[-1, 0] = True  # the corrupted round does update
        with pytest.raises(IndexError):
            run_block_fused(flat, plan, batch.alpha, record)
        np.testing.assert_array_equal(flat, before)


@needs_jit
class TestJitBitEquivalence:
    """jit consumes the same pre-drawn variates: bit-identical to fused."""

    def _pair(self, cls, *args, **kwargs):
        fused = cls(*args, kernel="fused", **kwargs)
        jit = cls(*args, kernel="jit", **kwargs)
        assert jit.kernel == "jit"
        return fused, jit

    def test_node_k1_run(self, regular64, values64):
        fused, jit = self._pair(
            BatchNodeModel, regular64, values64, 0.5, 1, 8, 11
        )
        fused.run(500)
        jit.run(500)
        np.testing.assert_array_equal(fused.values, jit.values)

    def test_edge_lazy_run(self, regular64, values64):
        fused, jit = self._pair(
            BatchEdgeModel, regular64, values64, 0.5, 8, 11, True
        )
        fused.run(500)
        jit.run(500)
        np.testing.assert_array_equal(fused.values, jit.values)

    def test_hitting_times_match(self, regular64, values64):
        fused, jit = self._pair(
            BatchNodeModel, regular64, values64, 0.5, 1, 16, 13
        )
        np.testing.assert_array_equal(
            fused.run_until_phi(1e-4, 500_000),
            jit.run_until_phi(1e-4, 500_000),
        )


#: Node-model shapes (k, lazy) of the jit/fused twin runs: k <= 2 and
#: lazy k = 1 run as BlockStepper blocks, k > 2 and lazy k = 2 as fused
#: blocks.
JIT_SHAPES = [(1, False), (2, False), (3, False), (4, False), (8, False),
              (1, True), (2, True)]


def _dense_graph():
    """Degree >= 8 on 30 nodes, so every shape in JIT_SHAPES is valid."""
    import networkx as nx

    graph = nx.connected_watts_strogatz_graph(30, 12, 0.3, seed=2)
    assert min(d for _, d in graph.degree) >= 8
    return graph


@needs_jit
class TestJitExecutorBitIdentity:
    """A jit batch runs every shape bit-identically to a fused one, each
    block through BlockStepper or run_block_fused."""

    @pytest.mark.parametrize("k, lazy", JIT_SHAPES)
    def test_runs_and_hitting_times(self, k, lazy):
        """Plain blocks (run), then record blocks feeding detection,
        backdating and the rewind of crossed replicas (run_until_phi)."""
        values = np.random.default_rng(3).normal(size=30)
        fused, jit = (
            BatchNodeModel(
                _dense_graph(), values, 0.5, k=k, replicas=6,
                seed=7, lazy=lazy, kernel=kernel,
            )
            for kernel in ("fused", "jit")
        )
        assert jit.kernel == "jit"
        for batch in (fused, jit):
            batch.run(300)
        np.testing.assert_array_equal(
            fused.run_until_phi(1e-8, 500_000), jit.run_until_phi(1e-8, 500_000)
        )
        np.testing.assert_array_equal(fused.values, jit.values)


class TestLazyPlanLayout:
    """Lazy k = 1 draws over frozen rows pack C-ordered plans, so
    run_block_fused walks contiguous rows."""

    @pytest.mark.parametrize("kind", ["node", "edge"])
    def test_frozen_rows_give_c_contiguous_plan(self, kind):
        values = np.random.default_rng(3).normal(size=30)
        model = BatchNodeModel if kind == "node" else BatchEdgeModel
        batch = model(
            _dense_graph(), values, 0.5, replicas=6, seed=7,
            lazy=True, kernel="fused",
        )
        batch.freeze([1, 4])
        batch._sync_snapshot()
        plan = batch._plan_block(batch._block_size(40))
        assert plan.write_idx.shape[1] == 4
        for array in (plan.write_idx, plan.gather_idx, plan.keep):
            assert array.flags.c_contiguous


#: (model, k, lazy) shapes the jit kernel decodes and executes in one C
#: call per block (BlockStepper).
STEPPER_SHAPES = [("node", 1, False), ("node", 2, False), ("node", 1, True),
                  ("edge", 1, False), ("edge", 1, True)]


def _graph_in(form, graph):
    """``graph`` in one of the two forms the batch models take: ``"csr"``
    is the frozen CSR :class:`Adjacency`; ``"dense"`` is a networkx graph
    rebuilt from the dense adjacency matrix, which the model freezes
    itself (its edge list then comes in matrix order)."""
    import networkx as nx

    if form == "csr":
        return Adjacency.from_graph(graph)
    return nx.from_numpy_array(adjacency_matrix(graph))


def _stepper_graph(kind, form=None):
    """Graphs with n not a power of two, as networkx graphs or in ``form``
    (see _graph_in); star and lollipop have leaves of degree 1, so they
    only carry the k = 1 shapes."""
    import networkx as nx

    def given(graph):
        return graph if form is None else _graph_in(form, graph)

    if kind == "star":
        return given(nx.star_graph(20))
    if kind == "lollipop":
        return given(nx.lollipop_graph(8, 5))
    if kind == "er":
        return given(nx.gnp_random_graph(27, 0.25, seed=1))
    if kind == "regular":
        return given(random_regular_graph(30, 5, seed=1))
    # A switch between two irregular snapshots changes pi mid-run.
    return CyclicSchedule(
        [given(nx.gnp_random_graph(27, 0.25, seed=s)) for s in (1, 4)], 23
    )


def _stepper_twins(model, k, lazy, graph, replicas=7, seed=5):
    """The same batch under the fused and the jit kernel."""
    if isinstance(graph, CyclicSchedule):
        n = graph.snapshots[0].n
    elif isinstance(graph, Adjacency):
        n = graph.n
    else:
        n = graph.number_of_nodes()
    values = np.random.default_rng(seed).normal(size=n)
    cls, extra = (
        (BatchNodeModel, {"k": k}) if model == "node" else (BatchEdgeModel, {})
    )
    fused, jit = (
        cls(graph, values, 0.4, replicas=replicas, seed=seed, lazy=lazy,
            kernel=kernel, **extra)
        for kernel in ("fused", "jit")
    )
    assert fused._stepper is None and jit._stepper is not None
    return fused, jit


def _assert_twins_agree(fused, jit, block_rounds, frozen, epsilon=1e-6):
    """Plain blocks, then frozen rows, then record blocks (run_until_phi):
    values, hitting times and the frozen states agree bit for bit."""
    hits = []
    for batch in (fused, jit):
        batch.block_rounds = block_rounds
        batch.run(100)
        batch.freeze(frozen)
        batch.run(61)
        hits.append(batch.run_until_phi(epsilon, 200_000))
    np.testing.assert_array_equal(hits[0], hits[1])
    np.testing.assert_array_equal(fused.values, jit.values)
    np.testing.assert_array_equal(fused.phi, jit.phi)
    assert fused.t == jit.t


@needs_jit
class TestBlockStepper:
    """The jit kernel's one-call blocks decode exactly as fused does."""

    @pytest.mark.parametrize("form", ["dense", "csr"])
    @pytest.mark.parametrize(
        "model, k, lazy, graph",
        [
            (model, k, lazy, graph)
            for model, k, lazy in STEPPER_SHAPES
            for graph in ("star", "lollipop", "er", "regular", "schedule")
            if k == 1 or graph not in ("star", "lollipop")
        ],
    )
    def test_bit_identical_to_fused(self, model, k, lazy, graph, form):
        fused, jit = _stepper_twins(
            model, k, lazy, _stepper_graph(graph, form)
        )
        # 37 divides neither 100 nor 61, nor the schedule's switch period.
        _assert_twins_agree(fused, jit, 37, [1, 4])

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(5, 40),
        seed=st.integers(0, 2**16),
        shape=st.sampled_from(STEPPER_SHAPES),
        block_rounds=st.integers(1, 300),
        frozen=st.sets(st.integers(0, 5), max_size=6),
    )
    def test_property_bit_identical(
        self, n, seed, shape, block_rounds, frozen
    ):
        import networkx as nx

        model, k, lazy = shape
        graph = nx.connected_watts_strogatz_graph(n, 4, 0.3, seed=seed)
        assume(min(d for _, d in graph.degree) >= k)
        fused, jit = _stepper_twins(
            model, k, lazy, graph, replicas=6, seed=seed
        )
        _assert_twins_agree(fused, jit, block_rounds, sorted(frozen))

    @pytest.mark.parametrize(
        "bit_generator", [np.random.PCG64, np.random.Philox, np.random.SFC64]
    )
    @pytest.mark.parametrize("model, k, lazy", STEPPER_SHAPES)
    def test_draws_the_generators_stream(self, model, k, lazy, bit_generator):
        """The C loop takes its uniforms from the bit generator's
        next_double: values, hitting times and the next draw equal the
        fused kernel's rng.random blocks, for any bit generator."""
        graph = _stepper_graph("er")
        values = np.random.default_rng(2).normal(size=graph.number_of_nodes())
        cls, extra = (
            (BatchNodeModel, {"k": k}) if model == "node" else (BatchEdgeModel, {})
        )
        fused, jit = (
            cls(graph, values, 0.4, replicas=7, lazy=lazy, kernel=kernel,
                seed=np.random.Generator(bit_generator(9)), **extra)
            for kernel in ("fused", "jit")
        )
        _assert_twins_agree(fused, jit, 45, [2, 5])
        assert jit.rng.random() == fused.rng.random()

    @pytest.mark.parametrize("model, k, lazy", STEPPER_SHAPES)
    def test_eligible_shapes_never_plan_in_numpy(self, monkeypatch, model, k, lazy):
        import repro.engine.batch as batch_mod
        import repro.engine.selection as selection_mod

        def forbidden(*args, **kwargs):
            raise AssertionError("the block was planned in NumPy")

        for module in (batch_mod, selection_mod):
            monkeypatch.setattr(module, "draw_node_block", forbidden)
            monkeypatch.setattr(module, "draw_edge_block", forbidden)
        monkeypatch.setattr(
            batch_mod.BatchAveragingProcess, "_pack_plan", forbidden
        )
        _, jit = _stepper_twins(model, k, lazy, _stepper_graph("er"))
        jit.run(300)
        assert (jit.run_until_phi(1e-6, 200_000) > 0).all()

    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("corruption", ["offsets", "neighbour"])
    def test_corrupted_source_raises_before_any_write(
        self, regular64, values64, corruption, record
    ):
        import copy

        batch = BatchNodeModel(
            regular64, values64, alpha=0.5, k=1, replicas=4, seed=5,
            kernel="jit",
        )
        batch.block_rounds = 64
        batch.run(3)
        # Corrupt the node replica 0 selects in the block's last round,
        # so a per-round check would have written rounds before it.
        u = copy.deepcopy(batch.rng).random((64, 4))
        node = int(u[-1, 0] * 64)
        sampler = batch._sampler
        table, offsets = sampler._neighbors, sampler._offsets
        if corruption == "offsets":
            offsets = offsets.copy()
            offsets[node] = table.size
        else:
            table = table.copy()
            table[offsets[node]:offsets[node + 1]] = -1
        batch._stepper.bind(
            degrees=sampler._degrees, table=table, offsets=offsets
        )
        before = batch.values.copy()
        with pytest.raises(IndexError):
            if record:
                batch.run_until_phi(1e-12, 64)
            else:
                batch.run(64)
        np.testing.assert_array_equal(batch.values, before)
        assert batch.t == 3

    def test_corrupted_edge_list_raises_before_any_write(
        self, regular64, values64
    ):
        batch = BatchEdgeModel(
            regular64, values64, alpha=0.5, replicas=4, seed=5, kernel="jit"
        )
        heads = batch._heads.copy()
        heads[-1] = 64
        batch._stepper.bind(tails=batch._tails, heads=heads)
        before = batch.values.copy()
        with pytest.raises(IndexError):
            batch.run(256)
        np.testing.assert_array_equal(batch.values, before)

    @pytest.mark.parametrize("kernel", ["fused", "jit"])
    @pytest.mark.parametrize("how", ["deepcopy", "pickle"])
    def test_copied_batch_runs_on_its_own_state(
        self, regular64, values64, how, kernel
    ):
        """A copy steps its own values: the jit stepper's raw pointers
        and the flat view are rebuilt, never shared with the original."""
        import copy
        import pickle

        batch = BatchNodeModel(
            regular64, values64, alpha=0.5, k=2, replicas=4, seed=5,
            kernel=kernel,
        )
        batch.run(30)
        if how == "deepcopy":
            clone = copy.deepcopy(batch)
        else:
            clone = pickle.loads(pickle.dumps(batch))
        before = batch.values.copy()
        clone.run(300)
        np.testing.assert_array_equal(batch.values, before)
        assert (clone._stepper is None) == (kernel == "fused")
        assert clone._stepper is None or clone._stepper is not batch._stepper
        batch.run(300)
        np.testing.assert_array_equal(clone.values, batch.values)

    def test_recording_and_wide_subsets_keep_the_plan_path(
        self, monkeypatch, regular64, values64
    ):
        """k > 2, lazy k > 1 and selection recording send every jit block
        through run_block_fused, never through the stepper, and end
        bit-identical to fused: values, hitting times and the recorded
        selections."""
        def no_stepper_block(*args, **kwargs):
            raise AssertionError("a BlockStepper block ran")

        monkeypatch.setattr(kernels_mod.BlockStepper, "run", no_stepper_block)
        for k, lazy, record in ((3, False, False), (2, True, False),
                                (1, False, True)):
            twins, blocks = [], []
            for kernel in ("fused", "jit"):
                rounds = []

                def spy(flat, plan, alpha, mode, rounds=rounds):
                    rounds.append(plan.rounds)
                    return run_block_fused(flat, plan, alpha, mode)

                # Batches bind their executor when they are built.
                monkeypatch.setattr(kernels_mod, "run_block_fused", spy)
                batch = BatchNodeModel(
                    regular64, values64, alpha=0.5, k=k, replicas=3, seed=5,
                    lazy=lazy, kernel=kernel,
                )
                assert batch.kernel == kernel
                if record:
                    batch.record_selections()
                batch.run(300)
                twins.append((batch, batch.run_until_phi(1e-6, 500_000)))
                blocks.append(rounds)
            (fused, fused_hits), (jit, jit_hits) = twins
            assert blocks[0] and blocks[1] == blocks[0]
            assert (fused_hits > 0).all()
            np.testing.assert_array_equal(jit_hits, fused_hits)
            np.testing.assert_array_equal(jit.values, fused.values)
            if record:
                want, got = fused.recorded_selections(), jit.recorded_selections()
                np.testing.assert_array_equal(got.nodes, want.nodes)
                np.testing.assert_array_equal(got.picked, want.picked)


class TestBlockLoopLoader:
    """Building and loading the C loop fails safe and caches."""

    def test_no_compiler_means_fused_without_a_warning(self, monkeypatch, tmp_path):
        cache = tmp_path / "cache"
        loop = kernels_mod.load_blockloop(
            compiler=[str(tmp_path / "no-such-cc")], cache_dir=str(cache)
        )
        assert loop is None
        assert list(cache.iterdir()) == []
        monkeypatch.setattr(kernels_mod, "_LOOP", loop)
        monkeypatch.setattr(kernels_mod, "_FALLBACK_WARNED", False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_kernel("auto") == "fused"
            batch = BatchNodeModel(
                random_regular_graph(16, 4, seed=0), np.arange(16.0), 0.5,
                replicas=2,
            )
        assert batch.kernel == "fused"

    def test_failed_build_publishes_nothing(self, tmp_path):
        failing = [sys.executable, "-c", "import sys; sys.exit(1)"]
        cache = tmp_path / "cache"
        assert kernels_mod.load_blockloop(failing, str(cache)) is None
        assert list(cache.iterdir()) == []

    def test_shared_cache_directory_is_refused(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        cache.chmod(0o777)
        assert kernels_mod.load_blockloop(cache_dir=str(cache)) is None

    @needs_jit
    def test_second_load_reuses_the_cached_library(self, monkeypatch, tmp_path):
        cache = tmp_path / "cache"
        assert kernels_mod.load_blockloop(cache_dir=str(cache)) is not None
        assert stat.S_IMODE(cache.stat().st_mode) == 0o700
        (library,) = cache.iterdir()
        assert library.name.startswith("blockloop-")
        built = library.stat().st_mtime_ns

        def no_build(*args, **kwargs):
            raise AssertionError("the cached library was rebuilt")

        monkeypatch.setattr(subprocess, "run", no_build)
        assert kernels_mod.load_blockloop(cache_dir=str(cache)) is not None
        assert list(cache.iterdir()) == [library]
        assert library.stat().st_mtime_ns == built

    @needs_jit
    def test_a_new_build_prunes_superseded_libraries(self, tmp_path):
        """Publishing a library deletes the other blockloop-*.so files of
        the cache directory and nothing else."""
        import shlex
        import sysconfig

        cache = tmp_path / "cache"
        cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
        assert kernels_mod.load_blockloop(cc, str(cache)) is not None
        (first,) = cache.iterdir()
        (cache / "notes.txt").write_text("kept")
        (cache / ".blockloop-building.so").write_bytes(b"")  # a build in flight
        assert kernels_mod.load_blockloop([*cc, "-DVARIANT"], str(cache)) is not None
        names = {path.name for path in cache.iterdir()}
        (second,) = names - {".blockloop-building.so", "notes.txt"}
        assert len(names) == 3 and second != first.name
        assert second.startswith("blockloop-") and second.endswith(".so")

    @needs_jit
    def test_a_library_pruned_before_loading_is_rebuilt(
        self, monkeypatch, tmp_path
    ):
        """The library disappears between the existence check and the
        load (another build pruned it): a cache miss, so it is built."""
        import ctypes

        cache = tmp_path / "cache"
        assert kernels_mod.load_blockloop(cache_dir=str(cache)) is not None
        (library,) = cache.iterdir()
        load = ctypes.CDLL
        calls = []

        def pruned_first(path, *args, **kwargs):
            calls.append(path)
            if len(calls) == 1:
                os.unlink(path)
                raise OSError(f"{path}: cannot open shared object file")
            return load(path, *args, **kwargs)

        monkeypatch.setattr(ctypes, "CDLL", pruned_first)
        assert kernels_mod.load_blockloop(cache_dir=str(cache)) is not None
        assert calls == [str(library)] * 2
        assert list(cache.iterdir()) == [library]

    def test_a_library_that_fails_to_load_is_not_rebuilt(self, tmp_path):
        cache = tmp_path / "cache"
        script = tmp_path / "cc.py"
        # A "compiler" that writes a file no loader accepts.
        script.write_text(
            "import sys\n"
            "open(sys.argv[sys.argv.index('-o') + 1], 'w').write('junk')\n"
            f"open({str(tmp_path / 'builds')!r}, 'a').write('x')\n"
        )
        assert kernels_mod.load_blockloop(
            [sys.executable, str(script)], str(cache)
        ) is None
        assert (tmp_path / "builds").read_text() == "x"  # built once

    def test_import_builds_nothing(self, tmp_path):
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path))
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        code = (
            "import repro.api, repro.engine.kernels as k; "
            "assert k._LOOP is k._UNLOADED"
        )
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        assert list(tmp_path.iterdir()) == []


def _consensus_check(flat, rows, tol, hi, lo, flags):
    """Call the compiled witness check on NumPy arrays."""
    replicas, n = flat.shape
    return kernels_mod.blockloop().consensus_check(
        flat.ctypes.data, n, replicas,
        None if rows is None else rows.ctypes.data,
        replicas if rows is None else rows.size, tol, hi.ctypes.data,
        lo.ctypes.data, flags.ctypes.data,
    )


@needs_jit
class TestConsensusCheck:
    """consensus_check, the witness check of the C consensus loop, decides
    what run_to_consensus_batch's NumPy check decides."""

    def test_scans_rows_like_argmax_and_argmin(self):
        """Ties, signed zeros, infinities and NaNs: the first occurrence
        wins and the first NaN wins, as in NumPy."""
        rng = np.random.default_rng(11)
        palette = np.array([-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf, np.nan])
        flat = rng.choice(palette, size=(400, 9), p=[.1, .2, .2, .2, .2, .05, .05])
        flat[:50] = 0.5  # converged rows
        flat[50:60] = np.nan
        hi = np.zeros(400, np.int64)
        lo = np.zeros(400, np.int64)
        flags = np.full(400, 7, np.uint8)
        # Equal witnesses: every gap is 0 or NaN, so every row is scanned.
        assert _consensus_check(flat, None, 1e-9, hi, lo, flags) == 400
        np.testing.assert_array_equal(hi, flat.argmax(axis=1))
        np.testing.assert_array_equal(lo, flat.argmin(axis=1))
        rows = np.arange(400)
        spread = flat[rows, hi] - flat[rows, lo]
        np.testing.assert_array_equal(flags.view(bool), spread <= 1e-9)
        assert flags[:50].all() and not flags[50:60].any()

    def test_equal_witnesses_with_a_wide_spread_do_not_freeze(self):
        """The scripted states of the NumPy check's test: a zero witness
        gap is scanned, not frozen; a wide gap is skipped."""
        state = np.full((3, 36), 0.5)
        state[1, :3] = (0.0, 1.0, 0.5)
        rows = np.array([1], np.int64)
        hi = np.zeros(3, np.int64)
        lo = np.zeros(3, np.int64)
        flags = np.zeros(1, np.uint8)
        assert _consensus_check(state, rows, 1e-6, hi, lo, flags) == 1
        assert (hi[1], lo[1], flags[0]) == (1, 0, 0)
        state[1, :3] = (0.5, 0.5, 0.9)
        assert _consensus_check(state, rows, 1e-6, hi, lo, flags) == 1
        assert (hi[1], lo[1], flags[0]) == (2, 0, 0)
        state[1, :3] = (0.5, 0.5, 0.5)
        state[1, 2] = 0.5 + 1e-3
        assert _consensus_check(state, rows, 1e-6, hi, lo, flags) == 0
        assert (hi[1], lo[1], flags[0]) == (2, 0, 0)
        state[1, 2] = 0.5
        assert _consensus_check(state, rows, 1e-6, hi, lo, flags) == 1
        assert flags[0] == 1
        np.testing.assert_array_equal(hi[[0, 2]], 0)

    def test_a_gap_or_spread_of_exactly_tol(self):
        """A witness gap equal to tol is scanned (``not >``) and a spread
        equal to tol converges (``<=``), as in the NumPy check."""
        state = np.array([[0.25, 0.75, 0.5], [0.25, 0.75, 1.0]])
        hi = np.array([1, 1], np.int64)
        lo = np.array([0, 0], np.int64)
        flags = np.zeros(2, np.uint8)
        assert _consensus_check(state, None, 0.5, hi, lo, flags) == 2
        assert flags.tolist() == [1, 0]
        assert (hi.tolist(), lo.tolist()) == ([1, 2], [0, 0])

    def test_bad_arguments_return_minus_one_and_write_nothing(self):
        flat = np.zeros((4, 5))
        flat[:, 0] = 1.0
        flags = np.full(4, 7, np.uint8)
        for rows, hi in (
            (np.array([0, 2, 1], np.int64), np.zeros(4, np.int64)),  # order
            (np.array([0, 4], np.int64), np.zeros(4, np.int64)),  # range
            (np.array([1, 1], np.int64), np.zeros(4, np.int64)),  # repeat
            (None, np.array([0, 0, 5, 0], np.int64)),  # witness
            (np.array([2], np.int64), np.array([0, 0, -1, 0], np.int64)),
        ):
            lo = np.zeros(4, np.int64)
            before = hi.copy()
            assert _consensus_check(flat, rows, 1e-6, hi, lo, flags) == -1
            np.testing.assert_array_equal(hi, before)
            np.testing.assert_array_equal(lo, 0)
            np.testing.assert_array_equal(flags, 7)


class TestChunkedDetectionBackdating:
    """Hitting times are exact and invariant to the block size."""

    def _hits(self, make, block_rounds, epsilon, max_steps=500_000):
        batch = make()
        batch.block_rounds = block_rounds
        return batch.run_until_phi(epsilon, max_steps)

    @pytest.mark.parametrize("block_rounds", [3, 17, 64, 256, 1000])
    def test_node_k1_matches_perround_reference(
        self, regular64, values64, block_rounds
    ):
        def make():
            return BatchNodeModel(
                regular64, values64, alpha=0.5, k=1, replicas=16, seed=9,
                kernel="fused",
            )

        ref_batch = make()
        ref_batch.block_rounds = 1
        reference = ref_batch.run_until_phi(1e-4, 500_000)
        assert (reference > 0).all()
        batch = make()
        batch.block_rounds = block_rounds
        np.testing.assert_array_equal(
            batch.run_until_phi(1e-4, 500_000), reference
        )
        # Crossed replicas are rewound to their exact crossing-round
        # state before freezing, so the frozen values (and therefore
        # phi) are also invariant to the block size.
        np.testing.assert_array_equal(batch.values, ref_batch.values)
        np.testing.assert_array_equal(batch.phi, ref_batch.phi)
        # A second call on the fully-frozen batch reports 0 everywhere,
        # exactly as the per-round reference does.
        np.testing.assert_array_equal(
            batch.run_until_phi(1e-4, 100),
            ref_batch.run_until_phi(1e-4, 100),
        )

    @pytest.mark.parametrize("block_rounds", [8, 200])
    def test_edge_and_lazy(self, regular64, values64, block_rounds):
        for lazy in (False, True):
            def make():
                return BatchEdgeModel(
                    regular64, values64, alpha=0.5, replicas=8, seed=11,
                    kernel="fused", lazy=lazy,
                )

            ref = make()
            ref.block_rounds = 1
            reference = ref.run_until_phi(1e-4, 500_000)
            chunked = make()
            chunked.block_rounds = block_rounds
            np.testing.assert_array_equal(
                chunked.run_until_phi(1e-4, 500_000), reference
            )
            # Lazy rewind must skip the coin-tails rounds it never ran.
            np.testing.assert_array_equal(chunked.values, ref.values)

    def test_node_k2_irregular(self, irregular30, values30):
        def make():
            return BatchNodeModel(
                irregular30, values30, alpha=0.4, k=2, replicas=8, seed=13,
                kernel="fused",
            )

        reference = self._hits(make, 1, 1e-5)
        for block_rounds in (13, 256):
            np.testing.assert_array_equal(
                self._hits(make, block_rounds, 1e-5), reference
            )

    def test_node_k3_full_keys(self, regular64, values64):
        """The (R, B, d_max + 1) single-draw contract stays invariant."""

        def make():
            batch = BatchNodeModel(
                regular64, values64, alpha=0.5, k=3, replicas=6, seed=21,
                kernel="fused",
            )
            assert batch._sampler.uses_subset_keys
            return batch

        reference = self._hits(make, 1, 1e-5)
        for block_rounds in (7, 128):
            np.testing.assert_array_equal(
                self._hits(make, block_rounds, 1e-5), reference
            )

    def test_across_resync_boundary(self, regular64, values64):
        """Trajectories longer than _RESYNC_EVERY stay block-invariant."""

        def make():
            return BatchNodeModel(
                regular64, values64, alpha=0.5, k=1, replicas=4, seed=15,
                kernel="fused",
            )

        deep = self._hits(make, 512, 1e-10, max_steps=2_000_000)
        assert deep.max() > 4096
        np.testing.assert_array_equal(
            deep, self._hits(make, 1, 1e-10, max_steps=2_000_000)
        )

    def test_already_converged_and_budget(self, regular64, values64):
        batch = BatchNodeModel(
            regular64, np.zeros(64), alpha=0.5, k=1, replicas=4, seed=9,
            kernel="fused",
        )
        np.testing.assert_array_equal(batch.run_until_phi(1e-6, 100), 0)
        slow = BatchNodeModel(
            regular64, values64, alpha=0.5, k=1, replicas=4, seed=9,
            kernel="fused",
        )
        times = slow.run_until_phi(1e-12, 10)
        np.testing.assert_array_equal(times, -1)
        assert slow.t == 10  # budget respected exactly

    def test_run_after_total_freeze_advances_time(self, regular64, values64):
        batch = BatchNodeModel(
            regular64, values64, alpha=0.5, k=1, replicas=3, seed=9,
            kernel="fused",
        )
        batch.freeze(np.arange(3))
        batch.run(7)
        assert batch.t == 7


#: (model, k, lazy) shapes of the detection-fold comparisons.
FOLD_SHAPES = [("node", 1, False), ("node", 2, False), ("node", 3, False),
               ("edge", 1, False), ("node", 1, True), ("edge", 1, True)]


def _fold_graph(kind):
    """Regular, irregular (array pi weights) and a pi-changing schedule;
    every node has degree >= 4, so k = 3 fits."""
    import networkx as nx

    if kind == "regular":
        return random_regular_graph(30, 5, seed=1)
    if kind == "irregular":
        return nx.connected_watts_strogatz_graph(30, 6, 0.3, seed=2)
    return CyclicSchedule(
        [nx.connected_watts_strogatz_graph(30, 6, 0.3, seed=s) for s in (2, 5)],
        23,
    )


def _fold_batch(model, k, lazy, graph, kernel, values=None, replicas=5):
    n = 30
    if values is None:
        values = np.random.default_rng(8).normal(size=n)
    if model == "node":
        return BatchNodeModel(graph, values, 0.4, k=k, replicas=replicas,
                              seed=6, lazy=lazy, kernel=kernel)
    return BatchEdgeModel(graph, values, 0.4, replicas=replicas, seed=6,
                          lazy=lazy, kernel=kernel)


@pytest.fixture
def numpy_fold_calls(monkeypatch):
    """Counts the NumPy fold's calls (zero while the C pass runs)."""
    calls = []
    numpy_fold = kernels_mod._fold_numpy

    def counted(*args):
        calls.append(1)
        return numpy_fold(*args)

    monkeypatch.setattr(kernels_mod, "_fold_numpy", counted)
    return calls


@needs_jit
class TestDetectFold:
    """run_until_phi's compiled detection pass (detect_block) gives the
    NumPy fold's hitting times, frozen states and phi bit for bit."""

    def _twin_runs(self, monkeypatch, make, calls, block_rounds,
                   epsilon=1e-6, max_steps=20_000, prelude=True):
        """Run ``make()`` on the C fold, then on the NumPy fold; the
        prelude is 37 plain rounds and a frozen replica 1."""
        loop = kernels_mod.blockloop()
        results = []
        for numpy_fold in (False, True):
            batch = make()
            if numpy_fold:
                # The jit stepper keeps its own entry point; only
                # detection (and jit's plan executor) lose the library.
                monkeypatch.setattr(kernels_mod, "_LOOP", None)
            batch.block_rounds = block_rounds
            if prelude:
                batch.run(37)
                batch.freeze([1])
            hits = batch.run_until_phi(epsilon, max_steps)
            results.append((hits, batch.values.copy(), batch.phi, batch.t))
            assert bool(calls) == numpy_fold
        monkeypatch.setattr(kernels_mod, "_LOOP", loop)
        calls.clear()
        (hits_c, values_c, phi_c, t_c), (hits_np, values_np, phi_np, t_np) = results
        np.testing.assert_array_equal(hits_c, hits_np)
        np.testing.assert_array_equal(values_c, values_np)
        np.testing.assert_array_equal(phi_c, phi_np)
        assert t_c == t_np
        return hits_c

    @pytest.mark.parametrize("block_rounds", [1, 13, 256])
    @pytest.mark.parametrize("graph", ["regular", "irregular", "schedule"])
    @pytest.mark.parametrize("model, k, lazy", FOLD_SHAPES)
    @pytest.mark.parametrize("kernel", ["fused", "jit"])
    def test_c_fold_equals_numpy_fold(
        self, monkeypatch, numpy_fold_calls, kernel, model, k, lazy, graph,
        block_rounds,
    ):
        hits = self._twin_runs(
            monkeypatch,
            lambda: _fold_batch(model, k, lazy, _fold_graph(graph), kernel),
            numpy_fold_calls, block_rounds,
        )
        assert (hits[[0, 2, 3, 4]] > 0).all() and hits[1] == -1

    @pytest.mark.parametrize("kernel", ["fused", "jit"])
    def test_nan_column_never_crosses(self, monkeypatch, numpy_fold_calls, kernel):
        values = np.tile(np.random.default_rng(8).normal(size=30), (5, 1))
        values[2, 7] = np.nan
        hits = self._twin_runs(
            monkeypatch,
            lambda: _fold_batch("node", 1, False, _fold_graph("irregular"),
                                kernel, values=values),
            numpy_fold_calls, 64, max_steps=3000,
        )
        assert hits[2] == -1 and (hits[[0, 3, 4]] > 0).all()

    @pytest.mark.parametrize("kernel", ["fused", "jit"])
    def test_crossing_on_the_resync_boundary(
        self, monkeypatch, numpy_fold_calls, regular64, values64, kernel
    ):
        """A replica whose first crossing is the last round before the
        exact resync: the fold scans one round short and the crossing is
        found on the resynchronised moments, at every block size."""
        from repro.engine.batch import _RESYNC_EVERY

        def make(kernel="fused"):
            return BatchNodeModel(regular64, values64, 0.5, replicas=8,
                                  seed=15, kernel=kernel)

        # phi after each of the first _RESYNC_EVERY rounds, one round per
        # call: the sequence per-round checking sees (the last row is
        # already resynchronised).
        probe = make()
        probe.block_rounds = 1
        phis = []
        for _ in range(_RESYNC_EVERY):
            probe.run_until_phi(1e-300, 1)
            phis.append(probe.phi)
        phis = np.array(phis)
        (candidates,) = np.nonzero(phis[-1] < phis[:-1].min(axis=0))
        assert candidates.size
        column = candidates[0]
        epsilon = phis[-1, column]
        for block_rounds in (1, 13, 256):
            hits = self._twin_runs(
                monkeypatch, lambda: make(kernel), numpy_fold_calls,
                block_rounds, epsilon=epsilon, max_steps=2 * _RESYNC_EVERY,
                prelude=False,
            )
            assert hits[column] == _RESYNC_EVERY

    @pytest.mark.parametrize("scalar", [True, False])
    @pytest.mark.parametrize("short", [False, True])
    def test_fold_block_matches_the_numpy_fold(self, scalar, short):
        rng = np.random.default_rng(7)
        rounds, active = 60, 9
        old = rng.normal(size=(rounds, active))
        new = rng.normal(size=(rounds, active)) * 0.9
        old[0, 3] = np.nan  # column 3 is NaN throughout
        weights = 0.05 if scalar else rng.uniform(0.01, 0.1, (rounds, active))
        s1 = rng.normal(size=active) * 0.1
        s2 = rng.uniform(1.0, 2.0, size=active)
        scan = rounds - 1 if short else rounds
        # An epsilon that several columns cross at different rounds.
        probe = kernels_mod._fold_numpy(
            old, new, weights, s1.copy(), s2.copy(), -np.inf, rounds
        )
        assert (probe[0] == -1).all()
        moments = [s1.copy(), s2.copy()]
        epsilon = float(np.nanmedian(probe[3]))
        expected = kernels_mod._fold_numpy(
            old, new, weights, *moments, epsilon, scan
        )
        c_moments = [s1.copy(), s2.copy()]
        got = kernels_mod.fold_block(old, new, weights, *c_moments, epsilon, scan)
        np.testing.assert_array_equal(c_moments, moments)
        first = expected[0]
        np.testing.assert_array_equal(got[0], first)
        crossed = first >= 0
        assert 0 < crossed.sum() < active and first[3] == -1
        assert len(set(first[crossed])) > 1
        for got_part, expected_part in zip(got[1:3], expected[1:3]):
            np.testing.assert_array_equal(got_part[crossed], expected_part[crossed])
        np.testing.assert_array_equal(got[3], expected[3])
        assert np.isnan(got[3][3])
        if short:
            assert (first < rounds - 1).all()

    def test_scan_stops_short_of_the_last_round(self):
        """Crossing only on the last round: found with scan = R, not with
        scan = R - 1 (the resync boundary)."""
        old = np.zeros((4, 1))
        new = np.zeros((4, 1))
        old[-1, 0] = 2.0
        for scan, expected in ((4, 3), (3, -1)):
            for fold in (kernels_mod.fold_block, kernels_mod._fold_numpy):
                s1, s2 = np.zeros(1), np.full(1, 3.0)
                first = fold(old, new, 0.5, s1, s2, 0.6, scan)[0]
                assert first[0] == expected
                assert (s1[0], s2[0]) == (-1.0, 1.0)

    def test_bad_arguments_return_minus_one_and_write_nothing(self):
        loop = kernels_mod.blockloop()
        rounds, active = 5, 3
        old, new = np.ones((rounds, active)), np.full((rounds, active), 2.0)
        weights = np.full((rounds, active), 0.1)
        s1, s2 = np.zeros(active), np.ones(active)
        first = np.full(active, 7, dtype=np.int64)
        out = np.full((3, active), 9.0)

        def call(**change):
            args = dict(
                old=old.ctypes.data, new=new.ctypes.data, rounds=rounds,
                active=active, weights=weights.ctypes.data,
                count=weights.size, weight=0.0, scan=rounds, epsilon=0.5,
                s1=s1.ctypes.data, s2=s2.ctypes.data, first=first.ctypes.data,
                cross1=out[0].ctypes.data, cross2=out[1].ctypes.data,
                phi=out[2].ctypes.data,
            )
            args.update(change)
            return loop.detect_block(*args.values())

        bad = [{name: None} for name in (
            "old", "new", "s1", "s2", "first", "cross1", "cross2", "phi",
        )]
        bad += [{"count": weights.size - 1}, {"weights": None},
                {"count": 0}, {"scan": rounds + 1}, {"scan": -1},
                {"rounds": 0, "scan": 0}, {"active": -1}]
        for change in bad:
            assert call(**change) == -1, change
            np.testing.assert_array_equal(s1, 0.0)
            np.testing.assert_array_equal(s2, 1.0)
            np.testing.assert_array_equal(first, 7)
            np.testing.assert_array_equal(out, 9.0)
        assert call(weights=None, count=0, weight=0.1) == 0
        assert call() == 0

    def test_fused_batch_without_a_compiler_is_silent(
        self, monkeypatch, tmp_path, regular64, values64
    ):
        def run():
            batch = BatchNodeModel(regular64, values64, 0.5, replicas=4,
                                   seed=3, kernel="fused")
            return batch.run_until_phi(1e-6, 50_000), batch.values

        hits, values = run()
        loop = kernels_mod.load_blockloop(
            compiler=[str(tmp_path / "no-such-cc")],
            cache_dir=str(tmp_path / "cache"),
        )
        monkeypatch.setattr(kernels_mod, "_LOOP", loop)
        monkeypatch.setattr(kernels_mod, "_FALLBACK_WARNED", False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fallback_hits, fallback_values = run()
        np.testing.assert_array_equal(fallback_hits, hits)
        np.testing.assert_array_equal(fallback_values, values)


class TestStatisticalParity:
    """Fused-kernel distributions match the loop oracle's moments."""

    def test_f_moments(self, regular64, values64):
        small = random_regular_graph(36, 4, seed=0)
        initial = center_simple(rademacher_values(36, seed=1))
        spec = EngineSpec(
            "node", Adjacency.from_graph(small), initial, 0.5, 1,
            kernel="fused",
        )
        loop = sample_f_values(
            spec, 300, seed=5, discrepancy_tol=1e-6, engine="loop"
        )
        fused = sample_f_values(
            spec, 300, seed=5, discrepancy_tol=1e-6, engine="batch"
        )
        stderr = np.hypot(loop.std() / np.sqrt(300), fused.std() / np.sqrt(300))
        assert abs(loop.mean() - fused.mean()) < 5 * stderr
        ratio = fused.var(ddof=1) / loop.var(ddof=1)
        assert 0.6 < ratio < 1.7

    def test_t_eps_distribution(self, regular64, values64):
        small = random_regular_graph(36, 4, seed=0)
        initial = center_simple(rademacher_values(36, seed=1))
        spec = EngineSpec(
            "node", Adjacency.from_graph(small), initial, 0.5, 1,
            kernel="fused",
        )
        loop = sample_t_eps(spec, 1e-6, 60, seed=6, engine="loop")
        fused = sample_t_eps(spec, 1e-6, 60, seed=6, engine="batch")
        assert np.all(fused > 0)
        assert 0.8 < fused.mean() / loop.mean() < 1.25

    def test_invalid_kernel_rejected(self, regular64, values64):
        with pytest.raises(ParameterError):
            EngineSpec(
                "node", Adjacency.from_graph(regular64), values64, 0.5, 1,
                kernel="warp",
            )


class TestEngineSpecKernel:
    def test_build_threads_kernel(self, regular64, values64):
        spec = EngineSpec(
            "node", Adjacency.from_graph(regular64), values64, 0.5, 1,
            kernel="numpy",
        )
        assert spec.build(4, seed=0).kernel == "numpy"
        assert EngineSpec(
            "node", Adjacency.from_graph(regular64), values64, 0.5, 1
        ).build(4, seed=0).kernel in ("fused", "jit")

    def test_invalid_kernel_rejected(self, regular64, values64):
        with pytest.raises(ParameterError):
            EngineSpec(
                "node", Adjacency.from_graph(regular64), values64, 0.5, 1,
                kernel="warp",
            )

    def test_equality_and_hash_include_kernel(self, regular64, values64):
        adjacency = Adjacency.from_graph(regular64)
        a = EngineSpec("node", adjacency, values64, 0.5, 1, kernel="fused")
        b = EngineSpec("node", adjacency, values64, 0.5, 1, kernel="fused")
        c = EngineSpec("node", adjacency, values64, 0.5, 1, kernel="numpy")
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_alpha_type_does_not_split_equal_specs(self):
        """An int, a float and a NumPy scalar alpha give one spec: equal,
        with one hash and one cache token."""
        import networkx as nx

        adjacency = Adjacency.from_graph(nx.cycle_graph(6))
        values = np.arange(6.0)
        for alphas in ((0, 0.0, np.float64(0.0)),
                       (0.5, np.float64(0.5), np.float32(0.5))):
            specs = [EngineSpec("node", adjacency, values, a) for a in alphas]
            assert all(spec == specs[0] for spec in specs)
            assert len(set(specs)) == 1
            assert {spec.cache_token() for spec in specs} == {
                specs[0].cache_token()
            }
            assert all(type(spec.alpha) is float for spec in specs)

    def test_cache_token_splits_stream_classes(self, regular64, values64):
        """fused/jit/auto share the block stream class; numpy has its
        own.  The literal tokens pin the on-disk cache keys: a change
        here orphans every stored result."""
        from repro.engine import CyclicSchedule, DualSpec

        adjacency = Adjacency.from_graph(regular64)
        schedule = CyclicSchedule(
            [regular64, random_regular_graph(64, 4, seed=1)], 16
        )
        base = (
            "node|g=fb06120171a324e0|x0=77bf3427dbdef1b5|alpha=0.5|k=1|lazy=0"
        )
        block = base + "|stream=block|br=256"
        legacy = base + "|stream=legacy"
        sched = "|sched=c1fc40f49215508e"
        for kernel, expected in (
            ("auto", block), ("fused", block), ("jit", block),
            ("numpy", legacy),
        ):
            static = EngineSpec(
                "node", adjacency, values64, 0.5, 1, kernel=kernel
            )
            dynamic = EngineSpec.for_schedule(
                "node", schedule, values64, 0.5, k=1, kernel=kernel
            )
            assert static.cache_token() == expected
            assert dynamic.cache_token() == expected + sched
        dual = "|g=fb06120171a324e0|c={}|alpha=0.5|k=1"
        for kind, cost, digest in (
            ("diffusion", values64, "77bf3427dbdef1b5"),
            ("walks", values64, "77bf3427dbdef1b5"),
            ("coalescing", None, "none"),
        ):
            spec = DualSpec(kind=kind, adjacency=adjacency, alpha=0.5, cost=cost)
            assert spec.cache_token() == f"dual-{kind}" + dual.format(digest)

    def test_cache_round_trip_per_kernel(self, tmp_path, regular64, values64):
        spec = EngineSpec(
            "node", Adjacency.from_graph(regular64), values64, 0.5, 1,
            kernel="fused",
        )
        cache = ResultCache(tmp_path)
        first = sample_f_batch(
            spec, 40, seed=3, discrepancy_tol=1e-6, cache=cache
        )
        again = sample_f_batch(
            spec, 40, seed=3, discrepancy_tol=1e-6, cache=cache
        )
        np.testing.assert_array_equal(first, again)

    def test_sharded_runs_identical(self, regular64, values64):
        spec = EngineSpec(
            "node", Adjacency.from_graph(regular64), values64, 0.5, 1,
            kernel="fused",
        )
        serial = sample_f_batch(
            spec, 96, seed=7, discrepancy_tol=1e-6, shard_size=32, processes=1
        )
        parallel = sample_f_batch(
            spec, 96, seed=7, discrepancy_tol=1e-6, shard_size=32, processes=2
        )
        np.testing.assert_array_equal(serial, parallel)


class TestHighDegreeSubsets:
    """Rejection-gated k-subsets: d_max > 64 skips the full-key matrix."""

    def test_gate_engages(self):
        graph = complete_graph(70)
        batch = BatchNodeModel(
            graph, np.zeros(70), alpha=0.5, k=2, replicas=2, seed=0
        )
        assert batch._sampler._rejection_subsets
        assert not batch._sampler.uses_subset_keys

    def test_perround_rejection_draws_distinct_neighbours(self):
        """kernel='numpy' rejection-samples per round, in
        BatchNodeModel._select_batch via SamplingBackend.pick_subsets."""
        graph = complete_graph(70)
        values = center_simple(np.random.default_rng(5).normal(size=70))
        batch = BatchNodeModel(
            graph, values, alpha=0.5, k=3, replicas=4, seed=19,
            kernel="numpy",
        )
        assert batch._sampler._rejection_subsets
        nodes = np.random.default_rng(0).integers(0, 70, size=(50, 4))
        picked = batch._sampler.pick_subsets(
            nodes, None, np.random.default_rng(1)
        )
        assert picked.shape == (50, 4, 3)
        ordered = np.sort(picked, axis=-1)
        assert (ordered[..., 1:] != ordered[..., :-1]).all()
        assert (picked != nodes[..., None]).all()
        assert ((picked >= 0) & (picked < 70)).all()
        batch.run(200)
        assert (batch.values >= values.min()).all()
        assert (batch.values <= values.max()).all()

    def test_statistics_match_loop(self):
        graph = complete_graph(70)
        values = center_simple(rademacher_values(70, seed=2))
        spec = EngineSpec(
            "node", Adjacency.from_graph(graph), values, 0.5, 2,
            kernel="fused",
        )
        loop = sample_f_values(
            spec, 120, seed=8, discrepancy_tol=1e-6, engine="loop"
        )
        fused = sample_f_values(spec, 120, seed=8, discrepancy_tol=1e-6)
        ratio = fused.var(ddof=1) / loop.var(ddof=1)
        assert 0.4 < ratio < 2.5


class TestRunSpecKernel:
    def test_round_trip_and_label(self):
        from repro.api import RunSpec

        spec = RunSpec("EXP-T222", kernel="fused")
        assert RunSpec.from_json(spec.to_json()) == spec
        assert "kernel=fused" in spec.label()

    def test_resolution_folds_kernel(self):
        from repro.api import RunSpec, resolve_spec

        spec = RunSpec("EXP-T222", kernel="numpy")
        assert resolve_spec(spec)["kernel"] == "numpy"
        # Experiments without the parameter ignore the field.
        assert "kernel" not in resolve_spec(RunSpec("EXP-VT", kernel="numpy"))

    def test_noop_kernel_preserves_key(self):
        from repro.api import RunSpec

        assert RunSpec("EXP-T222").key() == RunSpec(
            "EXP-T222", kernel="auto"
        ).key()
        assert RunSpec("EXP-T222").key() != RunSpec(
            "EXP-T222", kernel="numpy"
        ).key()

    def test_provenance_kernel_and_reason(self):
        """Provenance names the kernel that ran and why; loop-engine
        runs ran none and record none."""
        from repro.api import Provenance, RunSpec, execute

        small = {"replicas": 4, "n": 16}
        auto = execute(RunSpec("EXP-T222", overrides=small)).provenance
        assert auto.kernel == ("jit" if HAS_JIT else "fused")
        assert auto.kernel_reason == "heuristic"
        named = execute(
            RunSpec("EXP-T222", kernel="fused", overrides=small)
        ).provenance
        assert (named.kernel, named.kernel_reason) == ("fused", "explicit")
        clone = Provenance.from_payload(named.to_payload())
        assert (clone.kernel, clone.kernel_reason) == ("fused", "explicit")
        loop = execute(RunSpec(
            "EXP-T221", engine="loop", overrides={"replicas": 4}
        )).provenance
        assert loop.engine == "loop"
        assert loop.kernel is None and loop.kernel_reason is None


class TestRunSpecThreads:
    """RunSpec no longer has a threads field, but records written while
    it did (``"threads": null`` in every one) must still load."""

    #: A job record as stored before the knob was removed.
    JOB = """{
      "attempts": 0, "claimed_at": null, "coalesced_into": null,
      "error": null, "finished_at": null, "id": "j0123456789ab",
      "key": "EXP-F4.fast.s3", "max_retries": 3, "not_before": 0.0,
      "schema": 1,
      "spec": {
        "engine": null, "experiment_id": "EXP-F4", "graph_schedule": null,
        "kernel": null, "markdown": false, "overrides": {},
        "preset": "fast", "seed": 3, "threads": null, "timeout_s": null,
        "trace": false
      },
      "state": "queued", "submitted_at": 1700000000.0,
      "worker_host": null, "worker_pid": null
    }"""

    def _spec_json(self, threads):
        payload = json.loads(self.JOB)["spec"]
        payload["threads"] = threads
        return json.dumps(payload)

    def test_round_trip_label_and_key(self):
        from repro.api import RunSpec
        from repro.jobs import Job

        spec = RunSpec.from_json(self._spec_json(None))
        assert spec == RunSpec("EXP-F4", seed=3)
        assert "threads" not in spec.to_payload()
        assert spec.label() == "EXP-F4[fast, seed=3]"
        assert RunSpec.from_json(spec.to_json()) == spec
        job = Job.from_payload(json.loads(self.JOB))
        assert job.spec == spec and job.key == spec.key() == "EXP-F4.fast.s3"

    def test_validation(self):
        from repro.api import RunSpec
        from repro.exceptions import JobError, SpecError
        from repro.jobs import Job

        with pytest.raises(SpecError, match="removed"):
            RunSpec.from_json(self._spec_json(2))
        payload = json.loads(self.JOB)
        payload["spec"]["threads"] = 2
        with pytest.raises(JobError, match="removed") as caught:
            Job.from_payload(payload)
        assert isinstance(caught.value.__cause__, SpecError)

    def test_fsck_quarantines_set_threads(self, tmp_path):
        # A job queued with a set value no longer parses: fsck reports
        # it and --repair moves it to corrupt/ (it must be resubmitted);
        # a record with "threads": null stays listed and untouched.
        from repro.jobs import JobQueue, fsck
        from repro.jobs.queue import CORRUPT_DIR

        queue = JobQueue(tmp_path)
        queue.ensure_layout()
        payload = json.loads(self.JOB)
        (tmp_path / "queued" / "j0123456789ab.json").write_text(self.JOB)
        payload["id"] = "jthreads0002"
        payload["spec"]["threads"] = 2
        (tmp_path / "queued" / "jthreads0002.json").write_text(
            json.dumps(payload)
        )
        assert [job.id for job in queue.jobs()] == ["j0123456789ab"]
        report = fsck(tmp_path, grace_s=0.0)
        assert report["clean"] is False
        assert any("jthreads0002" in line for line in report["findings"])
        repaired = fsck(tmp_path, repair=True, grace_s=0.0)
        assert repaired["clean"] is True
        assert (tmp_path / CORRUPT_DIR / "jthreads0002.json").exists()
        assert (tmp_path / "queued" / "j0123456789ab.json").exists()

    def test_provenance_with_threads_loads(self):
        from repro.api import Provenance

        provenance = Provenance.from_payload({
            "parameters": {"n": 16, "kernel": "auto", "threads": 2},
            "engine": "batch", "version": "1.0.0", "graph_hashes": [],
            "wall_time_s": 0.5, "timestamp": 1700000000.0,
            "kernel": "fused", "kernel_reason": "heuristic", "threads": 2,
        })
        assert (provenance.kernel, provenance.kernel_reason) == (
            "fused", "heuristic"
        )
