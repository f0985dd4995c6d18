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
from repro.engine.kernels import run_block_fused, run_block_jit
from repro.exceptions import ParameterError
from repro.graphs.adjacency import Adjacency
from repro.graphs.generators import complete_graph, random_regular_graph
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

    @pytest.mark.parametrize("backend", ["dense", "csr"])
    def test_regular_and_irregular(
        self, regular64, values64, irregular30, values30, backend
    ):
        for graph, values, n_rep in (
            (regular64, values64, 8),
            (irregular30, values30, 5),
        ):
            legacy = BatchNodeModel(
                graph, values, alpha=0.4, k=1, replicas=n_rep, seed=7,
                kernel="numpy", backend=backend,
            )
            fused = BatchNodeModel(
                graph, values, alpha=0.4, k=1, replicas=n_rep, seed=7,
                kernel="fused", backend=backend,
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

    @pytest.mark.parametrize("k", [1, 2])
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


#: Node-model shapes (k, lazy) of the executor tests: k = 8 on degree
#: >= 10 graphs takes the full-key subset path, lazy k = 1 the compiled
#: lazy loop; lazy k = 2 is the one shape jit hands to fused per call.
JIT_SHAPES = [(1, False), (2, False), (3, False), (4, False), (8, False),
              (1, True), (2, True)]


def _dense_graph(kind):
    """Degree >= 8 on 30 nodes, so every shape in JIT_SHAPES is valid."""
    import networkx as nx

    if kind == "regular":
        return random_regular_graph(30, 10, seed=4)
    if kind == "irregular":
        graph = nx.connected_watts_strogatz_graph(30, 12, 0.3, seed=2)
        assert min(d for _, d in graph.degree) >= 8
        return graph
    return CyclicSchedule(
        [random_regular_graph(30, 10, seed=s) for s in (4, 5)], 7
    )


@needs_jit
class TestJitExecutorBitIdentity:
    """The C loop reproduces run_block_fused on one plan, bit for bit."""

    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("graph", ["regular", "irregular", "schedule"])
    @pytest.mark.parametrize("k, lazy", JIT_SHAPES)
    def test_node_plan(self, monkeypatch, k, lazy, graph, frozen, record):
        values = np.random.default_rng(3).normal(size=30)
        batch = BatchNodeModel(
            _dense_graph(graph), values, 0.5, k=k, replicas=6, seed=7,
            lazy=lazy, kernel="fused",
        )
        if k == 8:
            assert batch._sampler.uses_subset_keys
        batch.run(12)  # past the schedule's first switch
        if frozen:
            batch.freeze([1, 4])
        self._compare(monkeypatch, batch, compiled=not (lazy and k > 1),
                      record=record)

    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("lazy", [False, True])
    def test_edge_plan(self, monkeypatch, lazy, record):
        values = np.random.default_rng(3).normal(size=30)
        batch = BatchEdgeModel(
            _dense_graph("irregular"), values, 0.5, replicas=6, seed=7,
            lazy=lazy, kernel="fused",
        )
        batch.freeze([2])
        self._compare(monkeypatch, batch, compiled=True, record=record)

    @staticmethod
    def _compare(monkeypatch, batch, compiled, record):
        batch._sync_snapshot()
        plan = batch._plan_block(batch._block_size(40))
        fused_flat = batch._flat.copy()
        jit_flat = batch._flat.copy()
        expected = run_block_fused(fused_flat, plan, batch.alpha, record)
        if compiled:
            def fused_called(*args):
                raise AssertionError("jit fell back to the fused kernel")

            monkeypatch.setattr(kernels_mod, "run_block_fused", fused_called)
        actual = run_block_jit(jit_flat, plan, batch.alpha, record)
        assert not np.array_equal(fused_flat, batch._flat)
        np.testing.assert_array_equal(jit_flat, fused_flat)
        if record:
            for got, want in zip(actual, expected):
                np.testing.assert_array_equal(got, want)
        else:
            assert actual is None and expected is None

    @pytest.mark.parametrize("k, lazy", JIT_SHAPES)
    def test_runs_and_hitting_times(self, k, lazy):
        """Plain blocks (run), then record blocks feeding detection,
        backdating and the rewind of crossed replicas (run_until_phi)."""
        values = np.random.default_rng(3).normal(size=30)
        fused, jit = (
            BatchNodeModel(
                _dense_graph("irregular"), values, 0.5, k=k, replicas=6,
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

    def test_import_builds_nothing(self, tmp_path):
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path))
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        code = (
            "import repro.api, repro.engine.kernels as k; "
            "assert k._LOOP is k._UNLOADED"
        )
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        assert list(tmp_path.iterdir()) == []

    @needs_jit
    @pytest.mark.parametrize("k, lazy", [(1, False), (3, False), (1, True)])
    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("bad", [-1, "past_end"])
    @pytest.mark.parametrize("column", ["neighbour", "write"])
    def test_bad_index_raises_before_any_write(
        self, regular64, values64, k, lazy, record, bad, column
    ):
        batch = BatchNodeModel(
            regular64, values64, alpha=0.5, k=k, replicas=4, seed=5,
            lazy=lazy, kernel="jit",
        )
        batch.run(3)
        plan = batch._plan_block(8)
        flat = batch.values.reshape(-1)
        before = flat.copy()
        index = flat.size if bad == "past_end" else bad
        # Corrupt the last round only: the whole block must be refused.
        if lazy:
            target = plan.write_idx if column == "write" else plan.gather_idx
            target[-1, 0] = index
        else:
            entry = 0 if column == "neighbour" else plan.cat_idx.shape[1] - 1
            plan.cat_idx[-1, entry] = index
        with pytest.raises(IndexError):
            run_block_jit(flat, plan, batch.alpha, record)
        np.testing.assert_array_equal(flat, before)


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


class TestStatisticalParity:
    """Fused-kernel distributions match the loop oracle's moments."""

    def test_f_moments(self, regular64, values64):
        small = random_regular_graph(36, 4, seed=0)
        initial = center_simple(rademacher_values(36, seed=1))

        def make(rng):
            return NodeModel(small, initial, alpha=0.5, k=1, seed=rng)

        loop = sample_f_values(
            make, 300, seed=5, discrepancy_tol=1e-6, engine="loop"
        )
        fused = sample_f_values(
            make, 300, seed=5, discrepancy_tol=1e-6, engine="batch",
            kernel="fused",
        )
        stderr = np.hypot(loop.std() / np.sqrt(300), fused.std() / np.sqrt(300))
        assert abs(loop.mean() - fused.mean()) < 5 * stderr
        ratio = fused.var(ddof=1) / loop.var(ddof=1)
        assert 0.6 < ratio < 1.7

    def test_t_eps_distribution(self, regular64, values64):
        small = random_regular_graph(36, 4, seed=0)
        initial = center_simple(rademacher_values(36, seed=1))

        def make(rng):
            return NodeModel(small, initial, alpha=0.5, k=1, seed=rng)

        loop = sample_t_eps(make, 1e-6, 60, seed=6, engine="loop")
        fused = sample_t_eps(
            make, 1e-6, 60, seed=6, engine="batch", kernel="fused"
        )
        assert np.all(fused > 0)
        assert 0.8 < fused.mean() / loop.mean() < 1.25

    def test_invalid_kernel_rejected(self, regular64, values64):
        def make(rng):
            return NodeModel(regular64, values64, alpha=0.5, k=1, seed=rng)

        with pytest.raises(ParameterError):
            sample_f_values(make, 5, seed=1, kernel="warp")


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

    def test_dense_and_csr_agree(self):
        graph = complete_graph(70)
        values = center_simple(np.random.default_rng(4).normal(size=70))
        dense = BatchNodeModel(
            graph, values, alpha=0.5, k=2, replicas=6, seed=17,
            backend="dense", kernel="fused",
        )
        csr = BatchNodeModel(
            graph, values, alpha=0.5, k=2, replicas=6, seed=17,
            backend="csr", kernel="fused",
        )
        dense.run(300)
        csr.run(300)
        np.testing.assert_array_equal(dense.values, csr.values)

    def test_perround_rejection_dense_csr_agree(self):
        """kernel='numpy' exercises rejection inside neighbour_means."""
        graph = complete_graph(70)
        values = center_simple(np.random.default_rng(5).normal(size=70))
        dense = BatchNodeModel(
            graph, values, alpha=0.5, k=3, replicas=4, seed=19,
            backend="dense", kernel="numpy",
        )
        csr = BatchNodeModel(
            graph, values, alpha=0.5, k=3, replicas=4, seed=19,
            backend="csr", kernel="numpy",
        )
        dense.run(200)
        csr.run(200)
        np.testing.assert_array_equal(dense.values, csr.values)

    def test_statistics_match_loop(self):
        graph = complete_graph(70)
        values = center_simple(rademacher_values(70, seed=2))

        def make(rng):
            return NodeModel(graph, values, alpha=0.5, k=2, seed=rng)

        loop = sample_f_values(
            make, 120, seed=8, discrepancy_tol=1e-6, engine="loop"
        )
        fused = sample_f_values(
            make, 120, seed=8, discrepancy_tol=1e-6, kernel="fused"
        )
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
