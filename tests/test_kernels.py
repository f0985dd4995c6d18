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

import numpy as np
import pytest

from repro.core.edge_model import EdgeModel
from repro.core.initial import center_simple, rademacher_values
from repro.core.node_model import NodeModel
from repro.engine import (
    BatchEdgeModel,
    BatchNodeModel,
    EngineSpec,
    KERNEL_CHOICES,
    ResultCache,
    numba_available,
    resolve_kernel,
    sample_f_batch,
)
from repro.engine.kernels import run_block_fused
from repro.exceptions import ParameterError
from repro.graphs.adjacency import Adjacency
from repro.graphs.generators import complete_graph, random_regular_graph
from repro.sim.montecarlo import sample_f_values, sample_t_eps

needs_numba = pytest.mark.skipif(
    not numba_available(), reason="numba not installed"
)


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
        assert set(KERNEL_CHOICES) == {
            "auto", "numpy", "fused", "jit", "jit-par", "cupy"
        }
        with pytest.raises(ParameterError):
            resolve_kernel("warp")

    def test_jit_par_and_cupy_resolution(self):
        assert resolve_kernel("jit-par") == (
            "jit-par" if numba_available() else "fused"
        )
        # cupy always resolves to itself: the NumPy shim backs it when
        # CuPy is absent, so there is no fallback to warn about.
        assert resolve_kernel("cupy") == "cupy"

    def test_available_kernels(self):
        from repro.engine import available_kernels

        names = available_kernels()
        assert "auto" not in names
        assert "numpy" in names and "fused" in names and "cupy" in names
        assert ("jit" in names) == numba_available()
        assert ("jit-par" in names) == numba_available()

    def test_numpy_is_identity(self):
        assert resolve_kernel("numpy") == "numpy"

    def test_auto_and_jit_follow_numba(self):
        expected = "jit" if numba_available() else "fused"
        assert resolve_kernel("auto") == expected
        # Without numba this would fire the one-shot fallback warning,
        # but conftest pre-arms the flag so the suite stays clean under
        # filterwarnings = error::RuntimeWarning.
        assert resolve_kernel("jit") == expected

    def test_jit_fallback_warning_is_captured(self, monkeypatch):
        """Regression: the fallback RuntimeWarning fires exactly where
        expected and is captured by ``pytest.warns`` — never escaping
        into the suite (which runs with RuntimeWarning promoted to an
        error by pytest.ini)."""
        from repro.engine import kernels as kernels_mod

        monkeypatch.setitem(kernels_mod._NUMBA_STATE, "ok", False)
        monkeypatch.setattr(kernels_mod, "_FALLBACK_WARNED", False)
        with pytest.warns(RuntimeWarning, match="numba is not importable"):
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
        assert batch.kernel == ("jit" if numba_available() else "fused")


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


@needs_numba
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


class TestJitParBitEquality:
    """jit-par shards the replica axis only: bit-identical to fused at
    every thread count (each replica's round loop is sequential and
    touches disjoint state)."""

    def _threads_grid(self):
        import os

        return sorted({1, 2, os.cpu_count() or 1})

    @needs_numba
    def test_node_k1_across_thread_counts(self, regular64, values64):
        fused = BatchNodeModel(
            regular64, values64, alpha=0.5, k=1, replicas=8, seed=11,
            kernel="fused",
        )
        fused.run(500)
        for threads in self._threads_grid():
            par = BatchNodeModel(
                regular64, values64, alpha=0.5, k=1, replicas=8, seed=11,
                kernel="jit-par", threads=threads,
            )
            assert par.kernel == "jit-par"
            par.run(500)
            np.testing.assert_array_equal(par.values, fused.values)

    @needs_numba
    def test_edge_lazy_across_thread_counts(self, regular64, values64):
        fused = BatchEdgeModel(
            regular64, values64, alpha=0.5, replicas=8, seed=11,
            kernel="fused", lazy=True,
        )
        fused.run(500)
        for threads in self._threads_grid():
            par = BatchEdgeModel(
                regular64, values64, alpha=0.5, replicas=8, seed=11,
                kernel="jit-par", threads=threads, lazy=True,
            )
            par.run(500)
            np.testing.assert_array_equal(par.values, fused.values)

    @needs_numba
    def test_backdating_invariance(self, regular64, values64):
        """run_until_phi hitting times are exact under jit-par too."""

        def make(kernel, **kw):
            return BatchNodeModel(
                regular64, values64, alpha=0.5, k=1, replicas=16, seed=13,
                kernel=kernel, **kw,
            )

        reference = make("fused")
        reference.block_rounds = 1
        hits = reference.run_until_phi(1e-4, 500_000)
        for threads in self._threads_grid():
            par = make("jit-par", threads=threads)
            np.testing.assert_array_equal(
                par.run_until_phi(1e-4, 500_000), hits
            )
            np.testing.assert_array_equal(par.values, reference.values)

    def test_fallback_without_numba_matches_fused(
        self, regular64, values64, monkeypatch
    ):
        """threads is inert once jit-par degrades to fused (this is the
        path this CPU-only suite actually exercises)."""
        from repro.engine import kernels as kernels_mod

        monkeypatch.setitem(kernels_mod._NUMBA_STATE, "ok", False)
        monkeypatch.setattr(kernels_mod, "_FALLBACK_WARNED", True)
        fused = BatchNodeModel(
            regular64, values64, alpha=0.5, k=1, replicas=6, seed=17,
            kernel="fused",
        )
        par = BatchNodeModel(
            regular64, values64, alpha=0.5, k=1, replicas=6, seed=17,
            kernel="jit-par", threads=4,
        )
        assert par.kernel == "fused" and par.kernel_requested == "jit-par"
        fused.run(400)
        par.run(400)
        np.testing.assert_array_equal(par.values, fused.values)


class TestArrayApiBackend:
    """kernel='cupy': device-resident blocks behind the array namespace.

    Without CuPy the namespace is the NumPy shim, which strengthens the
    statistical-parity contract to bit-equality — the residency logic
    (upload, device blocks, download-on-read) still runs end to end.
    """

    def _pair(self, cls, *args, **kwargs):
        fused = cls(*args, kernel="fused", **kwargs)
        dev = cls(*args, kernel="cupy", **kwargs)
        assert dev.kernel == "cupy"
        return fused, dev

    def test_node_k1_shim_bit_equal(self, regular64, values64):
        from repro.engine import cupy_available

        fused, dev = self._pair(
            BatchNodeModel, regular64, values64, 0.5, 1, 8, 11
        )
        fused.run(500)
        dev.run(500)
        if cupy_available():
            # Real device: statistical parity only — compare moments.
            assert abs(dev.values.mean() - fused.values.mean()) < 0.1
        else:
            np.testing.assert_array_equal(dev.values, fused.values)
            np.testing.assert_allclose(dev.phi, fused.phi, atol=1e-13)

    def test_node_k2_and_edge_shim_bit_equal(
        self, irregular30, values30, regular64, values64
    ):
        from repro.engine import cupy_available

        if cupy_available():
            pytest.skip("bit-equality contract only holds under the shim")
        fused_n, dev_n = self._pair(
            BatchNodeModel, irregular30, values30, 0.4, 2, 5, 7
        )
        fused_n.run(400)
        dev_n.run(400)
        np.testing.assert_array_equal(dev_n.values, fused_n.values)
        fused_e, dev_e = self._pair(
            BatchEdgeModel, regular64, values64, 0.5, 6, 9
        )
        fused_e.run(400)
        dev_e.run(400)
        np.testing.assert_array_equal(dev_e.values, fused_e.values)

    def test_chunk_invariance(self, regular64, values64):
        one = BatchNodeModel(
            regular64, values64, alpha=0.5, k=1, replicas=6, seed=5,
            kernel="cupy",
        )
        one.run(703)
        chunked = BatchNodeModel(
            regular64, values64, alpha=0.5, k=1, replicas=6, seed=5,
            kernel="cupy",
        )
        for chunk in (1, 3, 130, 17, 256, 296):
            chunked.run(chunk)
        np.testing.assert_array_equal(one.values, chunked.values)

    def test_hitting_times_match_fused_under_shim(self, regular64, values64):
        from repro.engine import cupy_available

        if cupy_available():
            pytest.skip("bit-equality contract only holds under the shim")
        fused, dev = self._pair(
            BatchNodeModel, regular64, values64, 0.5, 1, 16, 13
        )
        np.testing.assert_array_equal(
            fused.run_until_phi(1e-4, 500_000),
            dev.run_until_phi(1e-4, 500_000),
        )

    def test_statistical_parity_vs_loop(self):
        """The contract the cupy kernel must satisfy on *any* backend."""
        small = random_regular_graph(36, 4, seed=0)
        initial = center_simple(rademacher_values(36, seed=1))

        def make(rng):
            return NodeModel(small, initial, alpha=0.5, k=1, seed=rng)

        loop = sample_f_values(
            make, 200, seed=5, discrepancy_tol=1e-6, engine="loop"
        )
        dev = sample_f_values(
            make, 200, seed=5, discrepancy_tol=1e-6, engine="batch",
            kernel="cupy",
        )
        stderr = np.hypot(loop.std() / np.sqrt(200), dev.std() / np.sqrt(200))
        assert abs(loop.mean() - dev.mean()) < 5 * stderr
        ratio = dev.var(ddof=1) / loop.var(ddof=1)
        assert 0.5 < ratio < 2.0

    def test_dual_diffusion_device_path(self, regular64, values64):
        """BatchDiffusion(kernel='cupy') keeps loads on-device across a
        selection block and still conserves mass."""
        from repro.engine import BatchDiffusion, cupy_available

        adjacency = Adjacency.from_graph(regular64)
        host = BatchDiffusion(
            adjacency, cost=values64, alpha=0.5, k=1, replicas=4, seed=2,
        )
        dev = BatchDiffusion(
            adjacency, cost=values64, alpha=0.5, k=1, replicas=4, seed=2,
            kernel="cupy",
        )
        host.run(300)
        dev.run(300)
        if not cupy_available():
            np.testing.assert_allclose(dev.loads, host.loads, atol=1e-12)
        np.testing.assert_allclose(
            dev.loads.sum(axis=(1, 2)), host.loads.sum(axis=(1, 2)),
            atol=1e-9,
        )


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
        """fused/jit/jit-par/auto share one stream class; numpy and cupy
        are each their own."""
        adjacency = Adjacency.from_graph(regular64)
        tokens = {
            kernel: EngineSpec(
                "node", adjacency, values64, 0.5, 1, kernel=kernel
            ).cache_token()
            for kernel in ("auto", "fused", "jit", "jit-par", "numpy", "cupy")
        }
        assert (
            tokens["auto"] == tokens["fused"] == tokens["jit"]
            == tokens["jit-par"]
        )
        assert tokens["numpy"] != tokens["fused"]
        assert tokens["cupy"] != tokens["fused"]
        assert tokens["cupy"] != tokens["numpy"]
        assert "|stream=cupy" in tokens["cupy"]

    def test_cache_token_threads(self, regular64, values64):
        """threads=None leaves tokens byte-identical to the pre-threads
        era; an explicit thread count splits only block-stream tokens."""
        adjacency = Adjacency.from_graph(regular64)

        def token(**kwargs):
            return EngineSpec(
                "node", adjacency, values64, 0.5, 1, **kwargs
            ).cache_token()

        assert token(kernel="fused") == token(kernel="fused", threads=None)
        assert "|th=" not in token(kernel="fused")
        two = token(kernel="fused", threads=2)
        assert two.endswith("|th=2")
        assert two != token(kernel="fused")
        assert two != token(kernel="fused", threads=4)
        # numpy's legacy stream is per-round and thread-free: threads
        # never fragments its key space.
        assert token(kernel="numpy", threads=2) == token(kernel="numpy")

    def test_cache_token_calibration_independent(self, regular64, values64):
        """Installing a calibration table must not move any cache key:
        auto only ever picks stream-exact kernels, which share the
        block token."""
        from repro.engine.calibration import (
            CalibrationCell,
            CalibrationTable,
            clear_calibration_cache,
            set_calibration,
        )

        adjacency = Adjacency.from_graph(regular64)
        spec = EngineSpec("node", adjacency, values64, 0.5, 1, kernel="auto")
        before = spec.cache_token()
        table = CalibrationTable(cells=[CalibrationCell(
            kind="node", k=1, n=64, replicas=8,
            rates={"numpy": 9e9, "fused": 1.0, "jit": None, "jit-par": None,
                   "cupy": 9e9},
        )])
        set_calibration(table)
        try:
            assert spec.cache_token() == before
            from repro.engine import autopick_kernel

            pick, reason = autopick_kernel("node", 1, 64, 8)
            # numpy/cupy rates dominate the table yet are never eligible.
            assert pick in ("fused", "jit", "jit-par")
            assert reason == "calibrated"
        finally:
            set_calibration(None)
            clear_calibration_cache()

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


class TestRunSpecThreads:
    def test_round_trip_label_and_key(self):
        from repro.api import RunSpec

        spec = RunSpec("EXP-T222", kernel="jit-par", threads=2)
        assert RunSpec.from_json(spec.to_json()) == spec
        assert "threads=2" in spec.label()
        assert spec.key() != RunSpec("EXP-T222", kernel="jit-par").key()
        # The default is absent everywhere: old specs keep their keys.
        bare = RunSpec("EXP-T222")
        assert "threads" not in bare.label()
        assert bare.key() == RunSpec("EXP-T222", threads=None).key()

    def test_validation(self):
        from repro.api import RunSpec
        from repro.exceptions import SpecError

        with pytest.raises(SpecError):
            RunSpec("EXP-T222", threads=0)
        with pytest.raises(SpecError):
            RunSpec("EXP-T222", threads=True)

    def test_resolution_folds_threads(self):
        from repro.api import RunSpec, resolve_spec

        spec = RunSpec("EXP-T222", threads=3)
        assert resolve_spec(spec)["threads"] == 3
        # Unset, the declared parameter resolves to its None default —
        # exactly how engine/kernel defaults materialise.
        assert resolve_spec(RunSpec("EXP-T222"))["threads"] is None
        # Experiments without the parameter ignore the field.
        assert "threads" not in resolve_spec(RunSpec("EXP-VT", threads=2))

    def test_threads_param_declaration(self):
        from repro.api import get_experiment, threads_param

        param = threads_param()
        assert param.default is None
        assert param.coerce("threads", "4") == 4
        experiment = get_experiment("EXP-T222")
        assert "threads" in experiment.params
        assert experiment.accepts_threads
