"""Fused multi-round stepping kernels for the batch engine.

The PR-1 batch engine pays one full Python round — an RNG call plus a
dozen NumPy dispatches — per time step, so at small batch sizes the
interpreter, not arithmetic, dominates wall time.  The kernel layer
advances a batch by *blocks of R rounds per Python call*:

``"numpy"``
    The legacy per-round path (``step_batch`` in a loop).  Kept as the
    bit-compatible reference for PR-1 trajectories — with one carve-out:
    on very high-degree graphs (``d_max > 64``, ``k^2 <= d_min``) the
    ``k``-subset sampler now rejection-samples instead of drawing a full
    ``(B, d_max)`` key matrix, so those configurations consume a
    different stream than PR-1 did (same law; see
    :meth:`~repro.engine.backend.SamplingBackend._subset_slots`).
``"fused"``
    Pure NumPy: all block randomness is pre-drawn in one call, every
    value-independent quantity (selected nodes, neighbour slots, flat
    gather/scatter indices, pi weights) is computed block-wise, and the
    per-round inner loop shrinks to four NumPy dispatches — one fused
    gather, one multiply, one add, one scatter.
``"jit"``
    Optional Numba backend: the same pre-drawn variates and precomputed
    index blocks are consumed by one compiled loop over the whole block.
    Falls back to ``"fused"`` without numba (and per-call for shapes the
    compiled loop does not cover, currently ``k > 1``).
``"jit-par"``
    The threaded tier of the jit kernel: the same compiled loops with
    the per-round replica loop compiled under ``prange``.  Replicas are
    independent and each (round, replica) entry touches only its own
    row, so the parallel loop is race-free and performs the identical
    IEEE operations per entry — trajectories stay **bit-identical** to
    ``fused``/``jit`` at every thread count.  The thread budget is the
    ``threads=`` knob (see :func:`configure_threads`), capped so
    multiprocessing shard workers never oversubscribe the machine.
``"cupy"``
    Array-API state backend: the ``(B, n)`` primal state (and the dual
    ``(B, n, r)`` load cube) live on-device across whole blocks, with
    the block plans still pre-drawn host-side by the same NumPy RNG.
    Uses CuPy when importable and a NumPy array-API shim otherwise (the
    shim emulates the device buffer with an explicit host copy, so the
    residency/sync logic is exercised everywhere).  This backend is
    validated under the *statistical-parity* contract — device
    reduction order is not pinned — and therefore keys its own cache
    stream class and is never chosen by ``kernel="auto"``.

``kernel="auto"`` consults a measured calibration table
(:mod:`repro.engine.calibration`, refreshable via ``repro bench
calibrate``) keyed on ``(model kind, k, n, B)`` and restricted to the
stream-exact block kernels above, falling back to the historical
heuristic (jit if numba imports, else fused) when no table exists.

Block contract
--------------
One block advances the active replicas by ``R`` rounds.  Randomness is
drawn **once per block, for the full batch**: a single C-order uniform
matrix whose row ``r`` holds round ``r``'s variates and whose column
``b`` belongs to replica ``b``.  Because NumPy fills arrays from the
bit stream in C order, splitting a run into blocks of any size consumes
the stream identically — trajectories are *chunk-invariant*, and frozen
replicas (whose columns are drawn but discarded) never shift their
neighbours' variates.  Per shape the draw is:

* node ``k = 1``: ``U ~ (R, B)``; ``node = floor(u * n)``, neighbour
  slot from the fractional part (as in the per-round engine);
* node ``k = 2``: ``U ~ (R, B)``; the node from the integer part of
  ``u * n``, and from the (exact) fractional part one of the
  ``deg * (deg - 1)`` *ordered distinct neighbour pairs* — no key
  matrix at all;
* edge: ``U ~ (R, B)``; ``edge = floor(u * 2m)``;
* node ``k > 2`` (full-key subsets): ``U ~ (R, B, d_max + 1)``; column
  0 selects the node, the remaining columns are the subset keys;
* lazy variants split one extra leading bit off the same uniform:
  ``coin = (u >= 1/2)``, then ``2u mod 1`` is again uniform.

(The rejection-sampled ``k > 1`` path for very high-degree graphs —
see :meth:`~repro.engine.backend.SamplingBackend._subset_slots` — draws
a variable number of variates and is therefore the one shape whose
realized trajectory depends on the block size; its hitting times remain
exact for the trajectory actually run.)

The executors below receive a fully precomputed :class:`BlockPlan` and
only perform the value-dependent work.  In record mode they return the
per-round ``(old, new)`` values of every updated entry, from which the
caller derives the exact per-round moment increments
``(d1, d2) = (pi_u * (new - old), d1 * (new + old))`` — the inputs to
chunked convergence detection (see ``BatchAveragingProcess.run_until_phi``
for the backdating math).  Fused and jit kernels perform bit-identical
IEEE operations, so a fixed seed yields bit-identical trajectories
across the two.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

from repro.exceptions import ParameterError
from repro.obs.metrics import METRICS

#: Valid ``kernel=`` names accepted across the engine, API and CLI.
#:
#: ``"auto"`` — measured pick among the stream-exact block kernels
#: (calibration table, else the jit-if-numba heuristic);
#: ``"numpy"`` — legacy per-round reference path (its own RNG stream);
#: ``"fused"`` — pure-NumPy block kernel, always available;
#: ``"jit"`` / ``"jit-par"`` — serial / ``prange``-threaded numba
#: block loops, bit-identical to ``"fused"`` (visible fused fallback
#: without numba);
#: ``"cupy"`` — array-API device-state backend (CuPy, else a NumPy
#: shim), statistical-parity contract, own cache stream class.
KERNEL_CHOICES = ("auto", "numpy", "fused", "jit", "jit-par", "cupy")

#: Kernels whose trajectories are bit-identical to ``"fused"`` at a
#: fixed seed (one shared "block" RNG stream class).  ``kernel="auto"``
#: only ever picks from this set, so the auto pick can never change a
#: cache key's stream identity or the realized trajectory.
STREAM_EXACT_KERNELS = ("fused", "jit", "jit-par")

#: Default rounds per block: large enough to amortise the block plan to
#: ~0.02 us/round, small enough that run_until_phi over-steps at most
#: this many rounds past each replica's crossing (times stay exact).
DEFAULT_BLOCK_ROUNDS = 256

_NUMBA_STATE: dict = {}

_CUPY_STATE: dict = {}


def numba_available() -> bool:
    """Whether the optional numba JIT backend can be imported (cached)."""
    if "ok" not in _NUMBA_STATE:
        try:
            import numba  # noqa: F401

            _NUMBA_STATE["ok"] = True
        except ImportError:
            _NUMBA_STATE["ok"] = False
    return _NUMBA_STATE["ok"]


def cupy_available() -> bool:
    """Whether real CuPy can be imported (cached).

    The ``"cupy"`` kernel itself never *requires* CuPy — it degrades to
    a NumPy array-API shim so the device-residency logic stays testable
    on CPU-only runners — but BENCH and provenance records label which
    device actually backed a run.
    """
    if "ok" not in _CUPY_STATE:
        try:
            import cupy  # noqa: F401

            _CUPY_STATE["ok"] = True
        except ImportError:
            _CUPY_STATE["ok"] = False
    return _CUPY_STATE["ok"]


def array_namespace():
    """``(xp, device_label)`` backing the ``"cupy"`` kernel.

    Returns the CuPy module and ``"cupy"`` when importable, else NumPy
    and ``"numpy-shim"``.
    """
    if cupy_available():
        import cupy

        return cupy, "cupy"
    return np, "numpy-shim"


def available_kernels() -> tuple:
    """The effective kernel names runnable in this process.

    ``"auto"`` is excluded (it is a request, not an executor); ``jit``
    and ``jit-par`` appear only when numba imports.  ``"cupy"`` is
    always runnable (shim-backed without CuPy).
    """
    names = ["numpy", "fused"]
    if numba_available():
        names += ["jit", "jit-par"]
    names.append("cupy")
    return tuple(names)


# ----------------------------------------------------------------------
# Thread budget (the jit-par knob)
# ----------------------------------------------------------------------
#: Per-process kernel-thread cap, set by the multiprocessing sharder's
#: worker initializer so ``workers x threads <= cpu_count`` (satellite:
#: no oversubscription).  ``None`` means uncapped.
_THREAD_STATE: dict = {"cap": None}


def set_thread_cap(cap: int | None) -> None:
    """Cap this process's kernel threads (``None`` lifts the cap).

    Called by :func:`repro.engine.driver._init_worker_threads` inside
    each multiprocessing shard worker.  Also exports ``OMP_NUM_THREADS``
    so BLAS/OpenMP pools in the worker respect the same budget.
    """
    if cap is not None:
        cap = max(1, int(cap))
        os.environ["OMP_NUM_THREADS"] = str(cap)
    _THREAD_STATE["cap"] = cap
    if numba_available():
        import numba

        try:
            numba.set_num_threads(effective_thread_count(None))
        except ValueError:  # pragma: no cover - numba threading layer quirk
            pass


def effective_thread_count(requested: int | None) -> int:
    """The thread count the jit-par kernel would actually run with.

    ``requested=None`` means "all available".  The result is clamped to
    the process thread cap (see :func:`set_thread_cap`) and to numba's
    own maximum; without numba every kernel is single-threaded.
    """
    if not numba_available():
        return 1
    import numba

    limit = numba.config.NUMBA_NUM_THREADS
    threads = limit if requested is None else max(1, int(requested))
    cap = _THREAD_STATE["cap"]
    if cap is not None:
        threads = min(threads, cap)
    return min(threads, limit)


def configure_threads(requested: int | None) -> int:
    """Apply the thread budget for this process and return it.

    Sets numba's runtime thread count (a cheap, idempotent call) to the
    clamped budget and records it on the ``engine.kernel_threads``
    gauge so provenance/telemetry can report the *effective* count.
    """
    threads = effective_thread_count(requested)
    if numba_available():
        import numba

        numba.set_num_threads(threads)
    METRICS.gauge("engine.kernel_threads", threads)
    return threads


def validate_kernel(name: str) -> str:
    """Check ``name`` against :data:`KERNEL_CHOICES` (shared validator)."""
    if name not in KERNEL_CHOICES:
        raise ParameterError(
            f"unknown kernel {name!r}; expected one of "
            + ", ".join(repr(k) for k in KERNEL_CHOICES)
        )
    return name


_FALLBACK_WARNED = False


def _warn_fallback(name: str) -> None:
    """One-time visible degrade of an explicit numba-kernel request."""
    global _FALLBACK_WARNED
    METRICS.count("engine.kernel_fallback")
    if not _FALLBACK_WARNED:
        _FALLBACK_WARNED = True
        warnings.warn(
            f"kernel={name!r} requested but numba is not importable; "
            "falling back to the fused NumPy kernel "
            "(this warning is emitted once per process)",
            RuntimeWarning,
            stacklevel=3,
        )


def resolve_kernel(name: str) -> str:
    """Resolve a requested kernel name to the effective one.

    ``"auto"`` resolves with the jit-if-numba heuristic here — the
    *workload-aware* measured pick lives in :func:`autopick_kernel` and
    is applied where the batch shape is known (batch construction);
    both only ever pick stream-exact block kernels, so this context-free
    resolution is all a cache key needs.  An explicit ``"jit"`` or
    ``"jit-par"`` request degrades to ``"fused"`` without numba — numba
    is an optional accelerator, never a requirement — but *visibly*: a
    one-time ``RuntimeWarning`` plus the ``engine.kernel_fallback``
    counter, so BENCH and provenance records stop silently reporting a
    backend that never ran.  ``"cupy"`` always resolves to itself (the
    NumPy array-API shim backs it when CuPy is absent).
    """
    validate_kernel(name)
    if name in ("numpy", "fused", "cupy"):
        return name
    if name == "auto":
        return "jit" if numba_available() else "fused"
    # jit / jit-par
    if numba_available():
        return name
    _warn_fallback(name)
    return "fused"


def autopick_kernel(
    kind: str, k: int, n: int, replicas: int
) -> tuple[str, str]:
    """Workload-aware ``kernel="auto"`` resolution: ``(kernel, reason)``.

    Consults the persisted calibration table
    (:mod:`repro.engine.calibration`) keyed on ``(model kind, k, n, B)``
    when one exists — reason ``"calibrated"`` — and falls back to the
    historical heuristic (jit when numba imports, else fused) — reason
    ``"heuristic"``.  Only kernels in :data:`STREAM_EXACT_KERNELS`
    *and* runnable in this process are eligible, so the pick never
    changes the realized trajectory, the RNG stream class, or a cache
    key, and never selects an unavailable backend.
    """
    exact = set(STREAM_EXACT_KERNELS)
    candidates = tuple(
        name for name in available_kernels() if name in exact
    )
    try:
        from repro.engine.calibration import load_calibration

        table = load_calibration()
    except Exception:  # pragma: no cover - defensive: bad table on disk
        table = None
    if table is not None:
        pick = table.pick(kind, k, n, replicas, candidates)
        if pick is not None:
            return pick, "calibrated"
    return ("jit" if numba_available() else "fused"), "heuristic"


class BlockPlan:
    """Precomputed, value-independent description of one R-round block.

    ``write_idx`` is the ``(R, A)`` flat (int64) index of each round's
    updated entry.  The non-lazy fast path packs all gather and write
    indices into one ``(R, (k+1) A)`` int64 matrix ``cat_idx =
    [neighbour_1 | ... | neighbour_k | write]`` whose matching ``coef =
    [beta/k ... | alpha ...]`` turns the unilateral update into a single
    fused gather, one multiply and ``k`` slice adds per round.
    ``gather_idx`` is used instead by the lazy paths (shape ``(R, A)``
    or ``(R, A, k)``).  ``weights`` are the pi weights of the written
    entries (scalar on regular graphs); ``keep`` is the lazy coin
    mask.
    """

    __slots__ = ("write_idx", "cat_idx", "coef", "gather_idx", "weights", "keep", "k")

    def __init__(
        self,
        write_idx: np.ndarray,
        cat_idx: np.ndarray | None = None,
        coef: np.ndarray | None = None,
        gather_idx: np.ndarray | None = None,
        weights: np.ndarray | float = 0.0,
        keep: np.ndarray | None = None,
        k: int = 1,
    ) -> None:
        self.write_idx = write_idx
        self.cat_idx = cat_idx
        self.coef = coef
        self.gather_idx = gather_idx
        self.weights = weights
        self.keep = keep
        self.k = k

    @property
    def rounds(self) -> int:
        return self.write_idx.shape[0]

    @property
    def active(self) -> int:
        return self.write_idx.shape[1]


def run_block_fused(
    flat: np.ndarray, plan: BlockPlan, alpha: float, record: bool
) -> tuple[np.ndarray, np.ndarray] | None:
    """Execute one block with the fused NumPy kernel.

    Mutates ``flat`` (the batch's cached flat value view) in place.  In
    record mode returns ``(old, new)`` as ``(R, A)`` matrices of the
    written entries' values (zero rows where a lazy replica skipped its
    round, so the derived moment deltas vanish there).
    """
    R, A = plan.write_idx.shape
    beta = 1.0 - alpha
    if plan.cat_idx is not None:
        # Fast path: one fused gather of [neighbours... | old], one
        # multiply by [beta/k... | alpha...], k slice adds, one scatter
        # per round, all into per-block scratch.  Bound methods and
        # zipped row views keep the interpreter's share of each round
        # to a handful of bytecodes.
        cat_idx = plan.cat_idx
        # One range check for the whole block, before any write: viewed
        # as unsigned, a negative index is huge, so a single max covers
        # both bounds.  Every index is then in range and the per-round
        # gathers can use mode="wrap" (the identity here), which writes
        # straight into `out`; the default mode="raise" checks each
        # index again and buffers the result.
        if cat_idx.size and cat_idx.view(np.uint64).max() >= flat.size:
            raise IndexError(
                f"block plan index out of range for {flat.size} entries "
                f"(min {cat_idx.min()}, max {cat_idx.max()})"
            )
        coef = plan.coef
        take = flat.take
        scatter = flat.__setitem__
        multiply = np.multiply
        add = np.add
        parts = plan.k + 1
        g = np.empty(parts * A)
        terms = [g[j * A:(j + 1) * A] for j in range(parts)]
        first, second, rest = terms[0], terms[1], terms[2:]
        if record:
            # Only the written entries' old values feed the moment
            # deltas, so store just that (R, A) slice of each gather.
            old = terms[-1]
            old_blk = np.empty((R, A))
            new_blk = np.empty((R, A))
            for ci, wi, oi, ni in zip(cat_idx, plan.write_idx, old_blk, new_blk):
                take(ci, out=g, mode="wrap")
                oi[:] = old
                multiply(g, coef, out=g)
                add(first, second, out=ni)
                for term in rest:
                    add(ni, term, out=ni)
                scatter(wi, ni)
            return old_blk, new_blk
        acc = np.empty(A)
        for ci, wi in zip(cat_idx, plan.write_idx):
            take(ci, out=g, mode="wrap")
            multiply(g, coef, out=g)
            add(first, second, out=acc)
            for term in rest:
                add(acc, term, out=acc)
            scatter(wi, acc)
        return None

    # General path: lazy masking and/or k-neighbour means.
    w_rows = list(plan.write_idx)
    keep = plan.keep
    old_blk = new_blk = None
    if record:
        old_blk = np.zeros((R, A))
        new_blk = np.zeros((R, A))
    for i in range(R):
        widx = w_rows[i]
        gidx = plan.gather_idx[i]
        if keep is not None:
            mask = keep[i]
            widx = widx[mask]
            gidx = gidx[mask]
            if widx.size == 0:
                continue
        if plan.k == 1:
            means = flat[gidx]
        else:
            means = flat[gidx].mean(axis=1)
        old = flat[widx]
        new = alpha * old + beta * means
        flat[widx] = new
        if record:
            if keep is not None:
                old_blk[i][mask] = old
                new_blk[i][mask] = new
            else:
                old_blk[i] = old
                new_blk[i] = new
    if record:
        return old_blk, new_blk
    return None


# ----------------------------------------------------------------------
# Numba backend
# ----------------------------------------------------------------------
def _jit_functions():
    """Compile (once) and return the numba block loops, or ``None``."""
    if "fns" in _NUMBA_STATE:
        return _NUMBA_STATE["fns"]
    if not numba_available():
        _NUMBA_STATE["fns"] = None
        return None
    import numba

    # The k=1/edge fast path consumes the packed ``[gather | write]``
    # cat-index matrix directly (no per-block copies); record variants
    # additionally store the written entries' old/new values for the
    # chunked convergence detector.

    @numba.njit(cache=False)
    def block_cat(flat, cat_idx, alpha, old_blk, new_blk):
        R, A = old_blk.shape
        beta = 1.0 - alpha
        for r in range(R):
            for j in range(A):
                wi = cat_idx[r, A + j]
                old = flat[wi]
                mean = flat[cat_idx[r, j]]
                new = alpha * old + beta * mean
                flat[wi] = new
                old_blk[r, j] = old
                new_blk[r, j] = new

    @numba.njit(cache=False)
    def block_cat_norecord(flat, cat_idx, alpha):
        R = cat_idx.shape[0]
        A = cat_idx.shape[1] // 2
        beta = 1.0 - alpha
        for r in range(R):
            for j in range(A):
                wi = cat_idx[r, A + j]
                flat[wi] = alpha * flat[wi] + beta * flat[cat_idx[r, j]]

    @numba.njit(cache=False)
    def block_lazy(flat, write_idx, gather_idx, keep, alpha, old_blk, new_blk):
        R, A = write_idx.shape
        beta = 1.0 - alpha
        for r in range(R):
            for j in range(A):
                if not keep[r, j]:
                    old_blk[r, j] = 0.0
                    new_blk[r, j] = 0.0
                    continue
                wi = write_idx[r, j]
                old = flat[wi]
                mean = flat[gather_idx[r, j]]
                new = alpha * old + beta * mean
                flat[wi] = new
                old_blk[r, j] = old
                new_blk[r, j] = new

    @numba.njit(cache=False)
    def block_lazy_norecord(flat, write_idx, gather_idx, keep, alpha):
        R, A = write_idx.shape
        beta = 1.0 - alpha
        for r in range(R):
            for j in range(A):
                if keep[r, j]:
                    wi = write_idx[r, j]
                    flat[wi] = alpha * flat[wi] + beta * flat[gather_idx[r, j]]

    _NUMBA_STATE["fns"] = {
        "cat": block_cat,
        "cat_norecord": block_cat_norecord,
        "lazy": block_lazy,
        "lazy_norecord": block_lazy_norecord,
    }
    return _NUMBA_STATE["fns"]


def _jit_par_functions():
    """Compile (once) and return the ``prange`` block loops, or ``None``.

    Identical bodies to :func:`_jit_functions` with the inner replica
    loop compiled under ``numba.prange``: replica columns are
    independent within a round (each ``(r, j)`` writes only its own
    row's flat entry and gathers only from its own row), so the
    parallel loop is race-free and each entry's IEEE arithmetic is
    unchanged — trajectories are bit-identical to the serial loops at
    every thread count.  The sequential outer loop preserves the
    round-to-round data dependence.
    """
    if "par_fns" in _NUMBA_STATE:
        return _NUMBA_STATE["par_fns"]
    if not numba_available():
        _NUMBA_STATE["par_fns"] = None
        return None
    import numba

    @numba.njit(parallel=True, cache=False)
    def block_cat_par(flat, cat_idx, alpha, old_blk, new_blk):
        R, A = old_blk.shape
        beta = 1.0 - alpha
        for r in range(R):
            for j in numba.prange(A):
                wi = cat_idx[r, A + j]
                old = flat[wi]
                mean = flat[cat_idx[r, j]]
                new = alpha * old + beta * mean
                flat[wi] = new
                old_blk[r, j] = old
                new_blk[r, j] = new

    @numba.njit(parallel=True, cache=False)
    def block_cat_norecord_par(flat, cat_idx, alpha):
        R = cat_idx.shape[0]
        A = cat_idx.shape[1] // 2
        beta = 1.0 - alpha
        for r in range(R):
            for j in numba.prange(A):
                wi = cat_idx[r, A + j]
                flat[wi] = alpha * flat[wi] + beta * flat[cat_idx[r, j]]

    @numba.njit(parallel=True, cache=False)
    def block_lazy_par(
        flat, write_idx, gather_idx, keep, alpha, old_blk, new_blk
    ):
        R, A = write_idx.shape
        beta = 1.0 - alpha
        for r in range(R):
            for j in numba.prange(A):
                if not keep[r, j]:
                    old_blk[r, j] = 0.0
                    new_blk[r, j] = 0.0
                    continue
                wi = write_idx[r, j]
                old = flat[wi]
                mean = flat[gather_idx[r, j]]
                new = alpha * old + beta * mean
                flat[wi] = new
                old_blk[r, j] = old
                new_blk[r, j] = new

    @numba.njit(parallel=True, cache=False)
    def block_lazy_norecord_par(flat, write_idx, gather_idx, keep, alpha):
        R, A = write_idx.shape
        beta = 1.0 - alpha
        for r in range(R):
            for j in numba.prange(A):
                if keep[r, j]:
                    wi = write_idx[r, j]
                    flat[wi] = (
                        alpha * flat[wi] + beta * flat[gather_idx[r, j]]
                    )

    _NUMBA_STATE["par_fns"] = {
        "cat": block_cat_par,
        "cat_norecord": block_cat_norecord_par,
        "lazy": block_lazy_par,
        "lazy_norecord": block_lazy_norecord_par,
    }
    return _NUMBA_STATE["par_fns"]


def run_block_jit(
    flat: np.ndarray, plan: BlockPlan, alpha: float, record: bool
) -> tuple[np.ndarray, np.ndarray] | None:
    """Execute one block with the numba kernel (fused fallback).

    Consumes the same precomputed plan — hence the same pre-drawn
    variates in the same order — as :func:`run_block_fused`, and
    performs the identical IEEE operations per entry, so trajectories
    are bit-identical across the two kernels at a fixed seed.  Shapes
    without a compiled loop (``k > 1``) and missing-numba environments
    fall back to the fused kernel per call.
    """
    return _run_block_numba(_jit_functions(), flat, plan, alpha, record)


def run_block_jit_par(
    flat: np.ndarray, plan: BlockPlan, alpha: float, record: bool
) -> tuple[np.ndarray, np.ndarray] | None:
    """Execute one block with the threaded numba kernel (fused fallback).

    The ``prange`` twin of :func:`run_block_jit`: same plan, same
    variates, same per-entry IEEE operations — bit-identical to
    ``fused``/``jit`` at every thread count.  The thread budget is
    whatever :func:`configure_threads` last applied in this process.
    """
    return _run_block_numba(_jit_par_functions(), flat, plan, alpha, record)


def _run_block_numba(fns, flat, plan, alpha, record):
    """Shared dispatch of the serial and ``prange`` numba loop sets."""
    if fns is None or plan.k != 1:
        return run_block_fused(flat, plan, alpha, record)
    if plan.cat_idx is not None:
        if not record:
            fns["cat_norecord"](flat, plan.cat_idx, alpha)
            return None
        R, A = plan.write_idx.shape
        old_blk = np.empty((R, A))
        new_blk = np.empty((R, A))
        fns["cat"](flat, plan.cat_idx, alpha, old_blk, new_blk)
        return old_blk, new_blk
    # Lazy path: _pack_plan allocates these arrays C-contiguous.
    if not record:
        fns["lazy_norecord"](
            flat, plan.write_idx, plan.gather_idx, plan.keep, alpha
        )
        return None
    R, A = plan.write_idx.shape
    old_blk = np.empty((R, A))
    new_blk = np.empty((R, A))
    fns["lazy"](
        flat, plan.write_idx, plan.gather_idx, plan.keep, alpha, old_blk, new_blk
    )
    return old_blk, new_blk


# ----------------------------------------------------------------------
# Array-API (CuPy / NumPy-shim) backend
# ----------------------------------------------------------------------
class ArrayApiBlockExecutor:
    """Device-resident block executor behind ``kernel="cupy"``.

    Holds a device copy of the batch's flat ``(B * n,)`` state across
    whole blocks: free-running blocks upload once and stay resident
    (the batch downloads via :meth:`sync_host` when a host observable
    is read), while record-mode blocks (chunked convergence detection)
    download after each block because the detector may rewind the host
    state.  Block plans are still pre-drawn host-side by the ordinary
    NumPy RNG and transferred per block, so the selection law and the
    stream draw order are untouched.  Without CuPy the "device" is an
    explicit NumPy copy — same residency logic, host arithmetic — which
    keeps the backend testable on CPU-only runners.

    Contract: *statistical parity*, not bit-exactness — device gather/
    scatter reduction order is not pinned to the fused kernel's.
    """

    def __init__(self) -> None:
        self.xp, self.device = array_namespace()
        self._dev: object | None = None

    # -- residency ------------------------------------------------------
    def _ensure_device(self, flat: np.ndarray):
        if self._dev is None:
            self._dev = self.xp.array(flat)
        return self._dev

    def _to_host(self, dev) -> np.ndarray:
        if self.device == "cupy":  # pragma: no cover - needs a GPU
            return self.xp.asnumpy(dev)
        return np.asarray(dev)

    def sync_host(self, flat: np.ndarray) -> None:
        """Download the device state into ``flat`` and drop residency.

        Dropping (rather than keeping a "clean" mirror) is what makes
        subsequent host writes — rewinds, ``apply_selection`` replays,
        per-round stepping — safe without any dirty tracking: the next
        block simply re-uploads.
        """
        if self._dev is None:
            return
        flat[:] = self._to_host(self._dev)
        self._dev = None

    # -- execution ------------------------------------------------------
    def __call__(
        self, flat: np.ndarray, plan: BlockPlan, alpha: float, record: bool
    ) -> tuple[np.ndarray, np.ndarray] | None:
        xp = self.xp
        dev = self._ensure_device(flat)
        R, A = plan.write_idx.shape
        beta = 1.0 - alpha
        old_blk = new_blk = None
        if record:
            old_blk = xp.zeros((R, A))
            new_blk = xp.zeros((R, A))
        if plan.cat_idx is not None:
            cat = xp.asarray(plan.cat_idx)
            coef = xp.asarray(plan.coef)
            parts = plan.k + 1
            for r in range(R):
                t = dev[cat[r]] * coef
                new = t.reshape(parts, A).sum(axis=0)
                if record:
                    old_blk[r] = dev[cat[r, plan.k * A:]]
                dev[cat[r, plan.k * A:]] = new
                if record:
                    new_blk[r] = new
        else:
            write = xp.asarray(plan.write_idx)
            gather = xp.asarray(plan.gather_idx)
            keep = None if plan.keep is None else xp.asarray(plan.keep)
            for r in range(R):
                widx = write[r]
                if plan.k == 1:
                    means = dev[gather[r]]
                else:
                    means = dev[gather[r]].mean(axis=1)
                old = dev[widx]
                new = alpha * old + beta * means
                if keep is not None:
                    kr = keep[r]
                    new = xp.where(kr, new, old)
                    if record:
                        old_blk[r] = xp.where(kr, old, 0.0)
                        new_blk[r] = xp.where(kr, new, 0.0)
                else:
                    if record:
                        old_blk[r] = old
                        new_blk[r] = new
                dev[widx] = new
        if not record:
            return None
        out = self._to_host(old_blk).copy(), self._to_host(new_blk).copy()
        # Detection mode may rewind over-stepped rounds on the host, so
        # hand authority back immediately.
        self.sync_host(flat)
        return out


#: Effective kernel name -> block executor (stateless executors only;
#: ``"cupy"`` needs a per-batch :class:`ArrayApiBlockExecutor` — use
#: :func:`make_block_executor`).
BLOCK_EXECUTORS = {
    "fused": run_block_fused,
    "jit": run_block_jit,
    "jit-par": run_block_jit_par,
}


def make_block_executor(kernel: str):
    """Block executor for an *effective* kernel name (``None`` = per-round).

    The single constructor the batch models use: stateless function for
    the fused/jit family, a fresh device-mirror instance for
    ``"cupy"``, ``None`` for the legacy ``"numpy"`` path.
    """
    if kernel == "cupy":
        return ArrayApiBlockExecutor()
    return BLOCK_EXECUTORS.get(kernel)
