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
    A C loop (``_blockloop.c``) that consumes the same pre-drawn
    variates and precomputed index blocks in one call per block, so a
    round costs no NumPy dispatch at all.  It is compiled on first use
    with the system C compiler and loaded through ``ctypes`` (see
    :func:`load_blockloop`).  It covers the packed path for every ``k``
    and the lazy ``k = 1`` path; lazy ``k > 1`` runs the fused kernel
    per call.  Without a compiler ``"jit"`` falls back to ``"fused"``.

``kernel="auto"`` resolves to ``"jit"`` when the compiled loop loads and
to ``"fused"`` otherwise.

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
#: ``"auto"`` — ``"jit"`` when the compiled loop loads, else ``"fused"``;
#: ``"numpy"`` — legacy per-round reference path (its own RNG stream);
#: ``"fused"`` — pure-NumPy block kernel, always available;
#: ``"jit"`` — compiled C block loop, bit-identical to ``"fused"``
#: (visible fused fallback without a C compiler).
KERNEL_CHOICES = ("auto", "numpy", "fused", "jit")

#: Default rounds per block: large enough to amortise the block plan to
#: ~0.02 us/round, small enough that run_until_phi over-steps at most
#: this many rounds past each replica's crossing (times stay exact).
DEFAULT_BLOCK_ROUNDS = 256

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
    """One-time visible degrade of an explicit ``"jit"`` request."""
    global _FALLBACK_WARNED
    METRICS.count("engine.kernel_fallback")
    if not _FALLBACK_WARNED:
        _FALLBACK_WARNED = True
        warnings.warn(
            f"kernel={name!r} requested but the compiled block loop is "
            "unavailable (no C compiler, or its build failed); "
            "falling back to the fused NumPy kernel "
            "(this warning is emitted once per process)",
            RuntimeWarning,
            stacklevel=3,
        )


def resolve_kernel(name: str) -> str:
    """Resolve a requested kernel name to the effective one.

    ``"auto"`` resolves to ``"jit"`` when the compiled block loop loads
    (building it on first use) and to ``"fused"`` otherwise.  An
    explicit ``"jit"`` request degrades to ``"fused"`` without it — a C
    compiler is an optional accelerator, never a requirement — but
    *visibly*: a one-time ``RuntimeWarning`` plus the
    ``engine.kernel_fallback`` counter, so provenance records never
    silently report a backend that did not run.
    """
    validate_kernel(name)
    if name in ("numpy", "fused"):
        return name
    if _blockloop() is not None:
        return "jit"
    if name == "jit":
        _warn_fallback(name)
    return "fused"


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

    @property
    def nbytes(self) -> int:
        """Bytes held by the plan's arrays (``write_idx`` is a view into
        ``cat_idx`` on the packed path, so it is counted once)."""
        arrays = [self.cat_idx, self.coef, self.gather_idx, self.weights, self.keep]
        if self.cat_idx is None:
            arrays.append(self.write_idx)
        return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))


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
# Compiled block loop
# ----------------------------------------------------------------------
_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_blockloop.c")

#: -ffp-contract=off forbids fused multiply-adds, which would round once
#: where NumPy rounds twice and break bit-identity with "fused".
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def load_blockloop(compiler=None, cache_dir=None):
    """Build (once per source and compiler) and load the C block loops.

    The shared library is named by the sha256 of the source, the compiler
    command and the flags, and lives in a per-user cache directory
    (``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``, mode 0700).  A
    build compiles to a temporary name in that directory and publishes it
    with ``os.replace``, so concurrent workers never load a half-written
    file; later loads reuse the file without compiling.  ``compiler`` (an
    argument list, default ``sysconfig``'s ``CC``) and ``cache_dir``
    override the defaults.  Returns the ``ctypes`` library, or ``None``
    when there is no compiler or the build or load fails.
    """
    import ctypes
    import hashlib
    import shlex
    import subprocess
    import sysconfig
    import tempfile

    if compiler is None:
        compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if cache_dir is None:
        cache_dir = os.path.join(
            os.environ.get("XDG_CACHE_HOME")
            or os.path.join(os.path.expanduser("~"), ".cache"),
            "repro",
        )
    command = [*compiler, *_CFLAGS]
    try:
        with open(_SOURCE, "rb") as fh:
            source = fh.read()
        digest = hashlib.sha256(
            source + b"\0" + "\0".join(command).encode()
        ).hexdigest()
        os.makedirs(cache_dir, mode=0o700, exist_ok=True)
        info = os.stat(cache_dir)
        if info.st_uid != os.getuid() or info.st_mode & 0o022:
            return None  # another user could plant a library here
        path = os.path.join(cache_dir, f"blockloop-{digest}.so")
        if not os.path.exists(path):
            fd, tmp = tempfile.mkstemp(
                prefix=".blockloop-", suffix=".so", dir=cache_dir
            )
            os.close(fd)
            try:
                subprocess.run(
                    [*command, "-o", tmp, _SOURCE],
                    check=True, capture_output=True, timeout=120,
                )
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        library = ctypes.CDLL(path)
        ptr, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
        library.block_cat.argtypes = [ptr, i64, ptr, ptr, i64, i64, i64, ptr, ptr, ptr]
        library.block_lazy.argtypes = [
            ptr, i64, ptr, ptr, ptr, f64, f64, i64, i64, ptr, ptr, ptr,
        ]
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None
    return library


_UNLOADED = object()
#: The loaded block-loop library, ``None`` when unavailable; built or
#: loaded on the first ``resolve_kernel`` of ``"auto"`` or ``"jit"``.
_LOOP = _UNLOADED


def _blockloop():
    global _LOOP
    if _LOOP is _UNLOADED:
        _LOOP = load_blockloop()
    return _LOOP


def _c_array(array, dtype, shape) -> bool:
    """Whether ``array`` can be handed to C as a flat ``dtype`` buffer."""
    return (
        isinstance(array, np.ndarray)
        and array.dtype == dtype
        and array.shape == shape
        and array.flags.c_contiguous
    )


def run_block_jit(
    flat: np.ndarray, plan: BlockPlan, alpha: float, record: bool
) -> tuple[np.ndarray, np.ndarray] | None:
    """Execute one block with the compiled C loop (fused fallback).

    Consumes the same precomputed plan — hence the same pre-drawn
    variates in the same order — as :func:`run_block_fused`, and
    performs the identical IEEE operations per entry, so trajectories
    are bit-identical across the two kernels at a fixed seed.  Shapes
    without a compiled loop (lazy ``k > 1``, whose neighbour mean
    follows NumPy's reduction order), plans whose arrays are not
    C-contiguous of the expected dtype, and environments without the
    library fall back to the fused kernel per call.
    """
    loop = _blockloop()
    R, A = plan.write_idx.shape
    if loop is None or not (
        _c_array(flat, np.float64, flat.shape) and flat.flags.writeable
    ):
        return run_block_fused(flat, plan, alpha, record)
    if plan.cat_idx is not None:
        width = (plan.k + 1) * A
        arrays = (plan.cat_idx, plan.coef)
        layout = ((np.int64, (R, width)), (np.float64, (width,)))
    elif plan.k == 1 and plan.keep is not None:
        # Column-sliced draws can leave these Fortran-ordered; the C
        # loop reads contiguous copies (the plan itself is unchanged).
        arrays = tuple(
            np.ascontiguousarray(array)
            for array in (plan.write_idx, plan.gather_idx, plan.keep)
        )
        layout = ((np.int64, (R, A)), (np.int64, (R, A)), (np.bool_, (R, A)))
    else:
        return run_block_fused(flat, plan, alpha, record)
    if not all(
        _c_array(array, dtype, shape)
        for array, (dtype, shape) in zip(arrays, layout)
    ):
        return run_block_fused(flat, plan, alpha, record)
    # Plain mode needs one row of scratch; record mode writes each
    # round's new values straight into new_blk.
    scratch = None if record else np.empty(A)
    old_blk = np.empty((R, A)) if record else None
    new_blk = np.empty((R, A)) if record else None
    out = tuple(
        None if array is None else array.ctypes.data
        for array in (scratch, old_blk, new_blk)
    )
    pointers = [array.ctypes.data for array in arrays]
    if plan.cat_idx is not None:
        status = loop.block_cat(
            flat.ctypes.data, flat.size, *pointers, R, A, plan.k, *out
        )
    else:
        status = loop.block_lazy(
            flat.ctypes.data, flat.size, *pointers, alpha, 1.0 - alpha, R, A,
            *out,
        )
    if status:
        indices = arrays[:1] if plan.cat_idx is not None else arrays[:2]
        low = min(int(index.min()) for index in indices)
        high = max(int(index.max()) for index in indices)
        raise IndexError(
            f"block plan index out of range for {flat.size} entries "
            f"(min {low}, max {high})"
        )
    return (old_blk, new_blk) if record else None


#: Effective kernel name -> block executor.
BLOCK_EXECUTORS = {
    "fused": run_block_fused,
    "jit": run_block_jit,
}


def make_block_executor(kernel: str):
    """Block executor for an *effective* kernel name (``None`` = per-round).

    The single constructor the batch models use: the fused or jit block
    function, ``None`` for the legacy ``"numpy"`` path.
    """
    return BLOCK_EXECUTORS.get(kernel)
