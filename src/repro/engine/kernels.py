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
    A compiled C loop (``_blockloop.c``), built on first use with the
    system C compiler and loaded through ``ctypes`` (see
    :func:`load_blockloop`).  For node ``k = 1``, node ``k = 2``, the
    edge model and lazy ``k = 1`` (:class:`BlockStepper`) a block is one
    C call that draws the block's uniforms from the batch generator's
    bit stream, decodes the selections from them with the fused
    decode's double operations and then runs the rounds — no uniform or
    index array is built in NumPy at all — and a run to consensus is
    one C call per converging check (blocks and witness checks).  Every
    other block (``k > 2``, lazy ``k > 1``, and every shape while
    selections are recorded) is a fused block: NumPy decode into a
    :class:`BlockPlan`, executed by :func:`run_block_fused`, the one
    plan executor.  Without a compiler ``"jit"`` falls back to
    ``"fused"``.

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
neighbours' variates.  The jit kernel's C loop draws the same doubles
itself, in the same order: it calls the bit generator's
``next_double`` (``rng.bit_generator.ctypes``, under the bit
generator's lock), the function ``Generator.random`` calls once per
double, so a jit block consumes exactly the stream a fused block's
``rng.random((R, B))`` consumes.  Per shape the draw is:

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

:func:`run_block_fused` receives a fully precomputed :class:`BlockPlan`
and only performs the value-dependent work; :class:`BlockStepper`
draws, decodes and executes in one call.  In record mode both return the
per-round ``(old, new)`` values of every updated entry, from which
:func:`fold_block` derives the exact per-round moment increments
``(d1, d2) = (pi_u * (new - old), d1 * (new + old))``, folds them and
finds each replica's first crossing — chunked convergence detection,
one compiled pass for every block kernel (see
``BatchAveragingProcess.run_until_phi`` for the backdating math).
Fused and jit kernels perform bit-identical IEEE operations on the same
uniforms, so a fixed seed yields bit-identical trajectories across the
two; the fused NumPy decode is the jit decode's oracle.
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
    if blockloop() is not None:
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


def _check_plan_indices(flat: np.ndarray, *indices: np.ndarray) -> None:
    """Raise ``IndexError`` unless every index lies in ``[0, flat.size)``.

    Viewed as unsigned, a negative index is huge, so a single max per
    array covers both bounds.
    """
    for index in indices:
        if index.size and index.view(np.uint64).max() >= flat.size:
            raise IndexError(
                f"block plan index out of range for {flat.size} entries "
                f"(min {index.min()}, max {index.max()})"
            )


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
        # One range check for the whole block, before any write.  Every
        # index is then in range and the per-round gathers can use
        # mode="wrap" (the identity here), which writes straight into
        # `out`; the default mode="raise" checks each index again and
        # buffers the result.
        _check_plan_indices(flat, cat_idx)
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

    # General path: lazy masking and/or k-neighbour means, checked as a
    # whole before the first write like the fast path.
    _check_plan_indices(flat, plan.write_idx, plan.gather_idx)
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
    build compiles to a temporary name in that directory, publishes it
    with ``os.replace``, so concurrent workers never load a half-written
    file, and then deletes every other ``blockloop-*.so`` there (the
    libraries of earlier sources or compilers); later loads reuse the
    file without compiling.  A library that disappears before it is
    loaded (pruned by another build) is a cache miss: it is built again.
    ``compiler`` (an argument list, default ``sysconfig``'s ``CC``) and
    ``cache_dir`` override the defaults.  Returns the ``ctypes`` library,
    or ``None`` when there is no compiler or the build or load fails.
    """
    import ctypes
    import hashlib
    import shlex
    import subprocess
    import sysconfig

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
        for attempt in range(2):
            if not os.path.exists(path):
                _build(command, cache_dir, path)
            try:
                library = ctypes.CDLL(path)
                break
            except OSError:
                if attempt or os.path.exists(path):
                    raise
        ptr, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
        library.block_step.argtypes = [
            ptr, ptr, ptr, ptr, ptr, i64, i64, ptr, ptr, ptr, ptr, ptr, ptr,
            ptr,
        ]
        library.consensus_check.argtypes = [
            ptr, i64, i64, ptr, i64, f64, ptr, ptr, ptr,
        ]
        library.consensus_check.restype = i64
        library.consensus_run.argtypes = [
            ptr, ptr, ptr, ptr, ptr, i64, ptr, ptr, ptr, i64, i64, i64, f64,
            ptr, ptr, ptr, i64, ptr, ptr,
        ]
        library.detect_block.argtypes = [
            ptr, ptr, i64, i64, ptr, i64, f64, i64, f64, ptr, ptr, ptr, ptr,
            ptr, ptr,
        ]
        for entry in (library.block_step, library.consensus_run,
                      library.detect_block):
            entry.restype = ctypes.c_int
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None
    return library


def _build(command, cache_dir, path) -> None:
    """Compile the loop to ``path`` and delete the superseded libraries."""
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(prefix=".blockloop-", suffix=".so", dir=cache_dir)
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
    published = os.path.basename(path)
    for name in os.listdir(cache_dir):
        if (name.startswith("blockloop-") and name.endswith(".so")
                and name != published):
            try:
                os.unlink(os.path.join(cache_dir, name))
            except OSError:
                pass  # already pruned by a concurrent build


_UNLOADED = object()
#: The loaded block-loop library, ``None`` when unavailable; built or
#: loaded on the first :func:`blockloop` call (``resolve_kernel`` of
#: ``"auto"`` or ``"jit"``, or the construction of a block-kernel batch).
_LOOP = _UNLOADED


def blockloop():
    """The process's block-loop library (see :func:`load_blockloop`),
    built or loaded on the first call; ``None`` when unavailable."""
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


#: The ctypes mirror of ``_blockloop.c``'s ``struct model``, defined on
#: first use (see :func:`_model_struct`).
_MODEL = None


def _model_struct():
    """The ctypes ``Structure`` laid out as ``struct model`` in C."""
    global _MODEL
    if _MODEL is None:
        import ctypes

        i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p

        class Model(ctypes.Structure):
            _fields_ = [
                ("n", i64), ("replicas", i64), ("k", i64), ("lazy", i64),
                ("table", ptr), ("offsets", ptr),
                ("table_size", i64), ("degrees", ptr), ("tails", ptr),
                ("heads", ptr), ("edges", i64), ("alpha", f64),
                ("beta_k", f64), ("pi", ptr),
            ]

        _MODEL = Model
    return _MODEL


class BlockStepper:
    """The jit kernel's one-call blocks: draw, decode and execute in C.

    Serves one batch of node ``k = 1``, node ``k = 2``, edge or lazy
    ``k = 1`` replicas.  A block is one ``block_step`` call that draws
    the block's ``(R, B)`` uniforms from the batch generator's bit
    stream — NumPy's ``next_double``, the function ``rng.random`` calls
    once per double, in the same C order, so the stream is the fused
    kernel's — decodes the active columns, range-checks every decoded
    index and runs the rounds.  :meth:`consensus` runs
    ``run_to_consensus_batch``'s blocks and witness checks in one
    ``consensus_run`` call.  The buffers (the decoded indices in the
    packed ``cat_idx`` layout of :class:`BlockPlan`, lazy coins, pi
    weights, the record outputs and the check flags) belong to the
    stepper and are reused from block to block, growing only when a
    block needs more.  :meth:`bind` installs a graph snapshot's sampling
    source.

    :attr:`nbytes` is the plan memory held — decoded indices, coins and
    weights; the record outputs and the row scratch are the executor's,
    as for fused — and is reported to ``engine.plan_peak_bytes``
    whenever it grows.  No uniforms are buffered: they go straight from
    the bit generator into the decode.
    """

    _PLAN_BUFFERS = ("index", "keep", "weights")

    def __init__(self, loop, replicas: int, n: int, k: int, lazy: bool,
                 alpha: float) -> None:
        import ctypes

        self._step = loop.block_step
        self._consensus = loop.consensus_run
        self.replicas = replicas
        self.n = n
        self.k = k
        self.lazy = lazy
        self._model = _model_struct()(
            n=n, replicas=replicas, k=k, lazy=int(lazy), alpha=alpha,
            beta_k=(1.0 - alpha) / k,
        )
        self._model_ptr = ctypes.addressof(self._model)
        self._buffers: dict = {}
        self._pointers: dict = {}
        self.nbytes = 0
        self._flat = self._rows = None
        self._flat_ptr = self._rows_ptr = None
        self._rng = self._lock = None
        self._draw: tuple = ()
        self._has_pi = False
        self.stamp = np.zeros(1)
        self._stamp_ptr = self.stamp.ctypes.data
        self.stats = np.zeros(4, np.int64)
        self._stats_ptr = self.stats.ctypes.data
        self.times = np.zeros(3)
        self._times_ptr = self.times.ctypes.data

    def bind(self, *, degrees=None, table=None, offsets=None,
             tails=None, heads=None, pi=None) -> None:
        """Install a snapshot's sampling source.

        The node model passes its ``degrees`` and the CSR arrays: the
        ``table`` of concatenated neighbour lists and their ``offsets``;
        the edge model passes ``tails`` and ``heads``.  ``pi`` (irregular
        graphs only) yields the record-mode weights.  Every array must be a
        C-contiguous vector of its dtype and of the length the C loop
        indexes (``table`` is bounded by its own size): the loop reads
        them in place.
        """
        edges = None if tails is None else tails.size
        arrays = {"degrees": (degrees, self.n), "table": (table, None),
                  "offsets": (offsets, self.n + 1), "tails": (tails, edges),
                  "heads": (heads, edges)}
        for name, (array, size) in arrays.items():
            if array is not None and not _c_array(
                array, np.int64, (array.size if size is None else size,)
            ):
                raise ParameterError(
                    f"{name} must be a C-contiguous int64 vector"
                    + ("" if size is None else f" of length {size}")
                )
        if pi is not None and not _c_array(pi, np.float64, (self.n,)):
            raise ParameterError(
                f"pi must be a C-contiguous float64 vector of length {self.n}"
            )
        model = self._model
        for name, (array, _) in arrays.items():
            setattr(model, name, _pointer(array))
        model.table_size = 0 if table is None else table.size
        model.edges = 0 if tails is None else tails.size
        model.pi = _pointer(pi)
        # The pointers are only valid while the arrays live.
        self._arrays = (arrays, pi)
        self._has_pi = pi is not None

    def _buffer(self, name: str, count: int, dtype):
        """A reusable buffer of at least ``count`` entries and its address."""
        array = self._buffers.get(name)
        if array is None or array.size < count:
            array = self._buffers[name] = np.empty(count, dtype)
            self._pointers[name] = array.ctypes.data
            if name in self._PLAN_BUFFERS:
                self.nbytes = sum(
                    self._buffers[plan].nbytes for plan in self._PLAN_BUFFERS
                    if plan in self._buffers
                )
                METRICS.peak("engine.plan_peak_bytes", self.nbytes)
        return array, self._pointers[name]

    def _target(self, flat, rows) -> None:
        """Check and cache the state and active-row addresses."""
        if flat is not self._flat:
            if not (_c_array(flat, np.float64, (self.replicas * self.n,))
                    and flat.flags.writeable):
                raise ParameterError("flat must be a writeable float64 vector")
            self._flat, self._flat_ptr = flat, flat.ctypes.data
        if rows is not self._rows:
            full = rows.size == self.replicas
            if not (full or _c_array(rows, np.int64, (rows.size,))):
                raise ParameterError("rows must be a C-contiguous int64 vector")
            self._rows, self._rows_ptr = rows, None if full else rows.ctypes.data

    def _generator(self, rng):
        """Cache ``rng``'s bit-generator interface; returns its lock."""
        if rng is not self._rng:
            import ctypes

            bit_generator = rng.bit_generator
            interface = bit_generator.ctypes
            self._draw = (
                interface.state_address,
                ctypes.cast(interface.next_double, ctypes.c_void_p).value,
            )
            self._rng, self._lock = rng, bit_generator.lock
        return self._lock

    def run(self, rng, flat, rows, rounds: int, record: bool, timed: bool):
        """Advance ``rows`` (increasing replica ids) of ``flat`` by one
        ``rounds``-round block, drawing its uniforms from ``rng``.

        Returns ``None`` in plain mode, else ``(write_idx, keep,
        weights, old, new)`` as ``(R, A)`` views of the stepper's
        buffers (``keep`` and ``weights`` ``None`` when the shape has
        none), valid until the next block.  With ``timed``, ``stamp[0]``
        receives the ``perf_counter`` time at which decoding ended.
        """
        A = rows.size
        cells = rounds * A
        width = (self.k + 1) * A
        self._target(flat, rows)
        index, index_ptr = self._buffer("index", rounds * width, np.int64)
        keep = keep_ptr = weights = weights_ptr = None
        if self.lazy:
            keep, keep_ptr = self._buffer("keep", cells, np.uint8)
        if record:
            if self._has_pi:
                weights, weights_ptr = self._buffer("weights", cells, np.float64)
            old, old_ptr = self._buffer("old", cells, np.float64)
            new, new_ptr = self._buffer("new", cells, np.float64)
            scratch_ptr = None
        else:
            old_ptr = new_ptr = None
            _, scratch_ptr = self._buffer("scratch", A, np.float64)
        with self._generator(rng):
            status = self._step(
                self._model_ptr, self._flat_ptr, *self._draw, self._rows_ptr,
                A, rounds, index_ptr, keep_ptr, weights_ptr, scratch_ptr,
                old_ptr, new_ptr, self._stamp_ptr if timed else None,
            )
        if status:
            raise self._out_of_range()
        if not record:
            return None
        shape = (rounds, A)
        return (
            index[: rounds * width].reshape(rounds, width)[:, self.k * A:],
            None if keep is None else keep[:cells].view(np.bool_).reshape(shape),
            None if weights is None else weights[:cells].reshape(shape),
            old[:cells].reshape(shape),
            new[:cells].reshape(shape),
        )

    def consensus(self, rng, flat, rows, block: int, check_every: int,
                  budget: int, tol: float, hi, lo, once: bool, timed: bool):
        """Run blocks and witness checks in one ``consensus_run`` call.

        Intervals of ``check_every`` rounds (the last cut to the
        ``budget`` of rounds) run in blocks of at most ``block`` rounds
        and end in the witness check of ``run_to_consensus_batch``, which
        refreshes the ``(B,)`` witness nodes ``hi``/``lo`` in place.  The
        call returns after the first check that flags a converged row,
        when the budget is spent or, with ``once``, after one check.
        Returns the last check's ``(A,)`` boolean mask of converged rows.
        :attr:`stats` receives the rounds, blocks and checks run and the
        rows scanned, also when a decoded index out of range raises
        ``IndexError`` (the blocks before it ran); with ``timed``,
        :attr:`times` receives the seconds spent drawing and decoding,
        executing, and checking.
        """
        self.stats[:] = 0
        self.times[:] = 0.0
        A = rows.size
        self._target(flat, rows)
        for witness in (hi, lo):
            if not (_c_array(witness, np.int64, (self.replicas,))
                    and witness.flags.writeable):
                raise ParameterError(
                    "witnesses must be writeable int64 vectors of length "
                    f"{self.replicas}"
                )
        largest = min(block, check_every, budget)
        _, index_ptr = self._buffer(
            "index", largest * (self.k + 1) * A, np.int64
        )
        keep_ptr = None
        if self.lazy:
            _, keep_ptr = self._buffer("keep", largest * A, np.uint8)
        _, scratch_ptr = self._buffer("scratch", A, np.float64)
        flags, flags_ptr = self._buffer("flags", A, np.uint8)
        with self._generator(rng):
            status = self._consensus(
                self._model_ptr, self._flat_ptr, *self._draw, self._rows_ptr,
                A, index_ptr, keep_ptr, scratch_ptr, block, check_every,
                budget, tol, hi.ctypes.data, lo.ctypes.data, flags_ptr,
                once, self._stats_ptr, self._times_ptr if timed else None,
            )
        if status:
            raise self._out_of_range()
        return flags[:A].view(np.bool_)

    def _out_of_range(self) -> IndexError:
        return IndexError(
            f"decoded selection out of range of the {self.n}-node state "
            "or its sampling source"
        )


def _pointer(array) -> int | None:
    return None if array is None else array.ctypes.data


def make_block_stepper(kernel: str, replicas: int, n: int, k: int,
                       lazy: bool, alpha: float) -> BlockStepper | None:
    """The one-call decode-and-execute path, or ``None`` where a block
    goes through a :class:`BlockPlan` and :func:`run_block_fused`:
    kernels other than ``"jit"``, ``k > 2`` and lazy ``k > 1``."""
    if kernel != "jit" or k > 2 or (lazy and k > 1):
        return None
    loop = blockloop()
    if loop is None:
        return None
    return BlockStepper(loop, replicas, n, k, lazy, alpha)


# ----------------------------------------------------------------------
# Convergence detection
# ----------------------------------------------------------------------
class FoldBuffers:
    """:func:`fold_block`'s outputs, reused from block to block.

    One per batch: ``first`` and the ``(3, A)`` crossing moments and
    last phi grow to the widest block seen, and their addresses are
    looked up once per growth rather than on every call.  Holds raw
    addresses, so a copied batch must make its own.
    """

    def __init__(self) -> None:
        self._first = np.empty(0, np.int64)
        self._out = np.empty((3, 0))
        self._pointers: tuple = ()

    def take(self, active: int):
        """``(first, out, pointers)`` views for ``active`` columns."""
        if self._first.size < active:
            self._first = np.empty(active, np.int64)
            self._out = np.empty((3, active))
            self._pointers = (
                self._first.ctypes.data, *(row.ctypes.data for row in self._out)
            )
        return self._first[:active], self._out[:, :active], self._pointers


def fold_block(old, new, weights, s1, s2, epsilon: float, scan: int,
               buffers: FoldBuffers | None = None):
    """Fold one recorded block's moment increments and find its crossings.

    ``old`` and ``new`` are a record-mode block's ``(R, A)`` written
    values, ``weights`` the written entries' pi weights (a scalar, or an
    ``(R, A)`` array), and ``s1``/``s2`` the active replicas' ``(A,)``
    pre-block moments, which are replaced in place by the post-block
    moments.  Per column the increments ``d1 = w (new - old)`` and
    ``d2 = d1 (new + old)`` are added in round order: the left fold that
    per-round checking performs.

    Returns ``(first, cross1, cross2, phi_last)``: per column, the first
    of the leading ``scan`` rounds whose ``phi = s2 - s1^2`` is
    ``<= epsilon`` (``-1`` if none; a NaN phi never counts), the moments
    just after that round (meaningful only where ``first >= 0``), and the
    last round's ``max(phi, 0)``.  With ``buffers`` the compiled pass
    writes them into those reused arrays, valid until their next fold.

    One compiled pass (``detect_block``) when the block-loop library
    loads, else the NumPy fold below; both perform the same IEEE
    operations in the same order, so their results are bit-identical.
    Arrays that are not C-contiguous float64 of those shapes also take
    the NumPy fold.
    """
    rounds, active = old.shape
    if not 0 <= scan <= rounds:
        raise ParameterError(f"scan must be in [0, {rounds}], got {scan}")
    loop = blockloop()
    scalar = not isinstance(weights, np.ndarray)
    shape = (rounds, active)
    if loop is None or not (
        _c_array(old, np.float64, shape)
        and _c_array(new, np.float64, shape)
        and (scalar or _c_array(weights, np.float64, shape))
        and _c_array(s1, np.float64, (active,)) and s1.flags.writeable
        and _c_array(s2, np.float64, (active,)) and s2.flags.writeable
    ):
        return _fold_numpy(old, new, weights, s1, s2, epsilon, scan)
    first, out, pointers = (buffers or FoldBuffers()).take(active)
    status = loop.detect_block(
        old.ctypes.data, new.ctypes.data, rounds, active,
        None if scalar else weights.ctypes.data, 0 if scalar else weights.size,
        float(weights) if scalar else 0.0, scan, epsilon, s1.ctypes.data,
        s2.ctypes.data, *pointers,
    )
    if status:  # pragma: no cover - the arguments were checked above
        raise ParameterError("detect_block rejected its arguments")
    return first, out[0], out[1], out[2]


def _fold_numpy(old, new, weights, s1, s2, epsilon, scan):
    """:func:`fold_block` in NumPy: two seeded in-place ``cumsum`` passes
    (NumPy accumulates sequentially, row after row) give the within-block
    moment trajectories, from which phi and the first crossings follow."""
    rounds, active = old.shape
    d1 = weights * (new - old)
    d2 = d1 * (new + old)
    traj1 = np.empty((rounds + 1, active))
    traj1[0] = s1
    traj1[1:] = d1
    np.cumsum(traj1, axis=0, out=traj1)
    traj2 = np.empty((rounds + 1, active))
    traj2[0] = s2
    traj2[1:] = d2
    np.cumsum(traj2, axis=0, out=traj2)
    s1[:] = traj1[-1]
    s2[:] = traj2[-1]
    phi = np.maximum(traj2[1:] - traj1[1:] ** 2, 0.0)
    below = phi[:scan] <= epsilon
    first = np.full(active, -1, dtype=np.int64)
    if scan:
        crossed = below.any(axis=0)
        first[crossed] = below.argmax(axis=0)[crossed]
    columns = np.arange(active)
    return first, traj1[first + 1, columns], traj2[first + 1, columns], phi[-1]


def make_block_executor(kernel: str):
    """Block executor for an *effective* kernel name (``None`` = per-round).

    The single constructor the batch models use: :func:`run_block_fused`
    for ``"fused"`` and for the jit kernel's planned blocks (those
    :class:`BlockStepper` does not cover), ``None`` for the legacy
    ``"numpy"`` path.
    """
    return run_block_fused if kernel in ("fused", "jit") else None
