"""Replicated simulation and moment estimation.

``sample_f_values`` draws i.i.d. realisations of the convergence value
``F`` (one full run to consensus per replica); ``sample_t_eps`` draws
realisations of the convergence time.  Both spawn independent child RNGs
from a single experiment seed, so results are reproducible and replicas
are statistically independent.  ``estimate_moments`` turns a sample into
point estimates with bootstrap confidence intervals — the variance CI is
what EXP-T222 compares against the Proposition 5.8 envelope.

Both samplers accept ``engine="batch"`` (the default) to route the
replica budget through :mod:`repro.engine`, which simulates the whole
batch as one vectorized ``(B, n)`` matrix — 1–2 orders of magnitude
faster per replica.  ``engine="loop"`` keeps the original one-process-
per-replica path, which remains the correctness oracle; the batch path
silently falls back to it when ``make_process`` builds something the
engine cannot describe (a custom process subclass, or per-replica
variation beyond the seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.base import AveragingProcess
from repro.core.convergence import measure_t_eps, run_to_consensus
from repro.engine.kernels import validate_kernel
from repro.exceptions import ParameterError
from repro.rng import SeedLike, as_generator, spawn


def validate_engine(engine: str, allow_exact: bool = False) -> str:
    """Check an ``engine=`` selection.

    The single home of the validation every engine-switchable sampler
    and verification check shares.  ``"batch"`` and ``"loop"`` are the
    Monte-Carlo engines; samplers with an analytic backend (currently
    :func:`sample_meeting_times`) additionally accept ``"exact"`` and
    pass ``allow_exact=True``.
    """
    choices = ("batch", "loop", "exact") if allow_exact else ("batch", "loop")
    if engine not in choices:
        raise ParameterError(
            f"engine must be one of {', '.join(map(repr, choices))}, "
            f"got {engine!r}"
        )
    return engine


def replicate(
    make_process: Callable[[np.random.Generator], AveragingProcess],
    run_one: Callable[[AveragingProcess], float],
    replicas: int,
    seed: SeedLike = None,
) -> np.ndarray:
    """Run ``replicas`` independent simulations; return their statistics.

    ``make_process`` receives a fresh child generator per replica;
    ``run_one`` maps a process to a scalar outcome.
    """
    if replicas < 1:
        raise ParameterError(f"replicas must be positive, got {replicas}")
    outcomes = np.empty(replicas)
    for i, rng in enumerate(spawn(seed, replicas)):
        outcomes[i] = run_one(make_process(rng))
    return outcomes


def _derive_spec(
    make_process: Callable[[np.random.Generator], AveragingProcess],
    seed: SeedLike,
):
    """Derive a batch :class:`~repro.engine.driver.EngineSpec` or ``None``.

    The factory is probed twice with distinct child generators; if the
    two processes disagree on anything but their seed (different initial
    vectors, graphs or parameters — e.g. randomised per-replica starts),
    the configuration is not batchable and the caller falls back to the
    loop engine.
    """
    from repro.engine.driver import EngineSpec

    probe_a, probe_b = (make_process(rng) for rng in spawn(seed, 2))
    try:
        spec_a = EngineSpec.from_process(probe_a)
        spec_b = EngineSpec.from_process(probe_b)
    except ParameterError:
        return None
    return spec_a if spec_a == spec_b else None


def _resolve_engine(
    make_process: Callable[[np.random.Generator], AveragingProcess],
    seed: SeedLike,
    engine: str,
    cache_dir: Optional[str],
    kernel: str = "auto",
):
    """Validate ``engine``/``kernel`` and resolve the batch route, if any.

    Returns ``(spec, cache)`` when the batch engine applies, or
    ``(None, None)`` when the loop engine was requested or the factory
    is not batchable.  ``kernel`` selects the stepping kernel of the
    batch engine (:mod:`repro.engine.kernels`); the loop engine
    ignores it.
    """
    validate_engine(engine)
    validate_kernel(kernel)
    if engine != "batch":
        return None, None
    spec = _derive_spec(make_process, seed)
    if spec is None:
        return None, None
    if kernel != spec.kernel:
        from dataclasses import replace

        spec = replace(spec, kernel=kernel)
    from repro.engine.cache import ResultCache

    return spec, ResultCache(cache_dir) if cache_dir else None


def sample_f_values(
    make_process: Callable[[np.random.Generator], AveragingProcess],
    replicas: int,
    seed: SeedLike = None,
    discrepancy_tol: float = 1e-8,
    max_steps: int = 50_000_000,
    engine: str = "batch",
    processes: int = 1,
    cache_dir: Optional[str] = None,
    kernel: str = "auto",
) -> np.ndarray:
    """I.i.d. samples of the convergence value ``F``.

    ``engine="batch"`` (default) vectorises the whole replica set;
    ``engine="loop"`` runs one process per replica.  ``kernel``,
    ``processes`` and ``cache_dir`` apply to the batch engine only: the
    first selects the stepping kernel (fused multi-round blocks, their
    compiled C loop, or the legacy per-round path — see
    :mod:`repro.engine.kernels`), the second fans replica shards across
    worker processes, the third memoises finished sample arrays on disk
    (see :class:`repro.engine.cache.ResultCache`).
    """
    spec, cache = _resolve_engine(
        make_process, seed, engine, cache_dir, kernel
    )
    if spec is not None:
        from repro.engine.driver import sample_f_batch

        return sample_f_batch(
            spec,
            replicas,
            seed=seed,
            discrepancy_tol=discrepancy_tol,
            max_steps=max_steps,
            processes=processes,
            cache=cache,
        )

    def run_one(process: AveragingProcess) -> float:
        return run_to_consensus(
            process, discrepancy_tol=discrepancy_tol, max_steps=max_steps
        ).value

    return replicate(make_process, run_one, replicas, seed)


def sample_t_eps(
    make_process: Callable[[np.random.Generator], AveragingProcess],
    epsilon: float,
    replicas: int,
    seed: SeedLike = None,
    max_steps: int = 50_000_000,
    engine: str = "batch",
    processes: int = 1,
    cache_dir: Optional[str] = None,
    kernel: str = "auto",
) -> np.ndarray:
    """I.i.d. samples of the convergence time ``T_eps``.

    Engine and kernel selection work exactly as in
    :func:`sample_f_values`.
    """
    spec, cache = _resolve_engine(
        make_process, seed, engine, cache_dir, kernel
    )
    if spec is not None:
        from repro.engine.driver import sample_t_eps_batch

        return sample_t_eps_batch(
            spec,
            epsilon,
            replicas,
            seed=seed,
            max_steps=max_steps,
            processes=processes,
            cache=cache,
        )

    def run_one(process: AveragingProcess) -> float:
        return float(measure_t_eps(process, epsilon, max_steps))

    return replicate(make_process, run_one, replicas, seed)


def sample_meeting_times(
    graph,
    replicas: int,
    seed: SeedLike = None,
    alpha: float = 0.0,
    max_steps: int = 100_000_000,
    engine: str = "batch",
    processes: int = 1,
    cache_dir: Optional[str] = None,
    shard_size: Optional[int] = None,
) -> np.ndarray:
    """I.i.d. samples of the coalescing walks' full coalescence time.

    The dual-side sampler: one walk starts on every node, walks that
    meet merge (laziness ``alpha``), and each replica reports the time
    until one walk remains — the classical voter-dual quantity the
    Section-5 machinery generalises.  ``engine="batch"`` runs all
    replicas as one :class:`~repro.engine.dual.BatchCoalescing` batch,
    sharded / multiprocessed / disk-cached exactly like
    :func:`sample_f_values`; ``engine="loop"`` runs one scalar
    :class:`~repro.dual.CoalescingWalks` per replica (the oracle);
    ``engine="exact"`` skips sampling entirely and returns the
    absorbing-chain expectation
    (:func:`repro.theory.absorbing.exact_coalescence_time`) repeated
    ``replicas`` times, so downstream moment code sees a constant
    column (zero-variance) at the true mean.

    ``alpha == 0`` on a bipartite graph is rejected with a
    :class:`~repro.exceptions.ParameterError` for every engine: the
    non-lazy coupling inherits the product chain's two-colour parity
    obstruction, which voids the meeting-time guarantees the sampler
    exists to measure (and the synchronous variants deadlock outright,
    burning the whole ``max_steps`` budget before dying in
    ``run_to_coalescence``).  Pass any ``alpha > 0`` to restore
    aperiodicity.
    """
    validate_engine(engine, allow_exact=True)
    if replicas < 1:
        raise ParameterError(f"replicas must be positive, got {replicas}")
    from repro.graphs.adjacency import Adjacency
    from repro.graphs.properties import is_bipartite

    adjacency = (
        graph if isinstance(graph, Adjacency) else Adjacency.from_graph(graph)
    )
    if alpha == 0.0 and is_bipartite(adjacency):
        raise ParameterError(
            "alpha=0.0 on a bipartite graph parity-locks walk pairs that "
            "start at odd distance (the two-colour invariant of the "
            "non-lazy coupling) — meeting times are not well-defined; "
            "use alpha > 0 (any laziness restores aperiodicity)"
        )
    if engine == "exact":
        from repro.theory.absorbing import exact_coalescence_time

        expectation = exact_coalescence_time(adjacency, alpha=alpha)
        return np.full(replicas, expectation)
    if engine == "batch":
        from repro.engine.cache import ResultCache
        from repro.engine.dual import DualSpec, sample_coalescence_times

        spec = DualSpec(kind="coalescing", adjacency=adjacency, alpha=alpha)
        cache = ResultCache(cache_dir) if cache_dir else None
        return sample_coalescence_times(
            spec,
            replicas,
            seed=seed,
            max_steps=max_steps,
            shard_size=shard_size,
            processes=processes,
            cache=cache,
        )

    from repro.dual.coalescing import CoalescingWalks

    times = np.empty(replicas)
    for i, rng in enumerate(spawn(seed, replicas)):
        walks = CoalescingWalks(adjacency, alpha=alpha, seed=rng)
        times[i] = walks.run_to_coalescence(max_steps=max_steps)
    return times


@dataclass(frozen=True)
class MomentEstimate:
    """Point estimates with bootstrap confidence intervals.

    ``variance`` is the unbiased sample variance; the CI endpoints come
    from a percentile bootstrap with ``bootstrap_samples`` resamples.
    ``skewness``/``kurtosis_excess`` support the higher-moment future-work
    experiment (EXP-MOM).
    """

    count: int
    mean: float
    mean_ci: tuple[float, float]
    variance: float
    variance_ci: tuple[float, float]
    skewness: float
    kurtosis_excess: float

    def variance_within(self, lower: float, upper: float) -> bool:
        """Whether the variance CI intersects ``[lower, upper]``."""
        lo, hi = self.variance_ci
        return hi >= lower and lo <= upper


def estimate_moments(
    sample: Sequence[float] | np.ndarray,
    confidence: float = 0.95,
    bootstrap_samples: int = 2_000,
    seed: SeedLike = None,
) -> MomentEstimate:
    """Estimate mean/variance/skewness/kurtosis with bootstrap CIs."""
    data = np.asarray(sample, dtype=np.float64)
    if data.ndim != 1 or len(data) < 2:
        raise ParameterError("sample must be 1-D with at least 2 observations")
    if not 0.0 < confidence < 1.0:
        raise ParameterError(f"confidence must be in (0, 1), got {confidence}")
    rng = as_generator(seed)
    n = len(data)

    mean = float(data.mean())
    variance = float(data.var(ddof=1))
    centered = data - mean
    std = float(data.std(ddof=0))
    if std > 0:
        skewness = float(np.mean(centered**3) / std**3)
        kurtosis_excess = float(np.mean(centered**4) / std**4 - 3.0)
    else:
        skewness = 0.0
        kurtosis_excess = 0.0

    indices = rng.integers(0, n, size=(bootstrap_samples, n))
    resamples = data[indices]
    boot_means = resamples.mean(axis=1)
    boot_vars = resamples.var(axis=1, ddof=1)
    tail = (1.0 - confidence) / 2.0
    mean_ci = (
        float(np.quantile(boot_means, tail)),
        float(np.quantile(boot_means, 1.0 - tail)),
    )
    variance_ci = (
        float(np.quantile(boot_vars, tail)),
        float(np.quantile(boot_vars, 1.0 - tail)),
    )
    return MomentEstimate(
        count=n,
        mean=mean,
        mean_ci=mean_ci,
        variance=variance,
        variance_ci=variance_ci,
        skewness=skewness,
        kurtosis_excess=kurtosis_excess,
    )
