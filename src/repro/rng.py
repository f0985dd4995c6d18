"""Random number generation utilities.

Every stochastic component of the library accepts either a seed (``int``),
an existing :class:`numpy.random.Generator`, or ``None`` (fresh OS entropy).
:func:`as_generator` normalises those three cases, and :func:`spawn` derives
independent child generators for replicated Monte-Carlo runs so that
experiments are reproducible *and* replicas are statistically independent.
"""

from __future__ import annotations

from typing import Union

import numpy as np

#: Anything accepted where randomness is needed.
SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Passing an existing generator returns it unchanged (no reseeding), so a
    caller can thread one generator through several components.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn(seed: SeedLike, count: int) -> list[np.random.Generator]:
    """Derive ``count`` independent child generators from ``seed``.

    Uses :class:`numpy.random.SeedSequence` spawning, which guarantees
    non-overlapping streams.  When ``seed`` is already a generator, children
    are derived from its bit generator's seed sequence via ``spawn`` as well.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        children = seed.bit_generator.seed_seq.spawn(count)  # type: ignore[union-attr]
        return [np.random.default_rng(c) for c in children]
    if isinstance(seed, np.random.SeedSequence):
        return [np.random.default_rng(c) for c in seed.spawn(count)]
    sequence = np.random.SeedSequence(seed)
    return [np.random.default_rng(c) for c in sequence.spawn(count)]
