"""Seeded random-number plumbing shared across the library.

Every stochastic component in this package (graph generators, CRR's rewiring
phase, node2vec walks, k-means initialisation, ...) accepts either an integer
seed, a :class:`numpy.random.Generator`, or ``None``.  :func:`ensure_rng`
normalises those three spellings into a ``Generator`` so algorithm code never
has to special-case its ``seed`` argument.

Determinism contract: two calls with the same integer seed produce identical
streams, and :func:`spawn` derives independent child generators so that two
sub-components seeded from the same parent do not share a stream.
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = ["RandomState", "check_seed", "ensure_rng", "spawn"]

#: Anything accepted where a source of randomness is required.
RandomState = Union[None, int, np.random.Generator]


def ensure_rng(seed: RandomState = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` yields a fresh nondeterministic generator, an ``int`` yields a
    deterministic one, and an existing ``Generator`` is passed through
    unchanged (so callers can thread one generator through a pipeline).
    """
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, np.random.Generator):
        return seed
    check_seed(seed)
    return np.random.default_rng(int(seed))


def check_seed(seed: RandomState) -> None:
    """Raise :class:`TypeError` unless :func:`ensure_rng` accepts ``seed``.

    Lets a boundary reject a bad seed up front without building a generator.
    """
    if seed is not None and not isinstance(seed, (int, np.integer, np.random.Generator)):
        raise TypeError(
            f"seed must be None, an int, or a numpy Generator, got {type(seed).__name__}"
        )


def spawn(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Derive ``count`` independent child generators from ``rng``.

    Used when an experiment fans out into sub-experiments that must not
    share a random stream (e.g. one generator per dataset per ``p`` value).
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    seeds = rng.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]
