"""Deterministic random-number-stream management.

Distributed NN-Descent needs *independent but reproducible* randomness on
every simulated rank (initial neighbor sampling, rho-sampling, destination
shuffles).  We derive per-rank, per-purpose streams from a root seed using
``numpy.random.SeedSequence.spawn``, which guarantees stream independence
without coordination — the same discipline real MPI codes use so that
rank counts do not silently change results.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np


def derive_rng(seed: int, *keys: int) -> np.random.Generator:
    """Create a generator from ``seed`` refined by integer ``keys``.

    ``derive_rng(seed, rank)`` and ``derive_rng(seed, rank, phase)`` give
    independent streams; calling with the same arguments always returns a
    generator producing the same sequence.
    """
    ss = np.random.SeedSequence([int(seed), *[int(k) for k in keys]])
    return np.random.default_rng(ss)


def derive_seed(seed: int, *keys: int) -> int:
    """An integer seed derived from ``seed`` and integer ``keys``, for
    APIs that take a seed rather than a generator; the same arguments
    always give the same seed."""
    ss = np.random.SeedSequence([int(seed), *[int(k) for k in keys]])
    return int(ss.generate_state(1)[0])


def spawn_rngs(seed: int, n: int) -> List[np.random.Generator]:
    """``n`` independent generators derived from one root seed."""
    root = np.random.SeedSequence(int(seed))
    return [np.random.default_rng(child) for child in root.spawn(int(n))]


class SeedSequenceFactory:
    """Hands out independent child seeds from one root, with a counter.

    Useful when the number of consumers is not known up front (e.g. one
    stream per NN-Descent iteration per rank).
    """

    def __init__(self, seed: int) -> None:
        self._root = np.random.SeedSequence(int(seed))
        self._count = 0

    def next_rng(self) -> np.random.Generator:
        """Return the next independent generator."""
        child = self._root.spawn(self._count + 1)[self._count]
        self._count += 1
        return np.random.default_rng(child)

    def rng_for(self, *keys: int) -> np.random.Generator:
        """Keyed (stateless) derivation; does not advance the counter."""
        ss = np.random.SeedSequence(
            list(self._root.entropy if isinstance(self._root.entropy, Iterable) else [self._root.entropy])
            + [int(k) for k in keys]
        )
        return np.random.default_rng(ss)

    @property
    def issued(self) -> int:
        return self._count


def permutation_of(items: Sequence, seed: int, *keys: int) -> list:
    """Deterministic permutation of ``items`` under a keyed stream.

    Used by Section 4.2's destination shuffle: the shuffle must differ
    between ranks (keys include the rank id) but be reproducible.
    """
    rng = derive_rng(seed, *keys)
    idx = rng.permutation(len(items))
    return [items[i] for i in idx]
