"""Exact sorts without stability: the keys and orders of the build's hot
path (DESIGN.md section 10, "The order rule").

numpy's default sort and argsort are unstable and several times faster
than the stable ones (``np.lexsort``, ``np.unique``, ``kind="stable"``),
but equal keys come out in an order that differs between builds of
numpy (AVX-512, AVX2, scalar).  So no result here depends on the order
of equal keys: each helper sorts keys that cannot tie, or resolves the
ties it sees by index or by a reduction.  Lint rule REP105 flags an
unstable argsort in simulation code that does not say which.

**Key bounds.**  Packed keys are int64 and are checked once, where a
host's state is made (:func:`check_key_range` in ``HostBlock.build``):
a pair key ``row * n + id`` is below ``n**2``, and ``Sample``'s
``vertex * m + position`` key below ``n**2 * k`` (a call sees at most
``m <= n * k`` entries, one per slot of the rows pointing at its
vertices).  A complex ``(dist, id)`` key holds the id as a float64,
exact below ``2**53`` — far above any ``n`` the int64 bound admits.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import ConfigError


def check_key_range(n: int, k: int) -> None:
    """Refuse a build whose packed keys (below ``n**2 * k``, see the
    module docstring) would overflow int64."""
    if n * n * k > np.iinfo(np.int64).max:
        raise ConfigError(
            f"n = {n} vertices with k = {k} is past the int64 keys the "
            f"build sorts by: n**2 * k must stay below 2**63")


def run_heads(keys: np.ndarray) -> np.ndarray:
    """``head[i]``: whether sorted ``keys[i]`` starts a run of equal keys."""
    head = np.empty(len(keys), dtype=bool)
    head[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    return head


def distinct_sorted(keys: np.ndarray) -> np.ndarray:
    """The distinct ``keys``, ascending (``np.unique(keys)``)."""
    keys = np.sort(keys)
    return keys[run_heads(keys)]


def first_occurrences(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(distinct, first)``: the distinct ``keys`` ascending and where
    each first occurs (``np.unique(keys, return_index=True)``)."""
    order = np.argsort(keys)  # repro: ignore[REP105] minimum.reduceat takes the least index of equal keys
    keys = keys[order]
    starts = np.flatnonzero(run_heads(keys))
    return keys[starts], np.minimum.reduceat(order, starts)


def rank_in_group(group: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Position of each element within its group, for ``group`` sorted
    ascending and ``counts[g]`` the size of group ``g``."""
    return np.arange(len(group)) - (counts.cumsum() - counts)[group]


def row_keys(dists: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The complex ``(dist, id)`` key of entries: numpy orders complex
    numbers by real part, then by imaginary part."""
    keys = np.empty(np.shape(dists), dtype=np.complex128)
    keys.real = dists
    keys.imag = ids
    return keys


def row_order(keys: np.ndarray) -> np.ndarray:
    """Per row of :func:`row_keys`, the positions of its entries by
    ``(dist, id)`` ascending.  Ids are distinct within a row, so only
    identical entries (empty slots) can tie, and their order is not
    observable."""
    return np.argsort(keys, axis=1)  # repro: ignore[REP105] distinct ids: only identical entries tie
