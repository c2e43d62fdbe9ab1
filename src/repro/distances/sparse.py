"""Sparse set-valued metrics (Kosarak-style data, Table 1).

The Kosarak dataset in ANN-Benchmarks is a click-stream: each record is a
*set* of item ids out of ~28k, compared with Jaccard distance.  We
represent a record as a sorted 1-D ``int`` array (the representation
pynndescent uses after CSR conversion) and provide set-algebra metrics on
that representation plus helpers to build it.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..errors import MetricError


def as_sorted_set(items: Sequence[int]) -> np.ndarray:
    """Canonicalize a record to a sorted, duplicate-free int64 array."""
    arr = np.unique(np.asarray(items, dtype=np.int64))
    return arr


def validate_record(rec: np.ndarray) -> np.ndarray:
    rec = np.asarray(rec)
    if rec.ndim != 1:
        raise MetricError(f"sparse record must be 1-D, got ndim={rec.ndim}")
    if rec.size > 1 and np.any(rec[1:] <= rec[:-1]):
        raise MetricError("sparse record must be strictly sorted (use as_sorted_set)")
    return rec


def intersection_size(a: np.ndarray, b: np.ndarray) -> int:
    """|a ∩ b| for two sorted arrays via a linear merge (numpy intersect)."""
    return int(np.intersect1d(a, b, assume_unique=True).size)


def jaccard(a: np.ndarray, b: np.ndarray) -> float:
    """Jaccard distance ``1 - |a∩b| / |a∪b|``; empty-vs-empty is 0."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size == 0 and b.size == 0:
        return 0.0
    inter = intersection_size(a, b)
    union = int(a.size + b.size - inter)
    return 1.0 - inter / union


def dice(a: np.ndarray, b: np.ndarray) -> float:
    """Sørensen–Dice distance, a common Jaccard companion."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size == 0 and b.size == 0:
        return 0.0
    inter = intersection_size(a, b)
    return 1.0 - 2.0 * inter / (a.size + b.size)


def overlap(a: np.ndarray, b: np.ndarray) -> float:
    """Overlap (Szymkiewicz–Simpson) distance ``1 - |a∩b|/min(|a|,|b|)``."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size == 0 or b.size == 0:
        return 0.0 if a.size == b.size else 1.0
    inter = intersection_size(a, b)
    return 1.0 - inter / min(a.size, b.size)


class SparseDataset:
    """A list of sorted-set records presented with a matrix-like facade.

    NN-Descent code paths index datasets by row (``data[i]``); this class
    lets the same code run over ragged Jaccard data.  ``dim`` reports the
    universe size (number of distinct items), mirroring Table 1's
    "Dimensions" column for Kosarak.
    """

    def __init__(self, records: Sequence[Sequence[int]]) -> None:
        self._records: List[np.ndarray] = [as_sorted_set(r) for r in records]
        self._universe = 0
        for rec in self._records:
            if rec.size:
                self._universe = max(self._universe, int(rec[-1]) + 1)

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, i: int) -> np.ndarray:
        return self._records[int(i)]

    @property
    def shape(self) -> tuple:
        return (len(self._records), self._universe)

    @property
    def dim(self) -> int:
        return self._universe

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.int64)

    def nbytes_of(self, i: int) -> int:
        """Wire size of record ``i`` (ragged, unlike dense vectors)."""
        return int(self._records[int(i)].nbytes)

    def mean_record_size(self) -> float:
        if not self._records:
            return 0.0
        return float(np.mean([r.size for r in self._records]))
