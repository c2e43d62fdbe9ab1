"""Exact k-NN by brute force — the Section 5.2 ground truth.

"The brute-force approach performs similarity comparisons between all
pairs in the datasets."  Dense metrics use blocked pairwise-distance
matrices (bounded peak memory, cache-friendly row blocks); sparse
metrics take the same blocks through the metric's per-pair fallback.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..core.graph import KNNGraph
from ..distances.counting import CountingMetric
from ..errors import DatasetError
from ..utils.arrays import chunk_ranges


def brute_force_neighbors(data, queries, k: int, metric="sqeuclidean",
                          block: int = 512, exclude_self: bool = False,
                          kernel: str | None = None) -> Tuple[np.ndarray, np.ndarray]:
    """Exact ``k`` nearest neighbors of each query row.

    Parameters
    ----------
    data:
        Indexed dataset (dense matrix or sparse records).
    queries:
        Query rows in the same representation.
    exclude_self:
        When queries *are* the dataset (graph ground truth), exclude the
        identity match ``i == j``.
    kernel:
        ``"rowwise"`` / ``"blocked"`` batched-kernel choice (``None``
        defers to ``REPRO_KERNEL``).  The result ids are kernel-invariant
        up to distance ties; distances may differ within the documented
        ulp bounds (DESIGN.md section 17).

    Returns
    -------
    ids, dists:
        ``(nq, k)`` arrays, ascending by distance; ties broken by id.
    """
    cm = CountingMetric(metric, kernel=kernel)
    if not cm.sparse_input:
        data, queries = np.asarray(data), np.asarray(queries)
    n = len(data)
    nq = len(queries)
    if k < 1:
        raise DatasetError(f"k must be >= 1, got {k}")
    if k > (n - 1 if exclude_self else n):
        raise DatasetError(f"k={k} too large for dataset of size {n}")
    ids = np.empty((nq, k), dtype=np.int64)
    dists = np.empty((nq, k), dtype=np.float64)
    for lo, hi in chunk_ranges(nq, block):
        # A SparseDataset does not slice: its chunk is a list of records.
        rows = ([queries[i] for i in range(lo, hi)] if cm.sparse_input
                else queries[lo:hi])
        d_block = cm.block(rows, data)
        if exclude_self:
            for qi in range(lo, hi):
                if qi < n:
                    d_block[qi - lo, qi] = np.inf
        # argpartition then a stable (dist, id) sort of the top-k slice.
        part = np.argpartition(d_block, k - 1, axis=1)[:, :k]
        for row in range(hi - lo):
            cand = part[row]
            cand_d = d_block[row, cand]
            order = np.lexsort((cand, cand_d))
            ids[lo + row] = cand[order]
            dists[lo + row] = cand_d[order]
    return ids, dists


def brute_force_knn_graph(data, k: int, metric="sqeuclidean",
                          block: int = 512,
                          kernel: str | None = None) -> KNNGraph:
    """Exact k-NN *graph* of a dataset (self-matches excluded)."""
    ids, dists = brute_force_neighbors(
        data, data, k=k, metric=metric, block=block, exclude_self=True,
        kernel=kernel,
    )
    return KNNGraph(ids, dists)


def brute_force_distance_evals(n: int) -> int:
    """Number of distance evaluations brute force performs on ``n``
    points — the O(n^2) cost NN-Descent's ~O(n^1.14) beats (Section 3.1)."""
    return n * (n - 1) // 2


def counting_brute_force(data, k: int, metric="sqeuclidean",
                         kernel: str | None = None) -> Tuple[KNNGraph, int]:
    """Brute-force graph plus the exact distance-eval count, for the
    cost-comparison benchmarks."""
    counter = CountingMetric(metric, kernel=kernel)
    n = len(data)
    ids = np.empty((n, k), dtype=np.int64)
    dists = np.empty((n, k), dtype=np.float64)
    for i in range(n):
        row = counter.distances_to(data[i], data)
        row[i] = np.inf
        part = np.argpartition(row, k - 1)[:k]
        order = np.lexsort((part, row[part]))
        ids[i] = part[order]
        dists[i] = row[part][order]
    return KNNGraph(ids, dists), counter.count
