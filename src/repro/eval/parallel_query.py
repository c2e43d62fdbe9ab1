"""Thread-parallel batch query engine.

The paper's query program is "a shared memory query program using C++
and OpenMP ... 256 threads" that "submits all queries at once and
processes them in parallel" (Section 5.3.3).  This module provides the
Python analogue: a thread pool dispatching independent queries over one
shared (read-only) graph + dataset.

Each thread makes one :meth:`KNNGraphSearcher.query_batch` call over
one contiguous, near-equal span of the queries: one lock-step block
(``core/search.py``) whose numpy work — gathers, sorts, the distance
kernel — releases the GIL, so threads overlap there too; smaller spans
would only repeat a block's per-step interpreter cost.  More
importantly for the reproduction, it exercises the same
all-queries-at-once workload shape used for Figure 2's throughput axis.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Tuple

import numpy as np

from ..errors import ConfigError
from ..core.search import KNNGraphSearcher
from ..utils.rng import derive_seed


class ParallelQueryEngine:
    """Runs batches of ANN queries over a shared searcher with threads.

    Parameters
    ----------
    searcher:
        A :class:`KNNGraphSearcher` (treated as read-only).  Span ``i``
        of a batch runs on ``searcher.clone(seed=derive_seed(
        searcher.seed, i))``.
    n_threads:
        Worker count, one span of the queries each; the paper uses 256
        on Mammoth.
    """

    def __init__(self, searcher: KNNGraphSearcher,
                 n_threads: int = 4) -> None:
        if n_threads < 1:
            raise ConfigError(f"n_threads must be >= 1, got {n_threads}")
        self.searcher = searcher
        self.n_threads = int(n_threads)

    def query_batch(self, queries, l: int = 10,
                    epsilon: float = 0.0) -> Tuple[np.ndarray, np.ndarray, dict]:
        """All-queries-at-once parallel execution.

        Returns the same ``(ids, dists, stats)`` as
        :meth:`KNNGraphSearcher.query_batch`.
        """
        nq = len(queries)
        ids = np.full((nq, l), -1, dtype=np.int64)
        dists = np.full((nq, l), np.inf, dtype=np.float64)
        spans = [(int(span[0]), int(span[-1]) + 1) for span in
                 np.array_split(np.arange(nq), self.n_threads) if len(span)]
        evals = np.zeros(len(spans), dtype=np.int64)
        visited = np.zeros(len(spans), dtype=np.int64)

        def run_span(span_idx: int, lo: int, hi: int) -> None:
            # Each span gets its own searcher clone: numpy Generators
            # (entry-point sampling) are not thread-safe to share.  Its
            # seed comes from the wrapped searcher's, so that seed picks
            # the entry points.
            local = self.searcher.clone(
                seed=derive_seed(self.searcher.seed, span_idx))
            ids[lo:hi], dists[lo:hi], stats = local.query_batch(
                queries[lo:hi], l=l, epsilon=epsilon)
            # The span's totals are integers; the means times the span
            # length recover them exactly after rounding.
            evals[span_idx] = round(stats["mean_distance_evals"] * (hi - lo))
            visited[span_idx] = round(stats["mean_visited"] * (hi - lo))

        if len(spans) <= 1:
            for idx, (lo, hi) in enumerate(spans):
                run_span(idx, lo, hi)
        else:
            with ThreadPoolExecutor(max_workers=len(spans)) as pool:
                futures = [pool.submit(run_span, idx, lo, hi)
                           for idx, (lo, hi) in enumerate(spans)]
                for f in futures:
                    f.result()  # propagate worker exceptions

        stats = {
            "n_queries": nq,
            "n_threads": self.n_threads,
            "mean_distance_evals": float(evals.sum()) / max(1, nq),
            "mean_visited": float(visited.sum()) / max(1, nq),
        }
        return ids, dists, stats
