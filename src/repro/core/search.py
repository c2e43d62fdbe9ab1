"""Greedy ANN search on a k-NN graph — Section 3.3.

The paper's query program (used to produce Figure 2) implements the
PyNNDescent search: two heaps — a *frontier* min-heap of vertices to
expand (closest first) and an *l-NN* max-heap of the best ``l`` results
(farthest on top) — and the ``epsilon`` relaxation: a point ``p`` joins
the frontier when ``(epsilon + 1) * d_max > theta(q, p)``, where
``d_max`` is the current worst result distance.  ``epsilon = 0`` is the
plain greedy search; larger values widen the explored region, trading
queries/second for recall — exactly the sweep of Figure 2.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..distances.counting import CountingMetric
from ..errors import SearchError
from ..runtime.metrics import MetricsRegistry, NULL_METRICS
from ..utils.rng import derive_rng
from ..utils.sampling import sample_without_replacement
from .graph import AdjacencyGraph, KNNGraph
from .rptree import RPTreeForest


@dataclass
class SearchResult:
    """One query's outcome.

    ``ids``/``dists`` are ascending by distance.  ``n_distance_evals``
    and ``n_visited`` are the per-query work counters the paper uses to
    cross-check its query program against PyNNDescent (Section 5.3.1).
    """

    ids: np.ndarray
    dists: np.ndarray
    n_distance_evals: int
    n_visited: int


class KNNGraphSearcher:
    """Query engine over an (optimized) k-NN graph.

    Parameters
    ----------
    graph:
        :class:`AdjacencyGraph` (preferred — the Section 4.5 output) or
        a raw :class:`KNNGraph`, which is converted.
    data:
        The dataset the graph was built from (graph-based ANN must keep
        it, as Section 3.2 notes).
    metric:
        Name or Metric; must match the one used at construction.
    entry_forest:
        Optional RP-tree forest: when given, search entry points come
        from the query's leaf instead of uniform random sampling
        (PyNNDescent's start-point refinement, Section 6).
    kernel:
        Batched kernel implementation for the frontier expansion:
        ``"rowwise"`` (bit-exact, the default) or ``"blocked"``
        (tiled GEMM, DESIGN.md section 17); ``None`` defers to
        ``REPRO_KERNEL``.
    """

    def __init__(self, graph, data, metric: str = "sqeuclidean",
                 entry_forest: Optional[RPTreeForest] = None,
                 seed: int = 0,
                 metrics: "MetricsRegistry | None" = None,
                 kernel: str | None = None) -> None:
        if isinstance(graph, KNNGraph):
            graph = graph.to_adjacency()
        if not isinstance(graph, AdjacencyGraph):
            raise SearchError(f"unsupported graph type {type(graph).__name__}")
        if graph.n == 0:
            raise SearchError("cannot search an empty graph")
        if graph.n != len(data):
            raise SearchError(
                f"graph has {graph.n} vertices but dataset has {len(data)} rows"
            )
        self.graph = graph
        self.data = data
        self.metric = CountingMetric(metric, kernel=kernel)
        self.entry_forest = entry_forest
        self._rng = derive_rng(seed, 0x5EA6C4)
        self.metrics = metrics if metrics is not None else NULL_METRICS
        # Frontier expansion: a dense metric over a 2-D array evaluates
        # each expanded vertex's unvisited neighbors with one rowwise
        # kernel call (bit-identical to the scalar loop: the kernel is
        # row-exact and the accept/push decisions replay in neighbor
        # order); sparse metrics and non-array datasets take the
        # per-neighbor scalar loop, the only form that runs there.
        self._use_batch = (not self.metric.sparse_input
                           and isinstance(data, np.ndarray)
                           and data.ndim == 2)

    def clone(self, seed: int) -> "KNNGraphSearcher":
        """A new searcher sharing this one's graph/data/metric but with
        an independent entry-point RNG — what thread-parallel batch
        execution needs (``repro.eval.parallel_query``), since a numpy
        Generator is not safe to share across threads."""
        return KNNGraphSearcher(self.graph, self.data,
                                metric=self.metric.inner,
                                entry_forest=self.entry_forest, seed=seed,
                                metrics=self.metrics if self.metrics.enabled
                                else None,
                                kernel=self.metric.kernel)

    # -- single query ----------------------------------------------------------

    def query(self, q: np.ndarray, l: int = 10, epsilon: float = 0.0) -> SearchResult:
        """Find ``l`` approximate nearest neighbors of ``q``.

        ``q`` need not be in the indexed dataset and ``l`` may exceed the
        graph's ``k`` (Section 3.3).
        """
        if not self.metrics.enabled:
            return self._query_impl(q, l, epsilon)
        with self.metrics.span("query", cat="query", l=l):
            res = self._query_impl(q, l, epsilon)
        self.metrics.inc("search.queries")
        self.metrics.inc("search.visited", res.n_visited)
        self.metrics.inc("distance.evals", res.n_distance_evals)
        return res

    def _query_impl(self, q: np.ndarray, l: int, epsilon: float) -> SearchResult:
        if l < 1:
            raise SearchError(f"l must be >= 1, got {l}")
        if epsilon < 0:
            raise SearchError(f"epsilon must be >= 0, got {epsilon}")
        n = self.graph.n
        l_eff = min(l, n)
        evals = 0

        if not self.metric.sparse_input:
            q_arr = np.asarray(q)
            if q_arr.ndim != 1:
                raise SearchError("query must be a 1-D vector")
            dim = self.data[0].shape[0] if hasattr(self.data[0], "shape") else len(self.data[0])
            if q_arr.shape[0] != dim:
                raise SearchError(
                    f"query dim {q_arr.shape[0]} != dataset dim {dim}"
                )

        entries = self._entry_points(q, l_eff)

        visited = np.zeros(n, dtype=bool)
        # l-NN max-heap: python heapq is a min-heap, store negated dists.
        result: List[Tuple[float, int]] = []  # (-dist, id)
        # frontier min-heap: (dist, id)
        frontier: List[Tuple[float, int]] = []

        distance_scale = 1.0 + epsilon

        for p in entries:
            if visited[p]:
                continue
            visited[p] = True
            d = self.metric(q, self.data[int(p)])
            evals += 1
            heapq.heappush(frontier, (d, int(p)))
            _result_push(result, l_eff, d, int(p))

        bound = distance_scale * _worst(result, l_eff)

        use_batch = self._use_batch
        while frontier:
            d_p, p = heapq.heappop(frontier)
            # Termination B: the closest frontier point is already beyond
            # the (relaxed) worst result.
            if d_p > bound:
                break
            nbr_ids, _ = self.graph.neighbors(p)
            if use_batch:
                # The scalar loop evaluates EVERY unvisited neighbor
                # (the bound only gates pushes), so collecting them
                # first and computing one rowwise kernel call is exact;
                # accept decisions then replay in neighbor order.
                todo, dists_w = self._expand_batch(q_arr, visited, nbr_ids)
                evals += len(todo)
                for w, d in zip(todo, dists_w):
                    if d < bound:
                        heapq.heappush(frontier, (d, w))
                        if _result_push(result, l_eff, d, w):
                            bound = distance_scale * _worst(result, l_eff)
                continue
            for w in nbr_ids:
                w = int(w)
                if visited[w]:
                    continue
                visited[w] = True
                d = self.metric(q, self.data[w])
                evals += 1
                if d < bound:
                    heapq.heappush(frontier, (d, w))
                    if _result_push(result, l_eff, d, w):
                        bound = distance_scale * _worst(result, l_eff)

        out = sorted(((-nd, i) for nd, i in result), key=lambda t: (t[0], t[1]))
        ids = np.array([i for _, i in out], dtype=np.int64)
        dists = np.array([d for d, _ in out], dtype=np.float64)
        return SearchResult(ids=ids, dists=dists, n_distance_evals=evals,
                            n_visited=int(visited.sum()))

    def query_radius(self, q: np.ndarray, radius: float,
                     l: int = 10, epsilon: float = 0.1,
                     max_results: int = 10_000) -> SearchResult:
        """All indexed points within ``radius`` of ``q`` (approximate).

        Runs the greedy search seeded as usual, but keeps expanding
        while the frontier stays inside ``(1 + epsilon) * radius`` and
        collects every point whose distance is <= ``radius``.  Like the
        k-NN search, completeness is approximate: points in graph
        regions the traversal never reaches can be missed, and
        ``epsilon`` widens the explored band.
        """
        if radius < 0:
            raise SearchError(f"radius must be >= 0, got {radius}")
        if max_results < 1:
            raise SearchError("max_results must be >= 1")
        n = self.graph.n
        # Phase 1: greedy descent — random entries usually start far
        # outside the radius, so first navigate toward q exactly like
        # the k-NN search.
        seed = self.query(q, l=min(l, n), epsilon=epsilon)
        visited = np.zeros(n, dtype=bool)
        hits: List[Tuple[float, int]] = []
        frontier: List[Tuple[float, int]] = []
        bound = (1.0 + epsilon) * radius
        evals = seed.n_distance_evals
        for vid, d in zip(seed.ids, seed.dists):
            vid = int(vid)
            visited[vid] = True
            if d <= bound:
                heapq.heappush(frontier, (float(d), vid))
            if d <= radius:
                hits.append((float(d), vid))
        # Phase 2: flood the region within the (relaxed) radius.
        use_batch = self._use_batch
        q_arr = np.asarray(q) if use_batch else None
        while frontier and len(hits) < max_results:
            d_p, p = heapq.heappop(frontier)
            nbr_ids, _ = self.graph.neighbors(p)
            if use_batch:
                todo, dists_w = self._expand_batch(q_arr, visited, nbr_ids)
                evals += len(todo)
                for w, d in zip(todo, dists_w):
                    if d <= bound:
                        heapq.heappush(frontier, (d, w))
                    if d <= radius:
                        hits.append((d, w))
                continue
            for w in nbr_ids:
                w = int(w)
                if visited[w]:
                    continue
                visited[w] = True
                d = self.metric(q, self.data[w])
                evals += 1
                if d <= bound:
                    heapq.heappush(frontier, (d, w))
                if d <= radius:
                    hits.append((d, w))
        hits.sort(key=lambda t: (t[0], t[1]))
        hits = hits[:max_results]
        return SearchResult(
            ids=np.array([i for _, i in hits], dtype=np.int64),
            dists=np.array([d for d, _ in hits], dtype=np.float64),
            n_distance_evals=evals,
            n_visited=int(visited.sum()),
        )

    # -- batch queries ----------------------------------------------------------

    def query_batch(self, queries, l: int = 10,
                    epsilon: float = 0.0) -> Tuple[np.ndarray, np.ndarray, dict]:
        """Run many queries; returns ``(ids, dists, stats)`` where ids is
        ``(nq, l)`` (padded with -1 when fewer than ``l`` found)."""
        nq = len(queries)
        ids = np.full((nq, l), -1, dtype=np.int64)
        dists = np.full((nq, l), np.inf, dtype=np.float64)
        total_evals = 0
        total_visited = 0
        for i in range(nq):
            res = self.query(queries[i], l=l, epsilon=epsilon)
            found = len(res.ids)
            ids[i, :found] = res.ids[:l]
            dists[i, :found] = res.dists[:l]
            total_evals += res.n_distance_evals
            total_visited += res.n_visited
        stats = {
            "n_queries": nq,
            "mean_distance_evals": total_evals / max(1, nq),
            "mean_visited": total_visited / max(1, nq),
        }
        return ids, dists, stats

    # -- internals ----------------------------------------------------------

    def _expand_batch(self, q_arr: np.ndarray, visited: np.ndarray,
                      nbr_ids) -> Tuple[List[int], List[float]]:
        """Mark and evaluate the unvisited members of ``nbr_ids``.

        Returns ``(todo, dists)`` in neighbor order.  The rowwise kernel
        is bitwise row-exact against the scalar metric, so callers can
        replay their per-neighbor decisions on the precomputed values.
        """
        todo: List[int] = []
        for w in nbr_ids:
            w = int(w)
            if not visited[w]:
                visited[w] = True
                todo.append(w)
        if not todo:
            return todo, []
        rows = self.data[todo]
        qm = np.broadcast_to(q_arr, rows.shape)
        return todo, self.metric.rowwise(qm, rows).tolist()

    def _entry_points(self, q, l: int) -> Sequence[int]:
        if self.entry_forest is not None and not self.metric.sparse_input:
            cand = self.entry_forest.candidates_for(np.asarray(q, dtype=np.float64))
            if len(cand) >= l:
                return [int(c) for c in cand[:max(l, 1)]]
            extra = sample_without_replacement(self._rng, self.graph.n, l - len(cand))
            return [int(c) for c in cand] + [int(e) for e in extra]
        picks = sample_without_replacement(self._rng, self.graph.n, l)
        return [int(p) for p in picks]


def _result_push(result: List[Tuple[float, int]], l: int, d: float, vid: int) -> bool:
    """Push into the bounded max-heap; True if the heap changed."""
    if len(result) < l:
        heapq.heappush(result, (-d, vid))
        return True
    if d < -result[0][0]:
        heapq.heapreplace(result, (-d, vid))
        return True
    return False


def _worst(result: List[Tuple[float, int]], l: int) -> float:
    """Current d_max (inf while the result heap is not yet full)."""
    if len(result) < l:
        return np.inf
    return -result[0][0]
