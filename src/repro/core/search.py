"""Greedy ANN search on a k-NN graph — Section 3.3.

The paper's query program (used to produce Figure 2) implements the
PyNNDescent search: a *frontier* of vertices to expand (closest first)
and the best ``l`` results found so far, with the ``epsilon``
relaxation: a point ``p`` joins the frontier when
``(epsilon + 1) * d_max > theta(q, p)``, where ``d_max`` is the current
worst result distance.  ``epsilon = 0`` is the plain greedy search;
larger values widen the explored region, trading queries/second for
recall — exactly the sweep of Figure 2.

Two walkers run that search, chosen from the input, never by an option:

* :meth:`KNNGraphSearcher.query` walks **one query** with two ``heapq``
  heaps.  It is the reference (the oracle the tests compare against)
  and the only form that runs on sparse metrics and non-array datasets.
* :meth:`KNNGraphSearcher.query_batch` over a dense 2-D dataset walks
  **all queries of the call in lock step** (``_walk_block``): one
  frontier pop and one expansion per live query per step, state held
  as padded row arrays, one counted ``rowwise`` kernel call for every
  (query, neighbor) pair of the step.  The paper's program "submits all
  queries at once and processes them in parallel" (Section 5.3.3); this
  is that shape in array operations.

Both follow one **order-free rule**, so neither the order of a vertex's
neighbor list nor the walker changes an answer, ties included:

* the result is the ``l`` smallest evaluated vertices by ``(dist, id)``;
* the frontier pops its ``(dist, id)``-smallest entry and stops once
  that entry is beyond the bound;
* the bound ``(1 + epsilon) * d_max`` that gates frontier pushes is read
  once, at the *start* of an expansion, for all of its neighbors.

Hence ``query_batch(Q)`` returns exactly what ``[query(q) for q in Q]``
returns from a same-seed searcher under the ``rowwise`` kernel — ids,
distance bytes, ``n_distance_evals``, ``n_visited`` — however the batch
is cut (entry points are drawn per query, in query order, from the same
stream).  Under the ``blocked`` kernel, whose sums are not promised to
be invariant to the shape of the batch, the contract is recall parity.

``query()`` is *not* a one-row lock-step: a step costs some sixty numpy
calls whatever the row count, which one row cannot amortise (measured
3-5x slower than the heap walk; the crossover is near ten queries per
call, EXPERIMENTS.md "Lock-step batched search").
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..distances.counting import CountingMetric
from ..errors import SearchError
from ..runtime.metrics import MetricsRegistry, NULL_METRICS
from ..utils.rng import derive_rng
from ..utils.sampling import sample_without_replacement
from .graph import AdjacencyGraph, KNNGraph
from .order import rank_in_group
from .rptree import RPTreeForest

_BLOCK_BYTES = 64 << 20
"""Byte budget of one lock-step block: a ``query_batch`` call is cut
into blocks of ``m`` queries such that the block's ``(m, n)`` visited
array plus the temporaries of its widest step fit, so memory does not
grow with the size of the query file (``_block_rows``)."""

_NO_ID = np.iinfo(np.int64).max
"""Id of an unfilled result slot inside the walker: sorts after every
vertex under ``(dist, id)``; written out as ``-1``."""


@dataclass
class SearchResult:
    """One query's outcome.

    ``ids``/``dists`` are ascending by ``(dist, id)``.
    ``n_distance_evals`` and ``n_visited`` are the per-query work
    counters the paper uses to cross-check its query program against
    PyNNDescent (Section 5.3.1).
    """

    ids: np.ndarray
    dists: np.ndarray
    n_distance_evals: int
    n_visited: int


class KNNGraphSearcher:
    """Query engine over an (optimized) k-NN graph.

    :meth:`query` answers one query with the per-query heap walk;
    :meth:`query_batch` answers many — in lock step when the dataset is
    a dense 2-D array (every dense metric, both kernels), by looping
    over :meth:`query` otherwise.  Same seed, same answers either way
    (module docstring).

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
    seed:
        Seed of the entry-point sampling, kept as ``self.seed``: a
        :class:`~repro.eval.parallel_query.ParallelQueryEngine` derives
        its per-thread clones' seeds from it.
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
        self.seed = int(seed)
        self._rng = derive_rng(seed, 0x5EA6C4)
        self.metrics = metrics if metrics is not None else NULL_METRICS
        # A dense metric over a 2-D array evaluates distances through the
        # rowwise kernel (row-exact against the scalar metric): one call
        # per expansion in ``query``, one per lock step in
        # ``query_batch``.  Sparse metrics and non-array datasets take
        # the per-neighbor scalar loop, the only form that runs there.
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
        self._publish(1, res.n_visited, res.n_distance_evals)
        return res

    def _query_impl(self, q: np.ndarray, l: int, epsilon: float) -> SearchResult:
        _check_params(l, epsilon)
        n = self.graph.n
        l_eff = min(l, n)
        if not self.metric.sparse_input:
            q = np.asarray(q)
            self._check_query_shape(q.shape)

        visited = np.zeros(n, dtype=bool)
        # l-NN max-heap on (dist, id): python heapq is a min-heap, so
        # both are stored negated and result[0] is the (dist, id)-worst.
        result: List[Tuple[float, int]] = []
        # frontier min-heap: (dist, id)
        frontier: List[Tuple[float, int]] = []
        scale = 1.0 + epsilon
        bound = np.inf
        evals = 0

        todo, dists_w = self._expand(q, visited, self._entry_points(q, l_eff))
        while True:
            # ``bound`` is the one read at the start of this expansion:
            # it gates every neighbor alike, whatever their order.
            evals += len(todo)
            for w, d in zip(todo, dists_w):
                if d < bound:
                    heapq.heappush(frontier, (d, w))
                item = (-d, -w)
                if len(result) < l_eff:
                    heapq.heappush(result, item)
                elif item > result[0]:
                    heapq.heapreplace(result, item)
            if len(result) == l_eff:
                bound = scale * -result[0][0]
            if not frontier:
                break
            d_p, p = heapq.heappop(frontier)
            # Termination B: the closest frontier point is already beyond
            # the (relaxed) worst result.
            if d_p > bound:
                break
            todo, dists_w = self._expand(q, visited, self.graph.neighbors(p)[0])

        result.sort(reverse=True)
        return SearchResult(
            ids=np.array([-i for _, i in result], dtype=np.int64),
            dists=np.array([-d for d, _ in result], dtype=np.float64),
            n_distance_evals=evals, n_visited=int(visited.sum()))

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
        for vid, d in zip(seed.ids.tolist(), seed.dists.tolist()):
            visited[vid] = True
            if d <= bound:
                heapq.heappush(frontier, (d, vid))
            if d <= radius:
                hits.append((d, vid))
        # Phase 2: flood the region within the (relaxed) radius.
        while frontier and len(hits) < max_results:
            _, p = heapq.heappop(frontier)
            todo, dists_w = self._expand(q, visited, self.graph.neighbors(p)[0])
            evals += len(todo)
            for w, d in zip(todo, dists_w):
                if d <= bound:
                    heapq.heappush(frontier, (d, w))
                if d <= radius:
                    hits.append((d, w))
        hits.sort()
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
        ``(nq, l)``, each row ascending by ``(dist, id)`` and padded
        with ``-1``/``inf`` when fewer than ``l`` were found.

        The answers (and the work counters behind ``stats``) are those
        of ``[self.query(q, l, epsilon) for q in queries]``.
        """
        _check_params(l, epsilon)
        nq = len(queries)
        ids = np.full((nq, l), -1, dtype=np.int64)
        dists = np.full((nq, l), np.inf, dtype=np.float64)
        evals = np.zeros(nq, dtype=np.int64)
        if self._use_batch and nq:
            try:
                queries = np.asarray(queries)
            except ValueError:  # ragged rows
                raise SearchError("query must be a 1-D vector") from None
            self._check_query_shape(queries.shape[1:])
            l_eff = min(l, self.graph.n)
            m = self._block_rows(l_eff)
            for lo in range(0, nq, m):
                block = slice(lo, min(lo + m, nq))
                with self.metrics.span("query_batch", cat="query", l=l,
                                       n=block.stop - lo):
                    self._walk_block(queries[block], l_eff, 1.0 + epsilon,
                                     ids[block], dists[block], evals[block])
                total = int(evals[block].sum())
                self._publish(block.stop - lo, total, total)
        else:
            for i in range(nq):
                res = self.query(queries[i], l=l, epsilon=epsilon)
                found = len(res.ids)
                ids[i, :found] = res.ids
                dists[i, :found] = res.dists
                evals[i] = res.n_distance_evals
        # Every visited vertex is evaluated exactly once, so the two
        # per-query counters are the same number.
        mean = float(evals.sum()) / max(1, nq)
        stats = {
            "n_queries": nq,
            "mean_distance_evals": mean,
            "mean_visited": mean,
        }
        return ids, dists, stats

    def _block_rows(self, l_eff: int) -> int:
        """Queries per lock-step block under ``_BLOCK_BYTES``.  Each
        costs a row of the visited array plus its share of the widest
        step — ``l_eff`` entry points or one neighbor run, every pair
        being two gathered rows, their float64 copies and the
        difference: 32 bytes per coordinate."""
        fanout = max(l_eff, int(self.graph.degrees().max()))
        per_query = self.graph.n + 32 * fanout * self.data.shape[1]
        return max(1, _BLOCK_BYTES // per_query)

    def _walk_block(self, Q: np.ndarray, l_eff: int, scale: float,
                    ids_out: np.ndarray, dists_out: np.ndarray,
                    evals_out: np.ndarray) -> None:
        """Lock-step walk of the queries ``Q``; fills the three outputs.

        *Live* rows are the queries still searching, kept in query order
        and compacted when some finish; ``slot`` maps a live row back to
        its row of ``Q``, of ``visited`` and of the outputs.  Per live
        row: the result, ascending by ``(dist, id)`` and padded with
        ``(inf, _NO_ID)``; the frontier, unordered in the first
        ``fr_n`` columns with ``inf`` behind them; the bound.
        """
        indptr, indices = self.graph.indptr, self.graph.indices
        n = self.graph.n
        data = np.asarray(self.data)
        rowwise = self.metric.rowwise
        m = len(Q)
        visited = np.zeros(m * n, dtype=bool)
        slot = np.arange(m)
        live_of = np.arange(m)  # inverse of slot, valid for live slots
        evals = np.zeros(m, dtype=np.int64)
        res_d = np.full((m, l_eff), np.inf)
        res_i = np.full((m, l_eff), _NO_ID, dtype=np.int64)
        width = max(32, 4 * l_eff)
        fr_d = np.full((m, width), np.inf)
        fr_i = np.zeros((m, width), dtype=np.int64)
        fr_n = np.zeros(m, dtype=np.int64)
        bound = np.full(m, np.inf)

        def absorb(key: np.ndarray) -> None:
            """Evaluate the not-yet-visited (row, vertex) pairs among
            ``key`` — flat ``visited`` indices, grouped by row — once
            each, and merge them into result and frontier."""
            nonlocal evals, bound, fr_d, fr_i, fr_n, width
            key = key[~visited[key]]
            if key.size == 0:
                return
            # A neighbor run or entry list that repeats an id yields it
            # once.  Sorting also orders each row's candidates by id,
            # which is harmless: every rule below is order-free.
            key.sort()
            repeat = key[1:] == key[:-1]
            if repeat.any():
                key = key[np.concatenate(([True], ~repeat))]
            visited[key] = True
            s = key // n
            c = key - s * n
            r = live_of[s]
            d = rowwise(Q[s], data[c])
            evals += np.bincount(r, minlength=len(evals))

            # Frontier: gated by the bound as it stood before this step.
            gate = d < bound[r]
            f_r = r[gate]
            counts = np.bincount(f_r, minlength=len(fr_n))
            if (fr_n + counts).max() > width:
                # Entries above the bound can never be expanded (it only
                # tightens): drop them, pack the rows, and widen only if
                # that was not enough.
                keep = fr_d <= bound[:, None]
                keep &= np.arange(width) < fr_n[:, None]
                order = np.argsort(~keep, axis=1, kind="stable")
                fr_d = np.take_along_axis(fr_d, order, axis=1)
                fr_i = np.take_along_axis(fr_i, order, axis=1)
                fr_n = keep.sum(axis=1)
                fr_d[np.arange(width) >= fr_n[:, None]] = np.inf
                need = int((fr_n + counts).max())
                if need > width:
                    grown = max(need, 2 * width)
                    pad = ((0, 0), (0, grown - width))
                    fr_d = np.pad(fr_d, pad, constant_values=np.inf)
                    fr_i = np.pad(fr_i, pad)
                    width = grown
            col = fr_n[f_r] + rank_in_group(f_r, counts)
            fr_d[f_r, col] = d[gate]
            fr_i[f_r, col] = c[gate]
            fr_n += counts

            # Result: the l smallest by (dist, id).  Only rows offered a
            # candidate that beats their current worst are re-sorted.
            # (Not ``heap.merge_rows``: its dedup against incumbents and
            # its flag columns are work a search never needs — visited
            # already makes candidates new and unique — and cost 14-27%
            # of query_qps when tried; EXPERIMENTS.md.)
            worst_d = res_d[r, -1]
            better = (d < worst_d) | ((d == worst_d) & (c < res_i[r, -1]))
            if not better.any():
                return
            b_r = r[better]
            first = np.concatenate(([True], b_r[1:] != b_r[:-1]))
            rows = b_r[first]
            group = first.cumsum() - 1
            counts = np.bincount(group)
            col = l_eff + rank_in_group(group, counts)
            cat_d = np.full((len(rows), l_eff + int(counts.max())), np.inf)
            cat_i = np.full(cat_d.shape, _NO_ID, dtype=np.int64)
            cat_d[:, :l_eff] = res_d[rows]
            cat_i[:, :l_eff] = res_i[rows]
            cat_d[group, col] = d[better]
            cat_i[group, col] = c[better]
            order = np.lexsort((cat_i, cat_d), axis=1)[:, :l_eff]
            along = np.arange(len(rows))[:, None]
            res_d[rows] = cat_d[along, order]
            res_i[rows] = cat_i[along, order]
            bound = scale * res_d[:, -1]

        # Entry points: one draw per query, in query order, from the
        # stream ``query`` draws from.
        entries = [self._entry_points(q, l_eff) for q in Q]
        absorb(np.concatenate(entries)
               + np.repeat(slot * n, [len(e) for e in entries]))

        while True:
            rows = np.arange(len(slot))
            j = fr_d.argmin(axis=1)
            d_p = fr_d[rows, j]
            # A row is done when its frontier is empty or its closest
            # entry is beyond the bound (Termination B).
            done = (fr_n == 0) | (d_p > bound)
            if done.any():
                out = slot[done]
                ids_out[out, :l_eff] = res_i[done]
                dists_out[out, :l_eff] = res_d[done]
                evals_out[out] = evals[done]
                live = ~done
                slot, j, d_p = slot[live], j[live], d_p[live]
                if slot.size == 0:
                    break
                rows = np.arange(len(slot))
                live_of[slot] = rows
                evals, bound, fr_n = evals[live], bound[live], fr_n[live]
                res_d, res_i = res_d[live], res_i[live]
                fr_d, fr_i = fr_d[live], fr_i[live]
            # argmin takes the first of several equal distances; the
            # rule is the smallest id among them.
            tied = ((fr_d == d_p[:, None]).sum(axis=1) > 1).nonzero()[0]
            if tied.size:
                j[tied] = np.where(fr_d[tied] == d_p[tied, None],
                                   fr_i[tied], _NO_ID).argmin(axis=1)
            p = fr_i[rows, j]
            # Remove the popped entry: the row's last entry takes its place.
            fr_n -= 1
            fr_d[rows, j] = fr_d[rows, fr_n]
            fr_i[rows, j] = fr_i[rows, fr_n]
            fr_d[rows, fr_n] = np.inf
            # Gather the popped vertices' CSR neighbor runs in one go.
            lo = indptr[p]
            deg = indptr[p + 1] - lo
            ends = deg.cumsum()
            if ends[-1] == 0:
                continue
            pos = np.arange(ends[-1]) + np.repeat(lo - (ends - deg), deg)
            absorb(np.repeat(slot * n, deg) + indices[pos])
        ids_out[ids_out == _NO_ID] = -1

    # -- internals ----------------------------------------------------------

    def _publish(self, queries: int, visited: int, evals: int) -> None:
        self.metrics.inc("search.queries", queries)
        self.metrics.inc("search.visited", visited)
        self.metrics.inc("distance.evals", evals)

    def _check_query_shape(self, shape: tuple) -> None:
        """``shape`` is that of one dense query vector."""
        if len(shape) != 1:
            raise SearchError("query must be a 1-D vector")
        first = self.data[0]
        dim = first.shape[0] if hasattr(first, "shape") else len(first)
        if shape[0] != dim:
            raise SearchError(f"query dim {shape[0]} != dataset dim {dim}")

    def _expand(self, q, visited: np.ndarray,
                candidates) -> Tuple[List[int], List[float]]:
        """Mark and evaluate the unvisited members of ``candidates``.

        Returns ``(todo, dists)``, each vertex once.  On a dense array
        that is one rowwise kernel call, which is bitwise row-exact
        against the scalar metric the other arm calls per vertex.
        """
        todo: List[int] = []
        for w in candidates.tolist():
            if not visited[w]:
                visited[w] = True
                todo.append(w)
        if not todo:
            return todo, []
        if self._use_batch:
            return todo, self.metric.rowwise(q, self.data[todo]).tolist()
        return todo, [self.metric(q, self.data[w]) for w in todo]

    def _entry_points(self, q, l: int) -> np.ndarray:
        n = self.graph.n
        if self.entry_forest is not None and not self.metric.sparse_input:
            cand = self.entry_forest.candidates_for(np.asarray(q, dtype=np.float64))
            if len(cand) >= l:
                return cand[:l]
            extra = sample_without_replacement(self._rng, n, l - len(cand))
            return np.concatenate((cand, extra))
        return sample_without_replacement(self._rng, n, l)


def _check_params(l: int, epsilon: float) -> None:
    if l < 1:
        raise SearchError(f"l must be >= 1, got {l}")
    if epsilon < 0:
        raise SearchError(f"epsilon must be >= 0, got {epsilon}")


# The distributed searcher (``dist_search``) keeps its result heap with
# these two: ``(-dist, id)`` entries, first-come on equal distances.


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
