"""Distributed ANN search over a rank-partitioned k-NN graph.

The paper constructs the k-NNG distributed and then *gathers* it for a
shared-memory query program (Section 5.3.1) — adequate when the graph
fits one node.  The obvious next step for a "massive-scale framework"
(Section 1's goal; cf. Pyramid in Section 6) is to leave the graph
partitioned and route the search's vertex expansions to the owning
ranks.  This module implements that on the simulated runtime:

- graph rows and feature vectors stay sharded exactly as DNND left them
  (vertex + neighbor list co-located, Section 4),
- a *coordinator rank* runs the Section 3.3 greedy loop; each frontier
  pop sends one ``expand`` RPC to the popped vertex's owner, which
  computes the exact distance ``theta(q, v)`` plus exact distances for
  the neighbors it happens to own (features never leave their owner —
  only ids and distances travel),
- the result heap receives **exact distances only**; neighbor distances
  (exact for co-located neighbors, the parent's distance as an estimate
  for remote ones) order the frontier, and a vertex's exact distance is
  established when it is expanded,
- the ``epsilon`` relaxation works unchanged.

Compared to the shared-memory search, every *result* costs one RPC
round-trip (the price of not moving feature vectors), so the
instrumentation exposes the network cost per query — the measurement a
distributed deployment would tune against.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..config import ClusterConfig
from ..errors import ConfigError, SearchError
from ..runtime.instrumentation import MessageStats
from ..runtime.metrics import MetricsRegistry, NULL_METRICS
from ..runtime.netmodel import NetworkModel
from ..runtime.partition import HashPartitioner, Partitioner
from ..runtime.transports import SimCluster
from ..runtime.ygm import RankContext, YGMWorld
from ..types import DIST_BYTES, ID_BYTES
from ..utils.rng import derive_rng
from ..utils.sampling import sample_without_replacement
from .graph import AdjacencyGraph
from .search import SearchResult, _result_push, _worst


@dataclass
class _QueryState:
    """Coordinator-side state of one in-flight query."""

    query: Any
    l: int
    epsilon: float
    frontier: List[Tuple[float, int]] = field(default_factory=list)
    results: List[Tuple[float, int]] = field(default_factory=list)  # (-d, id)
    visited: set = field(default_factory=set)
    pending: int = 0


class DistributedKNNGraphSearcher:
    """Search a sharded graph + dataset on a simulated cluster.

    Parameters
    ----------
    adjacency:
        The (optimized) graph; rows are distributed by ``partitioner``.
    data:
        The dataset; row ``v`` lives on ``owner(v)``.
    coordinator:
        Rank that drives queries (a login/driver process), default 0.
    """

    def __init__(self, adjacency: AdjacencyGraph, data,
                 metric: str = "sqeuclidean",
                 cluster: ClusterConfig | None = None,
                 net: NetworkModel | None = None,
                 partitioner: Optional[Partitioner] = None,
                 coordinator: int = 0,
                 seed: int = 0,
                 sanitize: bool | None = None,
                 metrics: "MetricsRegistry | None" = None) -> None:
        from ..distances.counting import CountingMetric

        if adjacency.n != len(data):
            raise SearchError(
                f"graph has {adjacency.n} vertices, dataset has {len(data)}"
            )
        self.cluster_config = cluster or ClusterConfig(nodes=2, procs_per_node=2)
        self.cluster = SimCluster(self.cluster_config, net)
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.world = YGMWorld(self.cluster, seed=seed, sanitize=sanitize,
                              metrics=self.metrics)
        self.partitioner = partitioner or HashPartitioner(
            adjacency.n, self.cluster_config.world_size)
        # The partitioner is the routing table: a repartitioned build
        # hands its (explicit) partitioner in here, and a mismatch with
        # the graph or cluster must fail loudly, not mis-route expands.
        if (self.partitioner.n != adjacency.n
                or self.partitioner.world_size
                != self.cluster_config.world_size):
            raise ConfigError(
                f"partitioner covers n={self.partitioner.n}, "
                f"world_size={self.partitioner.world_size}; the searcher "
                f"has n={adjacency.n}, "
                f"world_size={self.cluster_config.world_size}")
        if not 0 <= coordinator < self.cluster_config.world_size:
            raise SearchError(f"coordinator rank {coordinator} out of range")
        self.coordinator = coordinator
        self.n = adjacency.n
        self._rng = derive_rng(seed, 0xD15C)
        self._queries: Dict[int, _QueryState] = {}
        self._next_qid = 0
        self._distribute(adjacency, data, metric)
        self.world.register_handlers(
            expand=_h_expand, expand_reply=_h_expand_reply)
        self.world.set_phase("dist_query")

    # -- setup -----------------------------------------------------------------

    def _distribute(self, adjacency: AdjacencyGraph, data, metric) -> None:
        from ..distances.counting import CountingMetric

        sparse = CountingMetric(metric).sparse_input
        arr = None if sparse else np.asarray(data)
        for ctx in self.world.ranks:
            gids = self.partitioner.local_ids(ctx.rank)
            rows = {int(g): adjacency.neighbors(int(g))[0].copy() for g in gids}
            if sparse:
                feats = {int(g): data[int(g)] for g in gids}
            else:
                feats = {int(g): arr[int(g)] for g in gids}
            ctx.state["search_shard"] = {
                "rows": rows,
                "features": feats,
                "metric": CountingMetric(metric),
                "searcher": self,
            }

    # -- queries ------------------------------------------------------------

    def query(self, q, l: int = 10, epsilon: float = 0.0) -> SearchResult:
        """Distributed Section 3.3 search for one query.

        Returned distances are exact (each was computed at the owning
        rank during that vertex's expansion).
        """
        if l < 1:
            raise SearchError(f"l must be >= 1, got {l}")
        if epsilon < 0:
            raise SearchError(f"epsilon must be >= 0, got {epsilon}")
        l_eff = min(l, self.n)
        qid = self._next_qid
        self._next_qid += 1
        state = _QueryState(query=q, l=l_eff, epsilon=epsilon)
        self._queries[qid] = state
        evals_before = self.total_distance_evals()

        with self.metrics.span("query", cat="query", qid=qid, l=l_eff):
            coord = self.world.ranks[self.coordinator]
            entries = sample_without_replacement(self._rng, self.n, l_eff)
            for p in entries:
                self._send_expand(coord, state, qid, int(p))

            # Greedy loop: the barrier is the wait-for-replies primitive;
            # between barriers the coordinator pops the frontier.
            while True:
                self.world.barrier()
                if state.pending:
                    continue
                if not self._pop_and_expand(coord, state, qid):
                    break
        if self.metrics.enabled:
            self.metrics.inc("search.queries")
            self.metrics.inc("search.visited", len(state.visited))

        out = sorted(((-nd, i) for nd, i in state.results),
                     key=lambda t: (t[0], t[1]))
        ids = np.array([i for _, i in out], dtype=np.int64)
        dists = np.array([d for d, _ in out], dtype=np.float64)
        del self._queries[qid]
        return SearchResult(
            ids=ids, dists=dists,
            n_distance_evals=self.total_distance_evals() - evals_before,
            n_visited=len(state.visited))

    def query_batch(self, queries, l: int = 10, epsilon: float = 0.0):
        nq = len(queries)
        ids = np.full((nq, l), -1, dtype=np.int64)
        dists = np.full((nq, l), np.inf, dtype=np.float64)
        total_evals = 0
        for i in range(nq):
            res = self.query(queries[i], l=l, epsilon=epsilon)
            found = len(res.ids)
            ids[i, :found] = res.ids[:l]
            dists[i, :found] = res.dists[:l]
            total_evals += res.n_distance_evals
        return ids, dists, {
            "n_queries": nq,
            "mean_distance_evals": total_evals / max(1, nq),
        }

    @property
    def message_stats(self) -> MessageStats:
        return self.cluster.stats

    @property
    def sim_seconds(self) -> float:
        return self.cluster.ledger.elapsed

    def total_distance_evals(self) -> int:
        return sum(ctx.state["search_shard"]["metric"].count
                   for ctx in self.world.ranks)

    # -- coordinator internals ---------------------------------------------------

    def _send_expand(self, coord: RankContext, state: _QueryState,
                     qid: int, vid: int) -> None:
        if vid in state.visited:
            return
        state.visited.add(vid)
        state.pending += 1
        q = state.query
        q_bytes = q.nbytes if hasattr(q, "nbytes") else len(q) * 8
        coord.async_call(self.partitioner.owner(vid), "expand",
                         qid, vid, q, self.coordinator,
                         nbytes=2 * ID_BYTES + q_bytes, msg_type="expand")

    def _pop_and_expand(self, coord: RankContext, state: _QueryState,
                        qid: int) -> bool:
        """Pop the best (estimated) frontier entry; False = terminate."""
        bound = (1.0 + state.epsilon) * _worst(state.results, state.l)
        while state.frontier:
            d_est, p = heapq.heappop(state.frontier)
            if p in state.visited:
                continue  # a better-estimated duplicate was expanded
            if d_est > bound:
                return False  # termination B (on the estimate)
            self._send_expand(coord, state, qid, p)
            return True
        return False  # termination A: frontier exhausted

    def _on_reply(self, qid: int, center: int, center_dist: float,
                  nbr_ids, nbr_dists) -> None:
        state = self._queries.get(qid)
        if state is None:  # pragma: no cover - defensive
            return
        state.pending -= 1
        # Exact distance for the expanded vertex -> result heap.
        _result_push(state.results, state.l, float(center_dist), int(center))
        bound = (1.0 + state.epsilon) * _worst(state.results, state.l)
        # Neighbor entries order the frontier only (exact for neighbors
        # co-located with the center, parent-estimate for remote ones).
        for u, d in zip(nbr_ids, nbr_dists):
            u = int(u)
            d = float(d)
            if u in state.visited:
                continue
            if d < bound or len(state.results) < state.l:
                heapq.heappush(state.frontier, (d, u))


def _h_expand(ctx: RankContext, qid: int, vid: int, q, reply_to: int) -> None:
    """Owner-side expansion.

    Computes ``theta(q, v)`` exactly, plus exact distances to the
    neighbors this rank also owns (frontier-ordering hints); remote
    neighbors are reported with the center's distance as an optimistic
    estimate — their exact distance is established when they are
    themselves expanded.
    """
    shard = ctx.state["search_shard"]
    metric = shard["metric"]
    feats = shard["features"]
    if vid not in feats:  # pragma: no cover - routing bug guard
        raise SearchError(f"expand for {vid} routed to non-owner rank {ctx.rank}")
    center_dist = metric(q, feats[vid])
    ctx.charge_distance(_dim(q))
    nbr = shard["rows"].get(vid, np.empty(0, dtype=np.int64))
    est_ids: List[int] = []
    est_dists: List[float] = []
    for u in nbr:
        u = int(u)
        if u in feats:
            est_ids.append(u)
            est_dists.append(metric(q, feats[u]))
            ctx.charge_distance(_dim(q))
        else:
            est_ids.append(u)
            est_dists.append(float(center_dist))
    nbytes = (ID_BYTES + DIST_BYTES
              + len(est_ids) * (ID_BYTES + DIST_BYTES))
    ctx.async_call(reply_to, "expand_reply", qid, vid, float(center_dist),
                   np.asarray(est_ids, dtype=np.int64),
                   np.asarray(est_dists, dtype=np.float64),
                   nbytes=nbytes, msg_type="expand_reply")


def _h_expand_reply(ctx: RankContext, qid: int, center: int,
                    center_dist: float, nbr_ids, nbr_dists) -> None:
    shard = ctx.state.get("search_shard")
    if shard is None:  # pragma: no cover - defensive
        raise SearchError("expand_reply delivered to a non-participant rank")
    searcher: DistributedKNNGraphSearcher = shard["searcher"]
    searcher._on_reply(qid, center, center_dist, nbr_ids, nbr_dists)
    ctx.charge_update(len(nbr_ids))


def _dim(q) -> int:
    shape = getattr(q, "shape", None)
    if shape:
        return int(shape[0])
    return max(1, len(q))
