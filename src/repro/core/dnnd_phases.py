"""DNND's rank program (Section 4): rank-local state, message handlers
and SPMD sections — written once, run by every world.

DNND partitions vertices over ranks; each rank holds its vertices'
feature rows and neighbor heaps (:class:`LocalShard`).  This module is
the only home of what a rank *does*: the sim and process worlds
register the same handler functions (:func:`register_dnnd_handlers`) and
resolve sections and shard-state ops from the same tables
(:data:`SECTIONS`, :data:`SHARD_OPS`); the driver only sequences phases
and barriers.  The three communication phases of Section 4 are YGM
handlers:

**Initialization** (Section 4.1's example pattern)
    ``init_req`` carries ``v``'s feature vector to ``owner(u)``, which
    computes ``theta(v, u)`` and replies with ``init_resp`` carrying the
    distance back to ``owner(v)``.

**Reverse-matrix generation** (Section 4.2)
    ``rev_new`` / ``rev_old`` ship one reversed entry ``(u, v)`` to
    ``owner(u)``; the sender shuffles destination order to avoid
    congestion bursts.

**Neighbor checks** (Section 4.3, Figure 1)
    *Unoptimized* (Figure 1a): the center vertex sends a Type 1 request
    to both endpoints; each endpoint ships its feature vector (Type 2)
    to the other; both sides compute the distance and update their own
    heaps.

    *Optimized* (Figure 1b): Type 1 goes only to ``u1`` (one-sided,
    4.3.1).  ``u1`` skips the exchange entirely when ``u2`` is already a
    neighbor (4.3.2), otherwise sends a Type 2+ message — its feature
    plus its worst-neighbor distance bound (4.3.3) — to ``u2``.  ``u2``
    computes the distance, updates its own heap, and replies with a tiny
    Type 3 distance message only if the distance beats the bound and
    ``u1`` is not already a neighbor of ``u2``.

**Graph optimization** (Section 4.5)
    ``opt_rev_edge`` ships each final edge reversed to the neighbor's
    owner for the reverse-merge + prune pass.

**Features travel by reference.**  A feature-carrying message (``init_req``,
Type 2, Type 2+) holds the sender vertex's *global id*; the receiver
resolves the row through :meth:`LocalShard.row` / :meth:`LocalShard.rows`
over the read-only dataset view its world holds (the driver's array
under sim, the shared-memory segment under process).  The
*modeled* wire size is unchanged: message sizes follow Section 2's
accounting — ids are 4 bytes, distances 4 bytes, features
``dim * itemsize`` (ragged records use their actual byte size) — so
Figure 4's bytes axis is modeled, not pickled, and every emission still
charges the feature it stands for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Callable, Dict, Iterable, List, Tuple

import numpy as np

from ..analysis.sanitizer import tag_heap
from ..config import DNNDConfig
from ..distances.counting import CountingMetric
from ..errors import CheckpointCorruptError, GraphError, PartitionError, StoreError
from ..runtime.partition import Partitioner
from ..runtime.ygm import RankContext, YGMWorld
from ..types import DIST_BYTES, ID_BYTES
from ..utils.rng import derive_rng
from ..utils.sampling import sample_without_replacement
from .heap import NeighborHeap
from .nndescent import _union_with_sample

# Message-type labels used in Figure 4.
T1 = "type1"
T2 = "type2"
T2P = "type2+"
T3 = "type3"


@dataclass
class LocalShard:
    """Everything one rank owns.

    Attributes
    ----------
    global_ids:
        Ascending global ids of the vertices this rank owns.
    local_index:
        global id -> row index into ``features`` / ``heaps``.
    features:
        Dense ``(n_local, dim)`` array, or a list of ragged sparse
        records — this rank's own rows, co-located with their heaps.
    heaps:
        One :class:`NeighborHeap` per local vertex — the distributed
        ``G_v`` (vertex and neighbor list co-located, Section 4).
    data:
        Read-only view of the *whole* dataset, shared by every shard of
        a world; only :meth:`row` / :meth:`rows` read it, to resolve the
        feature a message refers to by global id.
    paced:
        Whether this world takes Section 4.4 application-level batch
        barriers mid-phase (the inline sim schedule only; see
        :func:`batch_barrier`).
    """

    rank: int
    partitioner: Partitioner
    global_ids: np.ndarray
    local_index: Dict[int, int]
    features: Any  # dense (n_local, dim) array or list of sparse records
    heaps: List[NeighborHeap]
    metric: CountingMetric
    config: DNNDConfig
    data: Any
    sparse: bool = False
    feature_nbytes_dense: int = 0
    paced: bool = False

    # Per-iteration scratch:
    new_lists: List[List[int]] = field(default_factory=list)
    old_lists: List[List[int]] = field(default_factory=list)
    rev_new: List[List[int]] = field(default_factory=list)
    rev_old: List[List[int]] = field(default_factory=list)
    update_count: int = 0

    # Cumulative neighbor-heap update *attempts* (checked_push calls)
    # over the whole run — the ``heap.updates`` metric.  Attempts are a
    # delivery-order-invariant count under the unoptimized pattern
    # (every delivered feature message is one attempt), unlike
    # ``update_count`` (successful pushes), whose acceptance of
    # later-evicted entries depends on arrival order.  Never reset by
    # :meth:`reset_iteration_scratch`; batch handlers add their exact
    # scalar-equivalent counts, so the scalar/batch paths agree.
    push_attempts: int = 0

    # Pairs already neighbor-checked at this rank this iteration
    # (``comm_opts.check_dedup``, Section 4.3.2 applied to compute).
    check_seen: set = field(default_factory=set)

    # Precomputed owner lookup: ``owner_of[gid]`` == partitioner.owner(gid)
    # (one plain list of ints shared by a world's shards, see
    # :func:`build_shards`).
    owner_of: Any = None

    # This iteration's full Type 1 emission list, built by the
    # ``check_build`` section and shipped in chunks by ``check_emit``.
    check_triples: list = field(default_factory=list)

    # Optimization-phase scratch: per local vertex {neighbor: dist}.
    merged: List[Dict[int, float]] = field(default_factory=list)

    @classmethod
    def build(cls, rank: int, partitioner: Partitioner, data: Any,
              config: DNNDConfig, owner_of: list, paced: bool = False,
              sanitizer: Any = None) -> "LocalShard":
        """Shard construction: copy ``rank``'s rows out of the dataset
        view ``data`` and start every vertex with an empty heap."""
        metric = CountingMetric(config.nnd.metric, kernel=config.kernel)
        gids = partitioner.local_ids(rank)
        if metric.sparse_input:
            feats = [data[int(g)] for g in gids]
            dense_bytes = 0
        else:
            feats = np.ascontiguousarray(data[gids])
            dense_bytes = (int(feats.shape[1] * feats.dtype.itemsize)
                           if feats.size else 0)
        shard = cls(
            rank=rank, partitioner=partitioner, global_ids=gids,
            local_index={int(g): i for i, g in enumerate(gids)},
            features=feats, heaps=[], metric=metric, config=config,
            data=data, sparse=metric.sparse_input,
            feature_nbytes_dense=dense_bytes, paced=paced,
            owner_of=owner_of)
        shard.reset_heaps(sanitizer)
        return shard

    # -- helpers ------------------------------------------------------------

    @property
    def n_local(self) -> int:
        return len(self.global_ids)

    def local(self, gid: int) -> int:
        try:
            return self.local_index[int(gid)]
        except KeyError:
            raise PartitionError(
                f"vertex {gid} dereferenced on rank {self.rank}, "
                f"owner is {self.partitioner.owner(int(gid))}"
            ) from None

    def feature(self, gid: int):
        """Feature of a vertex this rank *owns* (:class:`PartitionError`
        otherwise)."""
        return self.features[self.local(gid)]

    def row(self, gid: int):
        """Feature of *any* vertex, resolved from the dataset view — what
        a feature-carrying message's global id stands for."""
        return self.data[int(gid)]

    def rows(self, gids: Iterable[int]):
        """:meth:`row` for a batch: a fresh ``(len, dim)`` array for
        dense data (input to the rowwise kernel), a list of records for
        sparse data (exact scalar fallback inside ``rowwise_dists``)."""
        if self.sparse:
            return [self.data[int(g)] for g in gids]
        return self.data[np.asarray(gids, dtype=np.int64)]

    def heap(self, gid: int) -> NeighborHeap:
        return self.heaps[self.local(gid)]

    def owner(self, gid: int) -> int:
        return self.partitioner.owner(int(gid))

    def feature_nbytes(self, gid: int) -> int:
        """Wire size of one feature vector (Type 2 payload size)."""
        if self.sparse:
            return int(self.features[self.local(gid)].nbytes)
        return self.feature_nbytes_dense

    def reset_iteration_scratch(self) -> None:
        self.new_lists = [[] for _ in range(self.n_local)]
        self.old_lists = [[] for _ in range(self.n_local)]
        self.rev_new = [[] for _ in range(self.n_local)]
        self.rev_old = [[] for _ in range(self.n_local)]
        self.update_count = 0
        self.check_seen.clear()

    def reset_heaps(self, sanitizer: Any = None) -> None:
        """Empty heaps for every local vertex, tagged with their owner
        when the ownership sanitizer is on."""
        self.heaps = [NeighborHeap(self.config.k)
                      for _ in range(self.n_local)]
        if sanitizer is not None:
            for heap in self.heaps:
                tag_heap(heap, sanitizer, self.rank)


def shard_of(ctx: RankContext) -> LocalShard:
    return ctx.state["shard"]


def build_shards(ctxs: Iterable[RankContext], partitioner: Partitioner,
                 data: Any, config: DNNDConfig, paced: bool = False) -> None:
    """Build the shards of the ranks one world hosts (the driver: all of
    them; a process worker: the ranks it owns) over its dataset view."""
    # One shared read-only owner table: owner_of[gid] == owner(gid),
    # used by the batch handlers instead of per-message hash calls.
    # Kept as a plain list: per-message indexing of a Python list is
    # several times cheaper than a numpy scalar index + int().
    owner_of = partitioner.owner_array(
        np.arange(partitioner.n, dtype=np.int64)).tolist()
    for ctx in ctxs:
        ctx.state["shard"] = LocalShard.build(
            ctx.rank, partitioner, data, config, owner_of, paced=paced,
            sanitizer=ctx.world.sanitizer)


# ---------------------------------------------------------------------------
# Emission: sections produce (dest, handler, args) triples, one helper
# ships them
# ---------------------------------------------------------------------------


def batch_barrier(ctx: RankContext) -> None:
    """Section 4.4: barrier every ``batch_size`` global requests.

    Only on a *paced* world (the sim schedule): application-level batch
    barriers exist to bound the simulated buffer memory between
    supersteps, and a mid-phase barrier cannot be driven from a worker
    that sees only its own ranks (process)."""
    shard = shard_of(ctx)
    bs = shard.config.batch_size
    if shard.paced and bs and ctx.world.async_count_since_barrier >= bs:
        ctx.world.barrier()


def emit(ctx: RankContext, triples: list, nbytes: int, msg_type: str,
         paced: bool = False) -> None:
    """Ship ``(dest, handler, args)`` triples of uniform wire size from
    ``ctx.rank`` — the one place the send side branches on
    ``batch_exec``: one coalesced :meth:`YGMWorld.emit_run`, or the
    scalar reference engine's per-message ``async_call`` loop.

    ``paced`` marks phases whose handlers emit nothing (reverse,
    opt_rev): there the async count between barriers only grows by these
    emissions, one per message, so on a paced world the run is cut into
    blocks sized to hit the Section 4.4 barrier at exactly the message
    index a per-message loop with a per-message :func:`batch_barrier`
    reaches it."""
    shard = shard_of(ctx)
    world = ctx.world
    rank = ctx.rank
    bs = shard.config.batch_size
    paced = bool(paced and shard.paced and bs)
    if not shard.config.batch_exec:
        for dest, handler, args in triples:
            world.async_call(rank, dest, handler, *args,
                             nbytes=nbytes, msg_type=msg_type)
            if paced:
                batch_barrier(ctx)
    elif not paced:
        world.emit_run(rank, triples, nbytes, msg_type)
    else:
        i = 0
        while i < len(triples):
            room = max(1, bs - world.async_count_since_barrier)
            world.emit_run(rank, triples[i:i + room], nbytes, msg_type)
            i += room
            batch_barrier(ctx)


# ---------------------------------------------------------------------------
# Per-vertex generators: what one local vertex sends in a phase.  The sim
# driver interleaves them across ranks (SPMD ranks progressing through
# their vertices together); process workers run them rank-major inside
# the sections below.
# ---------------------------------------------------------------------------


def init_requests(shard: LocalShard, li: int) -> Tuple[list, int]:
    """Algorithm 1 lines 2-5 for local vertex ``li``: its ``init_req``
    triples and their wire size.  Candidates are keyed by vertex id (not
    rank), so the draw is the same on every cluster shape and replays
    identically after a crash or in the degraded-repair pass."""
    cfg = shard.config.nnd
    n = shard.partitioner.n
    v = int(shard.global_ids[li])
    rng = derive_rng(cfg.seed, 2, v)
    cand = sample_without_replacement(rng, n, min(n - 1, cfg.k + 2))
    cand = cand[cand != v][:cfg.k]
    owner = shard.owner_of
    return ([(owner[u], "init_req", (v, u)) for u in cand.tolist()],
            2 * ID_BYTES + shard.feature_nbytes(v))


def type1_triples(shard: LocalShard, li: int) -> list:
    """Algorithm 1 lines 17-22 for local vertex ``li``: the Type 1
    neighbor-check requests among its new/old candidates — each
    new-new pair once, every new-old pair; both endpoints are asked
    under the unoptimized two-sided pattern."""
    one_sided = shard.config.comm_opts.one_sided
    handler = "check_opt" if one_sided else "check_unopt"
    owner = shard.owner_of
    new_c = shard.new_lists[li]
    old_c = shard.old_lists[li]
    triples: list = []
    append = triples.append
    for i, u1 in enumerate(new_c):
        o1 = owner[u1]
        for u2 in new_c[i + 1:] + old_c:
            if u1 != u2:
                append((o1, handler, (u1, u2)))
                if not one_sided:
                    append((owner[u2], handler, (u2, u1)))
    return triples


def init_vertex(ctx: RankContext, li: int) -> None:
    emit(ctx, *init_requests(shard_of(ctx), li), "init_req")


def check_vertex(ctx: RankContext, li: int) -> None:
    emit(ctx, type1_triples(shard_of(ctx), li), 2 * ID_BYTES, T1)


# ---------------------------------------------------------------------------
# SPMD sections: one rank's share of a phase, as functions of
# ``(ctx, **params)``.  Every world runs them on its live ranks.
# ---------------------------------------------------------------------------


def init(ctx: RankContext) -> None:
    """Algorithm 1 lines 2-5 via the Section 4.1 async pattern."""
    for li in range(shard_of(ctx).n_local):
        init_vertex(ctx, li)


def sample(ctx: RankContext, iteration: int) -> None:
    """Local old/new sampling (lines 8-10): no communication.

    RNG streams are keyed by *vertex id* (not rank), and candidate lists
    are canonicalized before sampling, so the constructed graph is
    bit-identical across cluster shapes — the paper's "same quality
    graphs regardless of the number of compute nodes" observation,
    strengthened to exact reproducibility."""
    shard = shard_of(ctx)
    cfg = shard.config.nnd
    sample_n = cfg.sample_size
    charge = ctx.world.cluster.ledger.enabled
    shard.reset_iteration_scratch()
    for li in range(shard.n_local):
        heap = shard.heaps[li]
        shard.old_lists[li] = sorted(heap.old_ids())
        fresh = sorted(heap.new_ids())
        if len(fresh) > sample_n:
            # Derived lazily: the stream is only consumed on this
            # branch, so skipping creation otherwise is stream-exact
            # (SeedSequence mixing is ~10us).
            rng = derive_rng(cfg.seed, 3, iteration,
                             int(shard.global_ids[li]))
            pick = sample_without_replacement(rng, len(fresh), sample_n)
            sampled = [fresh[int(i)] for i in pick]
        else:
            sampled = fresh
        heap.mark_old_many(sampled)
        shard.new_lists[li] = sampled
        if charge:
            ctx.charge_update(len(sampled) + len(shard.old_lists[li]))


def reverse(ctx: RankContext, iteration: int) -> None:
    """Reversed-matrix exchange (Section 4.2)."""
    shard = shard_of(ctx)
    owner = shard.owner_of
    outgoing: list = []
    append = outgoing.append
    for li in range(shard.n_local):
        v = int(shard.global_ids[li])
        for u in shard.new_lists[li]:
            append((owner[u], "rev_new", (u, v)))
        for u in shard.old_lists[li]:
            append((owner[u], "rev_old", (u, v)))
    if shard.config.shuffle_reverse_destinations and len(outgoing) > 1:
        rng = derive_rng(shard.config.nnd.seed, 4, iteration, ctx.rank)
        order = rng.permutation(len(outgoing))
        outgoing = [outgoing[int(i)] for i in order]
    emit(ctx, outgoing, 2 * ID_BYTES, "reverse", paced=True)


def union(ctx: RankContext, iteration: int) -> None:
    """Union with sampled reversed lists (lines 14-16).

    Reverse entries arrive in a delivery order that depends on the
    cluster shape; sorting canonicalizes them before the keyed sample so
    shape-invariance holds here too."""
    shard = shard_of(ctx)
    cfg = shard.config.nnd
    sample_n = cfg.sample_size
    for li in range(shard.n_local):
        rn = sorted(shard.rev_new[li])
        ro = sorted(shard.rev_old[li])
        # Lazy derivation, as in the sample phase: creation does not
        # consume the stream, and draws (when any) happen in the same
        # order as with eager creation, so this is stream-exact.
        rng = (derive_rng(cfg.seed, 5, iteration, int(shard.global_ids[li]))
               if len(rn) > sample_n or len(ro) > sample_n else None)
        shard.new_lists[li] = _union_with_sample(
            shard.new_lists[li], rn, sample_n, rng)
        shard.old_lists[li] = _union_with_sample(
            shard.old_lists[li], ro, sample_n, rng)


def check_build(ctx: RankContext) -> int:
    """Neighbor checks off the sim schedule, step 1: build the rank's
    full Type 1 emission list (pair generation reads only
    iteration-start new/old lists, so it can run without interleaving);
    returns its length.  Step 2 is :func:`check_emit`, driven in global
    chunks of ~``batch_size`` with a barrier between chunks — the
    Section 4.4 application-level batching.  The interleave matters for
    *communication volume*, not just memory: the redundancy check and
    the distance-pruning bound read heap state at delivery time, so a
    chunk's Type 3 feedback tightens the bounds seen by the next chunk.
    Emitting a whole iteration up front triples the Type 3 traffic
    (measured at n=2000: 176k vs 48k replies)."""
    shard = shard_of(ctx)
    shard.check_triples = triples = []
    for li in range(shard.n_local):
        triples.extend(type1_triples(shard, li))
    return len(triples)


def check_emit(ctx: RankContext, start: int, stop: int) -> None:
    part = shard_of(ctx).check_triples[start:stop]
    if part:
        emit(ctx, part, 2 * ID_BYTES, T1)


def repair_reset(ctx: RankContext, ranks: List[int]) -> None:
    """Degraded-repair stage 1: a replacement node comes back with the
    reloaded feature shard and empty state."""
    if ctx.rank in ranks:
        shard = shard_of(ctx)
        shard.reset_heaps(ctx.world.sanitizer)
        shard.reset_iteration_scratch()


def repair_reinit(ctx: RankContext, ranks: List[int]) -> None:
    """Degraded-repair stage 2: repaired vertices replay the keyed init
    sampling (the same candidates as a fault-free init)."""
    if ctx.rank in ranks:
        init(ctx)


def repair_donate(ctx: RankContext, ranks: List[int]) -> None:
    """Degraded-repair stage 3: surviving ranks push the edges they
    already hold that land on repaired vertices."""
    if ctx.rank in ranks:
        return
    shard = shard_of(ctx)
    owner = shard.owner_of
    triples = []
    for li in range(shard.n_local):
        v = int(shard.global_ids[li])
        for u, d, _flag in shard.heaps[li].entries():
            if owner[u] in ranks:
                # u's neighbor list died with its rank; the survivor
                # donates the reverse edge (u, v).
                triples.append((owner[u], "init_resp", (u, v, d)))
    emit(ctx, triples, 2 * ID_BYTES + DIST_BYTES, "init_resp")


def opt_seed(ctx: RankContext) -> None:
    """Section 4.5 stage 1a: seed local merge maps with forward edges."""
    shard = shard_of(ctx)
    shard.merged = [dict() for _ in range(shard.n_local)]
    for li in range(shard.n_local):
        bucket = shard.merged[li]
        for u, d, _flag in shard.heaps[li].entries():
            prev = bucket.get(u)
            if prev is None or d < prev:
                bucket[u] = d


def opt_rev(ctx: RankContext) -> None:
    """Section 4.5 stage 1b: ship reversed edges to their owners."""
    shard = shard_of(ctx)
    owner = shard.owner_of
    triples = []
    for li in range(shard.n_local):
        v = int(shard.global_ids[li])
        for u, d, _flag in shard.heaps[li].entries():
            triples.append((owner[u], "opt_rev_edge", (u, v, d)))
    emit(ctx, triples, 2 * ID_BYTES + 4, "opt_rev", paced=True)


#: The SPMD sections by name — the table the driver's ``_run_section``
#: and a process worker's ``section`` command both resolve from.
SECTIONS: Dict[str, Callable[..., Any]] = {
    "init": init,
    "sample": sample,
    "reverse": reverse,
    "union": union,
    "check_build": check_build,
    "check_emit": check_emit,
    "repair_reset": repair_reset,
    "repair_reinit": repair_reinit,
    "repair_donate": repair_donate,
    "opt_seed": opt_seed,
    "opt_rev": opt_rev,
}


# ---------------------------------------------------------------------------
# Shard-state ops: read or write one rank's state between phases.  Unlike
# sections they cover every hosted rank, excluded or not.
# ---------------------------------------------------------------------------


def ckpt_get(ctx: RankContext) -> tuple:
    """Snapshot raw heap state as ``(global_ids, ids, dists, flags)`` in
    *heap order* — slot order feeds the keyed sampling, so exact
    restoration makes a resumed build bit-identical to an uninterrupted
    one."""
    shard = shard_of(ctx)
    k = shard.config.k
    ids = np.full((shard.n_local, k), -1, dtype=np.int64)
    dists = np.full((shard.n_local, k), np.inf, dtype=np.float64)
    flags = np.zeros((shard.n_local, k), dtype=bool)
    for li, heap in enumerate(shard.heaps):
        ids[li] = heap.ids
        dists[li] = heap.dists
        flags[li] = heap.flags
    return np.asarray(shard.global_ids, dtype=np.int64), ids, dists, flags


def ckpt_set(ctx: RankContext, ids: np.ndarray, dists: np.ndarray,
             flags: np.ndarray) -> None:
    """Restore the rank's heaps from its rows of a :func:`ckpt_get`
    snapshot (row ``i`` belongs to ``global_ids[i]``)."""
    shard = shard_of(ctx)
    if ids.shape != (shard.n_local, shard.config.k):
        raise StoreError(
            f"checkpoint slice shape {ids.shape} does not match rank "
            f"{ctx.rank} shard ({shard.n_local}, {shard.config.k})")
    for li, heap in enumerate(shard.heaps):
        try:
            heap.load_state(ids[li], dists[li], flags[li])
        except GraphError as exc:
            raise CheckpointCorruptError(
                f"checkpoint row of vertex {int(shard.global_ids[li])} is "
                f"not a valid neighbor heap: {exc}") from exc


def gather_rows(ctx: RankContext) -> list:
    """``(gid, ids, dists)`` per local vertex, sorted by distance."""
    shard = shard_of(ctx)
    rows = []
    for li, heap in enumerate(shard.heaps):
        row_ids, row_dists, _ = heap.sorted_arrays()
        rows.append((int(shard.global_ids[li]), row_ids, row_dists))
    return rows


def opt_collect(ctx: RankContext, max_degree: int) -> Dict[int, list]:
    """Section 4.5 stage 2: prune each merged list to ``max_degree``."""
    shard = shard_of(ctx)
    out = {}
    for li in range(shard.n_local):
        lst = sorted(shard.merged[li].items(), key=lambda t: (t[1], t[0]))
        out[int(shard.global_ids[li])] = lst[:max_degree]
        ctx.charge_update(len(lst))
    return out


def shard_totals(ctx: RankContext) -> Tuple[int, int, int, int, int]:
    """``(push_attempts, distance_evals, update_count, kernel_tile_flops,
    kernel_fallbacks)``: all cumulative but the update count, which is
    the current iteration's."""
    shard = shard_of(ctx)
    return (shard.push_attempts, shard.metric.count, shard.update_count,
            shard.metric.tile_flops, shard.metric.kernel_fallbacks)


#: The read ops the driver broadcasts by name (``ckpt_set`` and
#: ``shard_totals`` travel their own way: restore rows are sliced per
#: host, and the process world folds totals across worker deaths).
SHARD_OPS: Dict[str, Callable[..., Any]] = {
    "ckpt_get": ckpt_get,
    "gather_rows": gather_rows,
    "opt_collect": opt_collect,
}


# ---------------------------------------------------------------------------
# Initialization handlers (Section 4.1 communication example)
# ---------------------------------------------------------------------------


def h_init_request(ctx: RankContext, v_gid: int, u_gid: int) -> None:
    """Runs at owner(u): compute theta(v, u), reply with the distance."""
    shard = shard_of(ctx)
    v_feature = shard.row(v_gid)
    d = shard.metric(v_feature, shard.feature(u_gid))
    ctx.charge_distance(_dim_of(v_feature))
    ctx.async_call(
        shard.owner(v_gid), "init_resp", v_gid, u_gid, d,
        nbytes=2 * ID_BYTES + DIST_BYTES, msg_type="init_resp",
    )


def h_init_response(ctx: RankContext, v_gid: int, u_gid: int, d: float) -> None:
    """Runs at owner(v): record the initial neighbor."""
    shard = shard_of(ctx)
    shard.push_attempts += 1
    shard.heap(v_gid).checked_push(int(u_gid), float(d), True)
    ctx.charge_update()


# ---------------------------------------------------------------------------
# Reverse-matrix handlers (Section 4.2)
# ---------------------------------------------------------------------------


def h_reverse_new(ctx: RankContext, u_gid: int, v_gid: int) -> None:
    """Runs at owner(u): u gained a reversed *new* entry v."""
    shard = shard_of(ctx)
    shard.rev_new[shard.local(u_gid)].append(int(v_gid))


def h_reverse_old(ctx: RankContext, u_gid: int, v_gid: int) -> None:
    shard = shard_of(ctx)
    shard.rev_old[shard.local(u_gid)].append(int(v_gid))


# ---------------------------------------------------------------------------
# Neighbor-check handlers — unoptimized pattern (Figure 1a)
# ---------------------------------------------------------------------------


def h_check_request_unopt(ctx: RankContext, target_gid: int, other_gid: int) -> None:
    """Runs at owner(target): Type 1 received; ship target's feature
    (Type 2) to the other endpoint."""
    shard = shard_of(ctx)
    if shard.config.comm_opts.check_dedup:
        pair = (int(target_gid), int(other_gid))
        if pair in shard.check_seen:
            # This exact exchange already happened this iteration (many
            # center vertices propose the same pair); repeating it
            # cannot change any heap.
            return
        shard.check_seen.add(pair)
    ctx.async_call(
        shard.owner(other_gid), "feature_unopt", other_gid, target_gid,
        nbytes=2 * ID_BYTES + shard.feature_nbytes(target_gid), msg_type=T2,
    )


def h_feature_unopt(ctx: RankContext, recv_gid: int, sender_gid: int) -> None:
    """Runs at owner(recv): Type 2 received; compute the distance and
    update recv's own heap (both directions happen symmetrically)."""
    shard = shard_of(ctx)
    feature = shard.row(sender_gid)
    d = shard.metric(shard.feature(recv_gid), feature)
    ctx.charge_distance(_dim_of(feature))
    shard.push_attempts += 1
    shard.update_count += shard.heap(recv_gid).checked_push(int(sender_gid), float(d), True)
    ctx.charge_update()


# ---------------------------------------------------------------------------
# Neighbor-check handlers — optimized pattern (Figure 1b)
# ---------------------------------------------------------------------------


def h_check_request_opt(ctx: RankContext, u1_gid: int, u2_gid: int) -> None:
    """Runs at owner(u1): Type 1 received (one-sided, Section 4.3.1)."""
    shard = shard_of(ctx)
    opts = shard.config.comm_opts
    if opts.check_dedup:
        pair = (int(u1_gid), int(u2_gid))
        if pair in shard.check_seen:
            # Already checked this iteration: a repeated checked_push of
            # the same (id, distance) is always rejected, so skipping
            # the whole exchange is output-invariant.
            return
        shard.check_seen.add(pair)
    heap1 = shard.heap(u1_gid)
    if opts.redundancy_check and int(u2_gid) in heap1:
        # Section 4.3.2: the pair is already adjacent; the whole
        # Type 2+/Type 3 exchange would be wasted.
        return
    if opts.distance_pruning:
        bound = heap1.worst_distance()
        extra = DIST_BYTES  # the attached bound, "negligible in size"
        msg_type = T2P
    else:
        bound = np.inf
        extra = 0
        msg_type = T2
    ctx.async_call(
        shard.owner(u2_gid), "feature_opt", u2_gid, u1_gid, bound,
        nbytes=2 * ID_BYTES + shard.feature_nbytes(u1_gid) + extra,
        msg_type=msg_type,
    )


def h_feature_opt(ctx: RankContext, u2_gid: int, u1_gid: int, bound: float) -> None:
    """Runs at owner(u2): Type 2+/2 received; compute once, update u2's
    heap locally, and reply (Type 3) only when useful."""
    shard = shard_of(ctx)
    opts = shard.config.comm_opts
    heap2 = shard.heap(u2_gid)
    if opts.redundancy_check and int(u1_gid) in heap2:
        # Section 4.3.2 applied on the u2 side before Type 3.
        return
    feature = shard.row(u1_gid)
    d = shard.metric(shard.feature(u2_gid), feature)
    ctx.charge_distance(_dim_of(feature))
    shard.push_attempts += 1
    shard.update_count += heap2.checked_push(int(u1_gid), float(d), True)
    ctx.charge_update()
    if opts.distance_pruning and d >= bound:
        # Section 4.3.3: u1 could not accept this distance anyway.
        return
    ctx.async_call(
        shard.owner(u1_gid), "distance_reply", u1_gid, u2_gid, d,
        nbytes=2 * ID_BYTES + DIST_BYTES, msg_type=T3,
    )


def h_distance_reply(ctx: RankContext, u1_gid: int, u2_gid: int, d: float) -> None:
    """Runs at owner(u1): Type 3 received; update u1's heap."""
    shard = shard_of(ctx)
    shard.push_attempts += 1
    shard.update_count += shard.heap(u1_gid).checked_push(int(u2_gid), float(d), True)
    ctx.charge_update()


# ---------------------------------------------------------------------------
# Graph-optimization handlers (Section 4.5)
# ---------------------------------------------------------------------------


def h_opt_reverse_edge(ctx: RankContext, u_gid: int, v_gid: int, d: float) -> None:
    """Runs at owner(u): merge the reversed edge u -> v."""
    shard = shard_of(ctx)
    bucket = shard.merged[shard.local(u_gid)]
    v = int(v_gid)
    prev = bucket.get(v)
    if prev is None or d < prev:
        bucket[v] = float(d)
    ctx.charge_update()


# ---------------------------------------------------------------------------
# Batch handler variants (vectorized batch execution engine)
#
# Each ``h_*_batch`` receives the argument tuples of a contiguous run of
# same-named messages and must be bit-identical to running the scalar
# handler once per tuple, in order.  The recipes:
#
# - distances are precomputed with the metric's *rowwise* kernel, whose
#   per-row results are bit-identical to the scalar metric (see
#   ``distances/dense.py``); side effects (skips, counters, ledger
#   charges, heap pushes, emissions) then replay in a sequential
#   per-message loop, so charges interleave with mid-block flush charges
#   exactly as in the scalar path,
# - handlers whose only charge is the constant per-update cost may group
#   heap pushes by target vertex (pushes to different heaps commute and
#   don't charge) and batch the clock adds with ``charge_repeated``,
# - emissions go through ``block_emitter`` in original message order,
# - a world without a cost ledger (``NullLedger``: process workers)
#   skips the per-message clock arithmetic and keeps only the effects.
# ---------------------------------------------------------------------------


def _paired_features(shard: LocalShard, own_gids, other_gids):
    """(A, B) inputs for the rowwise kernel: this rank's rows for
    ``own_gids`` paired with the rows the messages refer to by
    ``other_gids``.  Dense shards give 2-D arrays (vectorized kernel);
    sparse shards lists (exact scalar fallback inside
    ``rowwise_dists``)."""
    li = shard.local_index
    if shard.sparse:
        feats = shard.features
        return [feats[li[int(g)]] for g in own_gids], shard.rows(other_gids)
    return (shard.features[[li[int(g)] for g in own_gids]],
            shard.rows(other_gids))


def _distance_costs(shard: LocalShard, net, B) -> Iterable[float]:
    """Modeled cost of each message's distance evaluation: one constant
    for dense rows, per-record for ragged sparse ones."""
    if shard.sparse:
        return [net.distance_cost(_dim_of(f)) for f in B]
    return repeat(net.distance_cost(int(B.shape[1])))


def h_init_request_batch(ctx: RankContext, args_list: list) -> None:
    """Batch of ``init_req`` at owner(u): one rowwise kernel call, then
    per-message charge + reply emission."""
    shard = shard_of(ctx)
    A, B = _paired_features(shard, [a[1] for a in args_list],
                            [a[0] for a in args_list])
    # Every message computes its distance, so use the counted kernel.
    # Argument order matches the scalar handler: theta(v_feature, u_row).
    dists = shard.metric.rowwise(B, A)
    world = ctx.world
    ledger = world.cluster.ledger
    rank = ctx.rank
    owner = shard.owner_of
    send, close = world.block_emitter(rank, "init_resp")
    nb = 2 * ID_BYTES + DIST_BYTES
    if not ledger.enabled:
        for (v_gid, u_gid), d in zip(args_list, dists.tolist()):
            send(owner[v_gid], "init_resp", (v_gid, u_gid, d), nb)
        close()
        return
    clocks = ledger.clocks
    costs = _distance_costs(shard, world.cluster.net, B)
    for (v_gid, u_gid), d, cost in zip(args_list, dists.tolist(), costs):
        clocks[rank] += cost
        send(owner[v_gid], "init_resp", (v_gid, u_gid, d), nb)
    close()


def h_init_response_batch(ctx: RankContext, args_list: list) -> None:
    """Batch of ``init_resp`` at owner(v): bulk heap updates grouped by
    v (cross-heap pushes commute; within-heap order preserved)."""
    shard = shard_of(ctx)
    groups: Dict[int, list] = {}
    for v_gid, u_gid, d in args_list:
        g = groups.get(int(v_gid))
        if g is None:
            g = groups[int(v_gid)] = [[], []]
        g[0].append(int(u_gid))
        g[1].append(float(d))
    heaps = shard.heaps
    li = shard.local_index
    for v, (ids, dists) in groups.items():
        heaps[li[v]].checked_push_batch(ids, dists, True)
    shard.push_attempts += len(args_list)
    world = ctx.world
    world.cluster.ledger.charge_repeated(
        ctx.rank, world.cluster.net.compute_per_update, len(args_list))


def h_reverse_new_batch(ctx: RankContext, args_list: list) -> None:
    shard = shard_of(ctx)
    rev = shard.rev_new
    li = shard.local_index
    for u_gid, v_gid in args_list:
        rev[li[u_gid]].append(v_gid)


def h_reverse_old_batch(ctx: RankContext, args_list: list) -> None:
    shard = shard_of(ctx)
    rev = shard.rev_old
    li = shard.local_index
    for u_gid, v_gid in args_list:
        rev[li[u_gid]].append(v_gid)


def _emit_features(ctx: RankContext, shard: LocalShard, out: list,
                   senders: list, extra: int, msg_type: str) -> None:
    """Ship decided Type 2/2+ messages: dense rows share one wire size
    (one coalesced run); ragged sparse records are sized per message,
    by the sender vertex whose feature each one stands for."""
    if shard.sparse:
        send, close = ctx.world.block_emitter(ctx.rank, msg_type)
        for (dest, h, margs), gid in zip(out, senders):
            send(dest, h, margs,
                 2 * ID_BYTES + shard.feature_nbytes(gid) + extra)
        close()
    else:
        ctx.world.emit_run(
            ctx.rank, out,
            2 * ID_BYTES + shard.feature_nbytes_dense + extra, msg_type)


def h_check_request_unopt_batch(ctx: RankContext, args_list: list) -> None:
    """Batch of Type 1 (unoptimized) at owner(target): dedup + feature
    shipment through one emitter."""
    shard = shard_of(ctx)
    dedup = shard.config.comm_opts.check_dedup
    seen = shard.check_seen
    owner = shard.owner_of
    # Decide-then-emit, as in the optimized variant: the scalar handler
    # charges nothing itself, so deferring the send sequence is exact.
    out: list = []
    senders: list = []
    for target_gid, other_gid in args_list:
        target = int(target_gid)
        other = int(other_gid)
        if dedup:
            pair = (target, other)
            if pair in seen:
                continue
            seen.add(pair)
        out.append((owner[other], "feature_unopt", (other_gid, target_gid)))
        senders.append(target)
    _emit_features(ctx, shard, out, senders, 0, T2)


def h_feature_unopt_batch(ctx: RankContext, args_list: list) -> None:
    """Batch of Type 2 (unoptimized) at owner(recv): one kernel call,
    then the scalar handler's charge/push/charge sequence per message."""
    shard = shard_of(ctx)
    A, B = _paired_features(shard, [a[0] for a in args_list],
                            [a[1] for a in args_list])
    dists = shard.metric.rowwise(A, B)  # every message computes -> counted
    shard.push_attempts += len(args_list)
    world = ctx.world
    ledger = world.cluster.ledger
    heaps = shard.heaps
    li = shard.local_index
    updates = 0
    if not ledger.enabled:
        for (recv_gid, sender_gid), d in zip(args_list, dists.tolist()):
            updates += heaps[li[int(recv_gid)]].checked_push(
                int(sender_gid), d, True)
        shard.update_count += updates
        return
    clocks = ledger.clocks
    net = world.cluster.net
    rank = ctx.rank
    cu = net.compute_per_update
    costs = _distance_costs(shard, net, B)
    # Charges must interleave per message (distance cost, then update
    # cost) to reproduce the scalar clock bit-for-bit.  This handler
    # emits nothing, so no flush charge can land mid-loop and the clock
    # can be accumulated in a local and written back once.
    t = clocks[rank]
    for (recv_gid, sender_gid), d, cost in zip(args_list, dists.tolist(),
                                               costs):
        t += cost
        updates += heaps[li[int(recv_gid)]].checked_push(
            int(sender_gid), d, True)
        t += cu
    clocks[rank] = t
    shard.update_count += updates


def h_check_request_opt_batch(ctx: RankContext, args_list: list) -> None:
    """Batch of Type 1 (optimized) at owner(u1): dedup + redundancy
    check + Type 2+/2 emission through one emitter."""
    shard = shard_of(ctx)
    opts = shard.config.comm_opts
    dedup = opts.check_dedup
    redundancy = opts.redundancy_check
    pruning = opts.distance_pruning
    seen = shard.check_seen
    owner = shard.owner_of
    li = shard.local_index
    heaps = shard.heaps
    # Two passes: decide, then emit.  The scalar handler performs no
    # ledger charges itself (the only clock activity while it runs is
    # the flush cost of its own emissions), and emissions cannot change
    # local heaps or the dedup set, so deferring the identical send
    # sequence past the decision loop leaves every flush charge at the
    # same position on the clock.
    out: list = []
    emit_one = out.append
    senders: list = []
    # No handler in this batch mutates local heaps (emission only
    # enqueues), so u1's members and bound are constant for the whole
    # batch and can be looked up once per distinct u1.
    cache: Dict[int, tuple] = {}
    for u1, u2 in args_list:
        if dedup:
            pair = (u1, u2)
            if pair in seen:
                continue
            seen.add(pair)
        ent = cache.get(u1)
        if ent is None:
            heap1 = heaps[li[u1]]
            ent = cache[u1] = (
                heap1._members,
                float(heap1.dists[0]) if pruning else np.inf,
            )
        members, bound = ent
        if redundancy and u2 in members:
            continue
        emit_one((owner[u2], "feature_opt", (u2, u1, bound)))
        senders.append(u1)
    _emit_features(ctx, shard, out, senders,
                   DIST_BYTES if pruning else 0, T2P if pruning else T2)


def h_feature_opt_batch(ctx: RankContext, args_list: list) -> None:
    """Batch of Type 2+/2 at owner(u2): kernel precompute for all pairs
    (uncounted — a redundancy-skipped pair must not count or charge),
    then the scalar handler's effect sequence per message."""
    shard = shard_of(ctx)
    opts = shard.config.comm_opts
    redundancy = opts.redundancy_check
    pruning = opts.distance_pruning
    A, B = _paired_features(shard, [a[0] for a in args_list],
                            [a[1] for a in args_list])
    metric = shard.metric
    dists = metric.rowwise_raw(A, B)
    world = ctx.world
    ledger = world.cluster.ledger
    rank = ctx.rank
    owner = shard.owner_of
    li = shard.local_index
    heaps = shard.heaps
    nb3 = 2 * ID_BYTES + DIST_BYTES
    send, close = world.block_emitter(rank, T3)
    updates = 0
    evals = 0
    hcache: Dict[int, Any] = {}
    if not ledger.enabled:
        for (u2, u1, bound), d in zip(args_list, dists.tolist()):
            heap2 = hcache.get(u2)
            if heap2 is None:
                heap2 = hcache[u2] = heaps[li[u2]]
            if redundancy and u1 in heap2._members:
                continue
            evals += 1
            updates += heap2.checked_push(u1, d, True)
            if pruning and d >= bound:
                continue
            send(owner[u1], "distance_reply", (u1, u2, d), nb3)
    else:
        clocks = ledger.clocks
        net = world.cluster.net
        cu = net.compute_per_update
        costs = _distance_costs(shard, net, B)
        # Clock kept in a local between sends: a send may trigger a
        # flush, whose charge must land at its exact position in the
        # addition sequence — so the local is written back before every
        # send and reloaded after.  Skipped/pruned messages touch no
        # shared state.
        t = clocks[rank]
        for (u2, u1, bound), d, cost in zip(args_list, dists.tolist(),
                                            costs):
            heap2 = hcache.get(u2)
            if heap2 is None:
                heap2 = hcache[u2] = heaps[li[u2]]
            if redundancy and u1 in heap2._members:
                continue
            evals += 1  # only evaluated pairs count, as in scalar
            t += cost
            updates += heap2.checked_push(u1, d, True)
            t += cu
            if pruning and d >= bound:
                continue
            clocks[rank] = t
            send(owner[u1], "distance_reply", (u1, u2, d), nb3)
            t = clocks[rank]
        clocks[rank] = t
    close()
    metric.count += evals
    shard.push_attempts += evals
    shard.update_count += updates


def h_distance_reply_batch(ctx: RankContext, args_list: list) -> None:
    """Batch of Type 3 at owner(u1): bulk heap updates grouped by u1."""
    shard = shard_of(ctx)
    groups: Dict[int, list] = {}
    for u1_gid, u2_gid, d in args_list:
        g = groups.get(int(u1_gid))
        if g is None:
            g = groups[int(u1_gid)] = [[], []]
        g[0].append(int(u2_gid))
        g[1].append(float(d))
    heaps = shard.heaps
    li = shard.local_index
    updates = 0
    for u1, (ids, dists) in groups.items():
        updates += heaps[li[u1]].checked_push_batch(ids, dists, True)
    shard.push_attempts += len(args_list)
    shard.update_count += updates
    world = ctx.world
    world.cluster.ledger.charge_repeated(
        ctx.rank, world.cluster.net.compute_per_update, len(args_list))


def h_opt_reverse_edge_batch(ctx: RankContext, args_list: list) -> None:
    shard = shard_of(ctx)
    merged = shard.merged
    li = shard.local_index
    for u_gid, v_gid, d in args_list:
        bucket = merged[li[int(u_gid)]]
        v = int(v_gid)
        prev = bucket.get(v)
        if prev is None or d < prev:
            bucket[v] = float(d)
    world = ctx.world
    world.cluster.ledger.charge_repeated(
        ctx.rank, world.cluster.net.compute_per_update, len(args_list))


def register_dnnd_handlers(world: YGMWorld, batch_exec: bool = True) -> None:
    """Register the ten DNND handlers on a world (once per world) — the
    same function objects on a driver-side and a worker-side world.
    ``batch_exec`` adds the batch variants; without them the world is
    the scalar reference engine."""
    world.register_handlers(
        init_req=h_init_request,
        init_resp=h_init_response,
        rev_new=h_reverse_new,
        rev_old=h_reverse_old,
        check_unopt=h_check_request_unopt,
        feature_unopt=h_feature_unopt,
        check_opt=h_check_request_opt,
        feature_opt=h_feature_opt,
        distance_reply=h_distance_reply,
        opt_rev_edge=h_opt_reverse_edge,
    )
    if batch_exec:
        world.register_batch_handlers(
            init_req=h_init_request_batch,
            init_resp=h_init_response_batch,
            rev_new=h_reverse_new_batch,
            rev_old=h_reverse_old_batch,
            check_unopt=h_check_request_unopt_batch,
            feature_unopt=h_feature_unopt_batch,
            check_opt=h_check_request_opt_batch,
            feature_opt=h_feature_opt_batch,
            distance_reply=h_distance_reply_batch,
            opt_rev_edge=h_opt_reverse_edge_batch,
        )


def _dim_of(feature) -> int:
    shape = getattr(feature, "shape", None)
    if shape:
        return int(shape[0])
    return max(1, len(feature))
