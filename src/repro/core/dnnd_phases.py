"""DNND's rank program (Section 4): rank-local state, message handlers,
SPMD sections — written once — and the host that runs them.

DNND partitions vertices over ranks; each rank holds its vertices' ids
and neighbor rows (:class:`LocalShard`) and reads features from the one
dataset view of its address space.  This module is
the only home of what a rank *does*, and :class:`RankHost` the only
place its tables (:data:`SECTIONS`, :data:`SHARD_OPS`) are looked up:
the sim driver holds one host over every rank, each process worker one
over the ranks it owns, and the driver — which owns the schedule and
every barrier — reaches both through the same ``rank -> value``
commands.  Neighbor state lives in one place — the host's
rank-contiguous ``(n_host, k)`` id / distance / flag block
(:class:`HostBlock`), whose row slices are the shards' ``(n_local, k)``
matrices — and the whole message chain is *columnar*: sections run per
rank on the shard views and stage runs of messages as one array per
argument (:func:`stage`; the driver's :func:`pump` hands them to
:meth:`YGMWorld.emit_run` chunk by chunk), and each message type has
exactly one handler, which a host calls once per delivery round over
the messages of all its ranks and which works on the block in array
operations (DESIGN.md section 10).

**One stateless source of randomness.**  Every random choice —
the initial neighbors, both of Algorithm 1's ``Sample(S, n)`` calls, the
Section 4.2 shuffle — is :func:`draw_key`, a hash of ``(seed, purpose,
iteration, vertex, element)``, and ``Sample(S, n)`` is "the ``n``
members of ``S`` with the smallest keys" (:func:`sample_smallest`).  A
draw depends on which elements a vertex holds, never on their order or
slot, the rank that owns the vertex, how reversed entries were chunked,
or a generator's position: the same candidates on every cluster shape
(Section 5.3.3), in a crash replay and after a resume, by construction.
Candidate lists are ``(rows, values)`` columns (:data:`Columns`) from
``sample`` through ``check``; no section loops over vertices.

The three communication phases of Section 4 are YGM handlers:

**Initialization** (Section 4.1's example pattern)
    ``init_req`` carries ``v``'s feature vector to ``owner(u)``, which
    computes ``theta(v, u)`` and replies with ``init_resp`` carrying the
    distance back to ``owner(v)``.

**Reverse-matrix generation** (Section 4.2)
    ``rev_new`` / ``rev_old`` ship one reversed entry ``(u, v)`` to
    ``owner(u)``; the sender orders them by key, not by destination, to
    avoid congestion bursts.

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

**Features travel by reference.**  The dataset exists once per address
space — the driver's array, which a process worker inherits (``fork``)
or receives once as a start argument — and a shard copies none of it.  A
feature-carrying message (``init_req``, Type 2, Type 2+) holds the
sender vertex's *global id*, and a handler resolves *both* sides of a
distance, the sender's row and its own vertex's, through
:meth:`HostBlock.features` over that read-only view.  The
*modeled* wire size is unchanged: message sizes follow Section 2's
accounting — ids are 4 bytes, distances 4 bytes, features
``dim * itemsize`` (ragged records use their actual byte size) — so
Figure 4's bytes axis is modeled, not pickled, and every emission still
charges the feature it stands for.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, List, Tuple

import numpy as np

from ..analysis.sanitizer import tag_heap
from ..config import DNNDConfig
from ..distances.counting import CountingMetric
from ..errors import PartitionError, RuntimeStateError, StoreError
from ..runtime.faults import make_injector
from ..runtime.partition import Partitioner, splitmix64, splitmix64_array
from ..runtime.ygm import RankContext, YGMWorld, check_run, uniform_size
from ..types import DIST_BYTES, ID_BYTES
from .heap import EMPTY, NeighborHeap, merge_rows, row_holds
from .order import (check_key_range, distinct_sorted, first_occurrences,
                    rank_in_group)

# Message-type labels used in Figure 4.
T1 = "type1"
T2 = "type2"
T2P = "type2+"
T3 = "type3"

#: Purposes of :func:`draw_key`, one per place Algorithm 1 draws: the
#: initial neighbors (lines 2-5), the new-list sample (8-10), the Section
#: 4.2 destination shuffle, the reversed-list sample (14-16).
INIT, SAMPLE, SHUFFLE, UNION = 2, 3, 4, 5

#: Candidate entries as two parallel columns: ``values[i]`` belongs to
#: local row ``rows[i]``.
Columns = Tuple[np.ndarray, np.ndarray]
NO_ENTRIES: Columns = (np.empty(0, dtype=np.int64),
                       np.empty(0, dtype=np.int64))


def draw_key(seed: int, purpose: int, iteration: int, vertex,
             element) -> np.ndarray:
    """The rank program's one source of randomness, and it has no state:
    a uint64 hash of ``(seed, purpose, iteration, vertex, element)`` — a
    SplitMix64 chain, ``vertex`` and ``element`` broadcast as arrays.
    A draw is a function of *what* is drawn for, never of a generator's
    position, so it is the same on every cluster shape, in every
    replay, and after every resume."""
    h = splitmix64(seed)
    h = splitmix64(h ^ purpose)
    h = np.uint64(splitmix64(h ^ iteration))
    h = splitmix64_array(h ^ np.asarray(vertex).astype(np.uint64))
    return splitmix64_array(h ^ np.asarray(element).astype(np.uint64))


def sample_smallest(seed: int, purpose: int, iteration: int,
                    vertex: np.ndarray, element: np.ndarray,
                    n: int) -> np.ndarray:
    """Algorithm 1's ``Sample(S, n)`` for every vertex at once: with
    ``S_v`` the elements listed for vertex ``v``, the mask of the
    entries among the ``n`` smallest :func:`draw_key` of their ``S_v``.
    Which members are drawn depends on the members alone (distinct
    members have distinct keys, short of a 64-bit collision) — not on
    their order, nor on how the entries were split over messages."""
    keys = draw_key(seed, purpose, iteration, vertex, element)
    order = np.argsort(keys)  # repro: ignore[REP105] a vertex's members have distinct keys
    # Group by vertex, in key order within a group: ``vertex * size +
    # position`` cannot tie, and is below n**2 * k (order.py).
    size = len(order)
    grouped, at = np.divmod(np.sort(vertex[order] * size + np.arange(size)),
                            size)
    mask = np.zeros(size, dtype=bool)
    mask[order[at[rank_in_group(grouped, np.bincount(grouped)) < n]]] = True
    return mask


#: Bytes of feature rows a handler gathers for one kernel call: a run of
#: a whole host is evaluated in chunks whose two gathered sides fit this
#: budget, so a fused run keeps the cache behaviour of a per-rank one
#: (EXPERIMENTS.md, "One call per host per round").
_EVAL_BYTES = 1 << 20


@dataclass
class HostBlock:
    """The neighbor state of every rank one host holds, in one place:
    rank-contiguous ``(n_host, k)`` id / distance / flag matrices whose
    row slices are the hosted shards' matrices.  A host's handler run
    spans all of its ranks and works on this block; sections work on
    the shards' views of it.

    Attributes
    ----------
    ranks:
        The hosted ranks, ascending; rank ``ranks[j]`` holds host rows
        ``starts[j]:starts[j + 1]``.
    global_ids:
        Global id of every host row (ascending within a rank).
    rank_of:
        Rank of every host row.
    row_of:
        ``row_of[gid]``: the host row of a hosted vertex, ``-1`` for one
        another host holds — the dense lookup of :meth:`rows`.
    owner_of:
        ``owner_of[gid] == partitioner.owner(gid)``.
    metric:
        The host's one :class:`CountingMetric`: its count is the host's
        total; per-rank evaluations are the ``distance.evals`` tallies of
        the barrier log.
    data:
        Read-only view of the *whole* dataset, never copied; only
        :meth:`features` reads it.
    feature_bytes:
        Modeled wire size of a feature vector: one int for dense data,
        one entry per host row for ragged sparse records.
    check_seen:
        Sorted ``row * n + other`` keys of the pairs already
        neighbor-checked this iteration (``comm_opts.check_dedup``,
        Section 4.3.2 applied to compute), ``row`` the host row of the
        checking side.  A rank's keys are one contiguous key range, so
        its iteration reset forgets exactly them.
    """

    ranks: np.ndarray
    starts: np.ndarray
    global_ids: np.ndarray
    rank_of: np.ndarray
    row_of: np.ndarray
    owner_of: np.ndarray
    metric: CountingMetric
    config: DNNDConfig
    data: Any
    feature_bytes: Any
    ids: np.ndarray
    dists: np.ndarray
    flags: np.ndarray
    check_seen: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))

    @classmethod
    def build(cls, ranks: List[int], partitioner: Partitioner, data: Any,
              config: DNNDConfig) -> "HostBlock":
        """The block of ``ranks`` (ascending) under ``partitioner``,
        every row empty."""
        check_key_range(partitioner.n, config.k)
        metric = CountingMetric(config.nnd.metric, kernel=config.kernel)
        own = [np.asarray(partitioner.local_ids(r), dtype=np.int64)
               for r in ranks]
        sizes = [len(g) for g in own]
        gids = np.concatenate(own)
        n = partitioner.n
        row_of = np.full(n, -1, dtype=np.int64)
        row_of[gids] = np.arange(len(gids))
        if metric.sparse_input:
            feature_bytes = np.array([data[int(g)].nbytes for g in gids],
                                     dtype=np.int64)
        else:
            feature_bytes = int(data.shape[1] * data.dtype.itemsize)
        shape = (len(gids), config.k)
        return cls(
            ranks=np.asarray(ranks, dtype=np.int64),
            starts=np.concatenate(([0], np.cumsum(sizes))).astype(np.int64),
            global_ids=gids,
            rank_of=np.repeat(np.asarray(ranks, dtype=np.int64), sizes),
            row_of=row_of,
            owner_of=np.asarray(partitioner.owner_array(
                np.arange(n, dtype=np.int64)), dtype=np.int64),
            metric=metric, config=config, data=data,
            feature_bytes=feature_bytes,
            ids=np.full(shape, EMPTY, dtype=np.int64),
            dists=np.full(shape, np.inf, dtype=np.float64),
            flags=np.zeros(shape, dtype=bool))

    def rows(self, gids: np.ndarray, dest) -> np.ndarray:
        """Host rows of vertices ``gids``, vertex ``i`` dereferenced at
        rank ``dest[i]`` (or at rank ``dest`` for all):
        :class:`PartitionError` for a vertex its rank does not own."""
        owner = self.owner_of[gids]
        foreign = owner != dest
        if foreign.any():
            i = int(np.argmax(foreign))
            rank = int(np.broadcast_to(dest, foreign.shape)[i])
            raise PartitionError(
                f"vertex {int(gids[i])} dereferenced on rank {rank}, "
                f"owner is {int(owner[i])}")
        return self.row_of[gids]

    def features(self, gids: Iterable[int]):
        """Features of *any* vertices, resolved from the dataset view by
        global id — what a feature-carrying message stands for, and an
        own vertex's feature alike: a fresh ``(len, dim)`` array for
        dense data (input to the rowwise kernel), a list of records for
        sparse data (exact scalar fallback inside ``rowwise_dists``)."""
        if self.metric.sparse_input:
            return [self.data[int(g)] for g in gids]
        return self.data[np.asarray(gids, dtype=np.int64)]

    def message_bytes(self, rows: np.ndarray, extra: int = 0):
        """Modeled size of the messages carrying the features of host
        ``rows`` (Type 2 payloads): one int for dense rows, a per-message
        array for ragged sparse records."""
        size = self.feature_bytes
        if not isinstance(size, int):
            size = size[rows]
        return size + (2 * ID_BYTES + extra)

    def unchecked(self, rows: np.ndarray, other: np.ndarray) -> np.ndarray:
        """``comm_opts.check_dedup``: where in ``(rows, other)`` the
        distinct pairs not yet checked this iteration first appear, in
        key order — many center vertices propose the same pair, and
        repeating an exchange cannot change any row — remembering them
        as checked."""
        keys, first = first_occurrences(rows * len(self.row_of) + other)
        seen = self.check_seen
        at = np.searchsorted(seen, keys)
        if seen.size:
            fresh = seen[np.minimum(at, seen.size - 1)] != keys
            keys, first, at = keys[fresh], first[fresh], at[fresh]
        self.check_seen = np.insert(seen, at, keys)
        return first

    def forget_checks(self, lo: int, hi: int) -> None:
        """Forget the checked pairs of host rows ``lo:hi`` (one rank's)."""
        seen = self.check_seen
        if seen.size:
            cut = np.searchsorted(seen, [lo * len(self.row_of),
                                         hi * len(self.row_of)])
            self.check_seen = np.concatenate((seen[:cut[0]], seen[cut[1]:]))


@dataclass
class LocalShard:
    """Everything one rank owns: which vertices, and their neighbor rows.
    Feature rows are not among it — they are the host's
    (:meth:`HostBlock.features`), as are the metric, the owner map and
    the modeled feature sizes: a shard reads them through ``block``.

    Attributes
    ----------
    global_ids:
        Ascending global ids of the vertices this rank owns; a vertex's
        *row* is its position here.
    ids, dists, flags:
        ``(n_local, k)`` matrices: row ``i`` is the neighbor list
        ``G_v`` of vertex ``global_ids[i]`` (vertex and neighbor list
        co-located, Section 4) under :mod:`.heap`'s row invariant — row
        slices ``offset:offset + n_local`` of the host's
        :class:`HostBlock`, the single home of neighbor state: handlers
        update many rows of every hosted rank at once with
        :func:`~.heap.merge_rows`; :meth:`heap` gives a
        :class:`NeighborHeap` view of one row for per-vertex access.
    new, old:
        The iteration's candidate lists (Algorithm 1's ``new[v]`` /
        ``old[v]``) as :data:`Columns` ``(rows, values)`` sorted by row —
        the form reversed entries arrive in (``rev_new`` / ``rev_old``
        hold the received chunks), so ``sample``, ``reverse``, ``union``
        and ``check`` work on one representation and a shard holds no
        per-vertex Python object.
    block, offset:
        The host's :class:`HostBlock` and the first host row of this
        rank's.
    """

    rank: int
    partitioner: Partitioner
    global_ids: np.ndarray
    config: DNNDConfig
    block: HostBlock
    offset: int
    ids: np.ndarray
    dists: np.ndarray
    flags: np.ndarray
    sanitizer: Any = None

    # Per-iteration scratch.
    new: Columns = NO_ENTRIES
    old: Columns = NO_ENTRIES
    rev_new: list = field(default_factory=list)
    rev_old: list = field(default_factory=list)

    # Column runs ``(dests, handler, columns, nbytes, msg_type)`` an
    # emitting section staged (:func:`stage`), in emission order; the
    # ``pump`` section ships them from the front, chunk by chunk.
    staged: list = field(default_factory=list)

    # Optimization-phase scratch: reversed edges received, as
    # ``(rows, neighbor ids, dists)`` column chunks.
    opt_edges: list = field(default_factory=list)

    @classmethod
    def of(cls, block: HostBlock, j: int, partitioner: Partitioner,
           config: DNNDConfig, sanitizer: Any = None) -> "LocalShard":
        """The shard of ``block.ranks[j]``: views of its rows."""
        lo, hi = int(block.starts[j]), int(block.starts[j + 1])
        return cls(
            rank=int(block.ranks[j]), partitioner=partitioner,
            global_ids=block.global_ids[lo:hi], config=config,
            block=block, offset=lo, ids=block.ids[lo:hi],
            dists=block.dists[lo:hi], flags=block.flags[lo:hi],
            sanitizer=sanitizer)

    # -- helpers ------------------------------------------------------------

    @property
    def n_local(self) -> int:
        return len(self.global_ids)

    def local(self, gid: int) -> int:
        """Row of a vertex this rank owns."""
        return int(self.locals(np.array([gid]))[0])

    def locals(self, gids: np.ndarray) -> np.ndarray:
        """Rows of vertices this rank owns (:class:`PartitionError` for
        one it does not)."""
        return self.block.rows(np.asarray(gids), self.rank) - self.offset

    def heap(self, gid: int) -> NeighborHeap:
        """Row view of an own vertex's neighbor list, tagged with its
        owner when the ownership sanitizer is on."""
        row = self.local(gid)
        heap = NeighborHeap.view(self.ids[row], self.dists[row],
                                 self.flags[row])
        if self.sanitizer is not None:
            tag_heap(heap, self.sanitizer, self.rank)
        return heap

    def owner(self, gid: int) -> int:
        return self.partitioner.owner(int(gid))

    def reset_iteration_scratch(self) -> None:
        self.new = self.old = NO_ENTRIES
        self.rev_new = []
        self.rev_old = []
        self.block.forget_checks(self.offset, self.offset + self.n_local)
        # A replayed iteration (crash recovery, degraded exclusion) must
        # not ship what the aborted one left staged.
        self.staged = []

    def reset_heaps(self) -> None:
        """Empty neighbor rows for every local vertex (in place: the
        rows are the host block's)."""
        self.ids[:] = EMPTY
        self.dists[:] = np.inf
        self.flags[:] = False

    def edges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every neighbor entry held, as ``(rows, ids, dists)`` columns."""
        rows, slots = np.nonzero(self.ids != EMPTY)
        return rows, self.ids[rows, slots], self.dists[rows, slots]


def shard_of(ctx: RankContext) -> LocalShard:
    return ctx.state["shard"]


def block_of(world: YGMWorld) -> HostBlock:
    return world.state["block"]


def build_shards(ctxs: Iterable[RankContext], partitioner: Partitioner,
                 data: Any, config: DNNDConfig) -> None:
    """Build the block and the shards of the ranks one host covers (the
    sim driver's: all of them; a process worker's: the ranks it owns)
    over its dataset view."""
    ctxs = sorted(ctxs, key=lambda ctx: ctx.rank)
    world = ctxs[0].world
    block = world.state["block"] = HostBlock.build(
        [ctx.rank for ctx in ctxs], partitioner, data, config)
    for j, ctx in enumerate(ctxs):
        ctx.state["shard"] = LocalShard.of(
            block, j, partitioner, config, sanitizer=world.sanitizer)
        ctx.tally["kernel.fallbacks"] += block.metric.kernel_fallbacks


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def stage(ctx: RankContext, dests: np.ndarray, handler: str, columns: tuple,
          nbytes, msg_type: str) -> None:
    """Stage a run of messages on ``ctx``'s shard — the arguments of
    :meth:`YGMWorld.emit_run` — for the driver to ship.

    An emitting section never sends: it stages, and the driver then runs
    the :func:`pump` section in global chunks of ``batch_size //
    world_size`` messages per rank with a barrier after each — Section
    4.4's application-level batching, one rule for every phase and every
    backend.  The chunking matters for *communication volume*, not just
    buffer memory: the redundancy check and the distance-pruning bound
    read row state at delivery time, so a chunk's Type 3 feedback
    tightens the bounds seen by the next chunk.  Emitting a whole
    neighbor-check iteration up front triples the Type 3 traffic
    (measured at n=2000: 176k vs 48k replies)."""
    nbytes = check_run(handler, dests, columns, nbytes)
    if len(dests):
        shard_of(ctx).staged.append((dests, handler, columns, nbytes,
                                     msg_type))


def pump(ctx: RankContext, count: int) -> int:
    """Ship the next ``count`` staged messages of this rank (all of them
    when ``count`` is 0); returns how many stay staged."""
    staged = shard_of(ctx).staged
    left = sum(len(run[0]) for run in staged)
    room = count or left
    while room and staged:
        dests, handler, columns, nbytes, msg_type = staged[0]
        n = min(room, len(dests))
        uniform = uniform_size(nbytes)
        ctx.world.emit_run(ctx.rank, dests[:n], handler,
                           tuple(col[:n] for col in columns),
                           nbytes if uniform else nbytes[:n], msg_type)
        if n == len(dests):
            del staged[0]
        else:
            staged[0] = (dests[n:], handler,
                         tuple(col[n:] for col in columns),
                         nbytes if uniform else nbytes[n:], msg_type)
        room -= n
        left -= n
    return left


def type1_pairs(new: Columns, old: Columns, n_rows: int,
                one_sided: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Algorithm 1 lines 17-22 for every vertex at once: the ``(u1, u2)``
    neighbor-check requests among each vertex's new/old candidates —
    each new-new pair once (``u1 < u2`` when a row's new values ascend,
    line 18), every new-old pair; both endpoints are asked under the
    unoptimized two-sided pattern.

    Per vertex the candidates form one sequence ``new ++ old``; every
    new entry pairs with everything after it.  Memory is proportional to
    the pairs produced."""
    n_new = np.bincount(new[0], minlength=n_rows)
    n_all = n_new + np.bincount(old[0], minlength=n_rows)
    rows = np.concatenate([new[0], old[0]])
    cands = np.concatenate([new[1], old[1]])[np.argsort(rows, kind="stable")]
    # One "left" per new entry: its slot in ``cands`` and how many
    # candidates of the same vertex follow it.
    vertex = new[0]
    index = np.arange(len(vertex)) - (np.cumsum(n_new) - n_new)[vertex]
    left = (np.cumsum(n_all) - n_all)[vertex] + index
    after = n_all[vertex] - 1 - index
    left = np.repeat(left, after)
    step = np.arange(len(left)) - np.repeat(np.cumsum(after) - after, after)
    u1, u2 = cands[left], cands[left + 1 + step]
    distinct = u1 != u2
    u1, u2 = u1[distinct], u2[distinct]
    if one_sided:
        return u1, u2
    return np.concatenate([u1, u2]), np.concatenate([u2, u1])


# ---------------------------------------------------------------------------
# SPMD sections: one rank's share of a phase, as functions of
# ``(ctx, **params)``.  A host runs them on its live ranks; none takes a
# barrier, and those that send only stage.  Every random choice is a
# :func:`draw_key` of what it is made for.
# ---------------------------------------------------------------------------


def init(ctx: RankContext) -> None:
    """Algorithm 1 lines 2-5 via the Section 4.1 async pattern: ``K``
    distinct random others per vertex — Floyd's subset sampling over the
    ``n - 1`` other vertices, one keyed draw per step for every vertex
    at once."""
    shard = shard_of(ctx)
    cfg = shard.config.nnd
    gids = shard.global_ids
    others = shard.partitioner.n - 1
    picks = np.empty((shard.n_local, cfg.k), dtype=np.int64)
    for j in range(cfg.k):
        top = others - cfg.k + j
        draw = (draw_key(cfg.seed, INIT, 0, gids, j)
                % np.uint64(top + 1)).astype(np.int64)
        taken = (picks[:, :j] == draw[:, None]).any(axis=1)
        picks[:, j] = np.where(taken, top, draw)
    u = (picks + (picks >= gids[:, None])).ravel()      # skip v itself
    rows = np.repeat(np.arange(shard.n_local), cfg.k)
    stage(ctx, shard.block.owner_of[u], "init_req", (gids[rows], u),
          shard.block.message_bytes(shard.offset + rows), "init_req")


def sample(ctx: RankContext, iteration: int) -> None:
    """Local old/new sampling (lines 8-10): no communication."""
    shard = shard_of(ctx)
    cfg = shard.config.nnd
    shard.reset_iteration_scratch()
    rows, slots = np.nonzero(shard.ids != EMPTY)
    values = shard.ids[rows, slots]
    fresh = shard.flags[rows, slots]
    shard.old = rows[~fresh], values[~fresh]
    rows, slots, values = rows[fresh], slots[fresh], values[fresh]
    taken = sample_smallest(cfg.seed, SAMPLE, iteration,
                            shard.global_ids[rows], values, cfg.sample_size)
    shard.new = rows[taken], values[taken]
    # Line 10: what was taken is old from now on.
    shard.flags[rows[taken], slots[taken]] = False
    ctx.charge_update(len(shard.new[0]) + len(shard.old[0]))


def _reversed_entries(shard: LocalShard, cands: Columns,
                      iteration: int) -> Columns:
    """``(u, v)`` for every entry ``u`` of vertex ``v``'s list, in keyed
    order when shuffling (Section 4.2: no synchronized bursts at one
    rank), else in list order."""
    rows, u = cands
    v = shard.global_ids[rows]
    if shard.config.shuffle_reverse_destinations:
        keys = draw_key(shard.config.nnd.seed, SHUFFLE, iteration, v, u)
        order = np.argsort(keys)  # repro: ignore[REP105] the (v, u) pairs are distinct, so are their keys
        u, v = u[order], v[order]
    return u, v


def reverse(ctx: RankContext, iteration: int) -> None:
    """Reversed-matrix exchange (Section 4.2)."""
    shard = shard_of(ctx)
    u, v = _reversed_entries(shard, shard.new, iteration)
    stage(ctx, shard.block.owner_of[u], "rev_new", (u, v), 2 * ID_BYTES, "reverse")
    u, v = _reversed_entries(shard, shard.old, iteration)
    stage(ctx, shard.block.owner_of[u], "rev_old", (u, v), 2 * ID_BYTES, "reverse")


def _union(shard: LocalShard, own: Columns, chunks: list,
           iteration: int) -> Columns:
    """``own[v] ∪ Sample(reversed[v], rho K)`` for every row, ascending
    by ``(row, id)``."""
    n = shard.partitioner.n
    rows, values = (np.concatenate(col) for col in zip(NO_ENTRIES, *chunks))
    drawn = sample_smallest(shard.config.nnd.seed, UNION, iteration,
                            shard.global_ids[rows], values,
                            shard.config.nnd.sample_size)
    return np.divmod(distinct_sorted(
        np.concatenate([own[0], rows[drawn]]) * n
        + np.concatenate([own[1], values[drawn]])), n)


def union(ctx: RankContext, iteration: int) -> None:
    """Union with sampled reversed lists (lines 14-16)."""
    shard = shard_of(ctx)
    shard.new = _union(shard, shard.new, shard.rev_new, iteration)
    shard.old = _union(shard, shard.old, shard.rev_old, iteration)


def check(ctx: RankContext) -> None:
    """Neighbor checks: the rank's Type 1 requests (pair generation
    reads only iteration-start new/old lists)."""
    shard = shard_of(ctx)
    one_sided = shard.config.comm_opts.one_sided
    u1, u2 = type1_pairs(shard.new, shard.old, shard.n_local, one_sided)
    stage(ctx, shard.block.owner_of[u1],
          "check_opt" if one_sided else "check_unopt", (u1, u2),
          2 * ID_BYTES, T1)


def repair_reset(ctx: RankContext, ranks: List[int]) -> None:
    """Degraded-repair stage 1: a replacement node comes back with the
    dataset view and empty state."""
    if ctx.rank in ranks:
        shard = shard_of(ctx)
        shard.reset_heaps()
        shard.reset_iteration_scratch()


def repair_reinit(ctx: RankContext, ranks: List[int]) -> None:
    """Degraded-repair stage 2: repaired vertices replay the keyed init
    draws (the same candidates as a fault-free init)."""
    if ctx.rank in ranks:
        init(ctx)


def repair_donate(ctx: RankContext, ranks: List[int]) -> None:
    """Degraded-repair stage 3: surviving ranks push the edges they
    already hold that land on repaired vertices — u's neighbor list died
    with its rank; the survivor donates the reverse edge ``(u, v)``."""
    if ctx.rank in ranks:
        return
    shard = shard_of(ctx)
    rows, u, d = shard.edges()
    lost = np.isin(shard.block.owner_of[u], ranks)
    rows, u, d = rows[lost], u[lost], d[lost]
    stage(ctx, shard.block.owner_of[u], "init_resp", (u, shard.global_ids[rows], d),
          2 * ID_BYTES + DIST_BYTES, "init_resp")


def opt_seed(ctx: RankContext) -> None:
    """Section 4.5 stage 1a: start the reverse-merge with no reversed
    edges received (the forward edges are the rows themselves)."""
    shard_of(ctx).opt_edges = []


def opt_rev(ctx: RankContext) -> None:
    """Section 4.5 stage 1b: ship reversed edges to their owners."""
    shard = shard_of(ctx)
    rows, u, d = shard.edges()
    stage(ctx, shard.block.owner_of[u], "opt_rev_edge",
          (u, shard.global_ids[rows], d), 2 * ID_BYTES + 4, "opt_rev")


#: The SPMD sections by name, resolved by :meth:`RankHost.run_section`.
SECTIONS: Dict[str, Callable[..., Any]] = {
    "init": init,
    "sample": sample,
    "reverse": reverse,
    "union": union,
    "check": check,
    "pump": pump,
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
    """Snapshot the neighbor rows as ``(global_ids, ids, dists, flags)``.
    Slot order carries no meaning beyond the row invariant (sampling
    keys entries by id), so any valid layout of the same entries resumes
    to the same build."""
    shard = shard_of(ctx)
    return (shard.global_ids, shard.ids.copy(), shard.dists.copy(),
            shard.flags.copy())


def ckpt_set(ctx: RankContext, ids: np.ndarray, dists: np.ndarray,
             flags: np.ndarray) -> None:
    """Restore the rank's neighbor rows from its rows of a
    :func:`ckpt_get` snapshot (row ``i`` belongs to ``global_ids[i]``).
    The driver validated the rows when it loaded them."""
    shard = shard_of(ctx)
    if ids.shape != shard.ids.shape:
        raise StoreError(
            f"checkpoint slice shape {ids.shape} does not match rank "
            f"{ctx.rank} shard {shard.ids.shape}")
    shard.ids[:] = ids
    shard.dists[:] = dists
    shard.flags[:] = flags


def gather_rows(ctx: RankContext) -> tuple:
    """``(global_ids, ids, dists)`` with every row sorted closest first."""
    shard = shard_of(ctx)
    order = np.lexsort((shard.ids, shard.dists), axis=1)
    return (shard.global_ids, np.take_along_axis(shard.ids, order, axis=1),
            np.take_along_axis(shard.dists, order, axis=1))


def opt_collect(ctx: RankContext, max_degree: int) -> tuple:
    """Section 4.5 stage 2: merge each vertex's forward and reversed
    edges (closest copy of a repeated neighbor) and prune the list to
    its ``max_degree`` closest.  Returns columns ``(global_ids, counts,
    neighbor ids, dists)``: vertex ``global_ids[i]`` keeps ``counts[i]``
    edges, and the edge columns hold the vertices' runs back to back,
    each closest first."""
    shard = shard_of(ctx)
    rows, nbr, d = (np.concatenate(col)
                    for col in zip(shard.edges(), *shard.opt_edges))
    order = np.lexsort((d, nbr, rows))
    rows, nbr, d = rows[order], nbr[order], d[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (nbr[1:] != nbr[:-1])
    rows, nbr, d = rows[first], nbr[first], d[first]
    ctx.charge_update(len(rows))
    order = np.lexsort((nbr, d, rows))
    rows, nbr, d = rows[order], nbr[order], d[order]
    counts = np.bincount(rows, minlength=shard.n_local)
    place = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
    kept = place < max_degree
    return (shard.global_ids, np.minimum(counts, max_degree), nbr[kept],
            d[kept])


#: The shard-state ops by name, resolved by :meth:`RankHost.command`.
SHARD_OPS: Dict[str, Callable[..., Any]] = {
    "ckpt_get": ckpt_get,
    "ckpt_set": ckpt_set,
    "gather_rows": gather_rows,
    "opt_collect": opt_collect,
}


# ---------------------------------------------------------------------------
# Message handlers.  Each is *columnar* and runs once per delivery round
# per host: it receives the host's world, the destination rank of every
# row, and the round's messages to every hosted rank as one array per
# argument (a lone message is a one-row run), and works on the host's
# :class:`HostBlock` in array operations — one row lookup, one kernel
# pass (chunked under ``_EVAL_BYTES``), one ``merge_rows``.  The result
# of a run does not depend on the order of its rows: neighbor updates go
# through ``merge_rows`` (rows keep the k smallest ``(dist, id)``), and
# checks that read row state (redundancy, pruning bound) read it once,
# before the run's own updates.  Every row belongs to its destination
# rank: its lookup refuses a vertex that rank does not own, and what it
# costs is charged — ``count x cost`` per rank — and counted to that
# rank.  What the rank program counts — distance evaluations, candidates
# offered to a row (``heap.updates``), the ``updates`` of Algorithm 1's
# ``c``, kernel tile flops — goes to the rank's ``ctx.tally`` and
# reaches the driver's barrier log with the world's next delta export.
# ---------------------------------------------------------------------------


def _spans(dest: np.ndarray):
    """``(rank, lo, hi)`` for each rank's rows of a run (``dest``
    ascends)."""
    starts = np.flatnonzero(np.concatenate((dest[:1] == dest[:1],
                                            dest[1:] != dest[:-1])))
    bounds = np.append(starts, len(dest)).tolist()
    return zip(dest[starts].tolist(), bounds[:-1], bounds[1:])


def _tally(world: YGMWorld, name: str, counts: np.ndarray) -> None:
    """Add ``counts[rank]`` to each rank's tally ``name``."""
    for rank in np.flatnonzero(counts).tolist():
        world.ranks[rank].tally[name] += int(counts[rank])


def _charge(world: YGMWorld, counts: np.ndarray, cost: float) -> None:
    """Charge ``counts[rank] x cost`` to each rank's clock."""
    ledger = world.cluster.ledger
    for rank in np.flatnonzero(counts).tolist():
        ledger.charge(rank, cost * int(counts[rank]))


def _evaluate(world: YGMWorld, block: HostBlock, dest: np.ndarray,
              a: np.ndarray, b: np.ndarray,
              carried: np.ndarray) -> np.ndarray:
    """Paired distances ``theta(a[i], b[i])`` of vertex features through
    the counted rowwise kernel, in chunks whose gathered rows fit
    :data:`_EVAL_BYTES`, charged to row ``i``'s rank at the dimension of
    ``carried[i]`` (the features the messages carried)."""
    metric = block.metric
    flops = metric.tile_flops
    # Sparse records are not chunked: their kernel is a scalar loop.
    step = max(1, len(a) if metric.sparse_input
               else _EVAL_BYTES // (2 * block.feature_bytes))
    parts = [np.asarray(metric.rowwise(block.features(a[lo:lo + step]),
                                       block.features(b[lo:lo + step])),
                        dtype=np.float64)
             for lo in range(0, len(a), step)]
    d = parts[0] if len(parts) == 1 else np.concatenate(parts)
    evals = np.bincount(dest)
    _tally(world, "distance.evals", evals)
    flops = metric.tile_flops - flops
    if flops:  # linear in the rows of a call: split by rows
        _tally(world, "kernel.tile_flops", evals * flops // len(d))
    if world.cluster.ledger.enabled:
        net = world.cluster.net
        if metric.sparse_input:  # ragged: each at its own length
            cost = [net.distance_cost(len(f))
                    for f in block.features(carried)]
            for rank, lo, hi in _spans(dest):
                world.cluster.ledger.charge(rank, sum(cost[lo:hi]))
        else:
            _charge(world, evals, net.distance_cost(block.data.shape[1]))
    return d


def _offer(world: YGMWorld, block: HostBlock, dest: np.ndarray,
           rows: np.ndarray, cand: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Offer candidates to their host rows as *new* entries; returns how
    many got in, per rank."""
    offered = np.bincount(dest)
    _tally(world, "heap.updates", offered)
    _charge(world, offered, world.cluster.net.compute_per_update)
    touched, accepted = merge_rows(block.ids, block.dists, block.flags,
                                   rows, cand, d)
    return np.bincount(block.rank_of[touched], weights=accepted,
                       minlength=len(offered)).astype(np.int64)


def _to_shards(world: YGMWorld, block: HostBlock, dest: np.ndarray,
               scratch: str, rows: np.ndarray, *columns) -> None:
    """Append each rank's slice of a run to its shard's ``scratch``
    list, with host rows made local."""
    for rank, lo, hi in _spans(dest):
        shard = shard_of(world.ranks[rank])
        getattr(shard, scratch).append(
            (rows[lo:hi] - shard.offset, *(col[lo:hi] for col in columns)))


# -- initialization (Section 4.1 communication example) ----------------------


def h_init_req(world: YGMWorld, dest: np.ndarray, v: np.ndarray,
               u: np.ndarray) -> None:
    """Runs at owner(u): compute theta(v, u), reply with the distance."""
    block = block_of(world)
    d = _evaluate(world, block, dest, v, u, v)
    world.emit_run(dest, block.owner_of[v], "init_resp", (v, u, d),
                   2 * ID_BYTES + DIST_BYTES, "init_resp")


def h_init_resp(world: YGMWorld, dest: np.ndarray, v: np.ndarray,
                u: np.ndarray, d: np.ndarray) -> None:
    """Runs at owner(v): record the initial neighbor."""
    block = block_of(world)
    _offer(world, block, dest, block.rows(v, dest), u, d)


# -- reverse matrices (Section 4.2) ---------------------------------------------


def h_rev_new(world: YGMWorld, dest: np.ndarray, u: np.ndarray,
              v: np.ndarray) -> None:
    """Runs at owner(u): u gained reversed *new* entries v."""
    block = block_of(world)
    _to_shards(world, block, dest, "rev_new", block.rows(u, dest), v)


def h_rev_old(world: YGMWorld, dest: np.ndarray, u: np.ndarray,
              v: np.ndarray) -> None:
    block = block_of(world)
    _to_shards(world, block, dest, "rev_old", block.rows(u, dest), v)


# -- neighbor checks, unoptimized pattern (Figure 1a) ---------------------------


def h_check_unopt(world: YGMWorld, dest: np.ndarray, target: np.ndarray,
                  other: np.ndarray) -> None:
    """Runs at owner(target): Type 1 received; ship target's feature
    (Type 2) to the other endpoint."""
    block = block_of(world)
    rows = block.rows(target, dest)
    if block.config.comm_opts.check_dedup:
        keep = block.unchecked(rows, other)
        dest, target, other, rows = (dest[keep], target[keep], other[keep],
                                     rows[keep])
    world.emit_run(dest, block.owner_of[other], "feature_unopt",
                   (other, target), block.message_bytes(rows), T2)


def h_feature_unopt(world: YGMWorld, dest: np.ndarray, recv: np.ndarray,
                    sender: np.ndarray) -> None:
    """Runs at owner(recv): Type 2 received; compute the distance and
    update recv's own row (both directions happen symmetrically)."""
    block = block_of(world)
    rows = block.rows(recv, dest)
    d = _evaluate(world, block, dest, recv, sender, sender)
    _tally(world, "updates", _offer(world, block, dest, rows, sender, d))


# -- neighbor checks, optimized pattern (Figure 1b) ------------------------------


def h_check_opt(world: YGMWorld, dest: np.ndarray, u1: np.ndarray,
                u2: np.ndarray) -> None:
    """Runs at owner(u1): Type 1 received (one-sided, Section 4.3.1)."""
    block = block_of(world)
    opts = block.config.comm_opts
    rows = block.rows(u1, dest)
    if opts.check_dedup:
        keep = block.unchecked(rows, u2)
        dest, u1, u2, rows = dest[keep], u1[keep], u2[keep], rows[keep]
    if opts.redundancy_check:
        # Section 4.3.2: the pair is already adjacent; the whole
        # Type 2+/Type 3 exchange would be wasted.
        apart = ~row_holds(block.ids, rows, u2)
        dest, u1, u2, rows = dest[apart], u1[apart], u2[apart], rows[apart]
    if opts.distance_pruning:
        # Section 4.3.3: attach u1's worst-neighbor distance ("negligible
        # in size").
        bound, extra, msg_type = block.dists[rows, 0], DIST_BYTES, T2P
    else:
        bound, extra, msg_type = np.full(len(u1), np.inf), 0, T2
    world.emit_run(dest, block.owner_of[u2], "feature_opt", (u2, u1, bound),
                   block.message_bytes(rows, extra), msg_type)


def h_feature_opt(world: YGMWorld, dest: np.ndarray, u2: np.ndarray,
                  u1: np.ndarray, bound: np.ndarray) -> None:
    """Runs at owner(u2): Type 2+/2 received; compute once, update u2's
    row locally, and reply (Type 3) only when useful."""
    block = block_of(world)
    opts = block.config.comm_opts
    rows = block.rows(u2, dest)
    if opts.redundancy_check:
        # Section 4.3.2 applied on the u2 side before Type 3.
        apart = ~row_holds(block.ids, rows, u1)
        dest, u2, u1, bound, rows = (dest[apart], u2[apart], u1[apart],
                                     bound[apart], rows[apart])
    if not len(rows):
        return
    d = _evaluate(world, block, dest, u2, u1, u1)
    _tally(world, "updates", _offer(world, block, dest, rows, u1, d))
    if opts.distance_pruning:
        # Section 4.3.3: u1 could not accept this distance anyway.
        useful = d < bound
        dest, u1, u2, d = dest[useful], u1[useful], u2[useful], d[useful]
    world.emit_run(dest, block.owner_of[u1], "distance_reply", (u1, u2, d),
                   2 * ID_BYTES + DIST_BYTES, T3)


def h_distance_reply(world: YGMWorld, dest: np.ndarray, u1: np.ndarray,
                     u2: np.ndarray, d: np.ndarray) -> None:
    """Runs at owner(u1): Type 3 received; update u1's row."""
    block = block_of(world)
    _tally(world, "updates",
           _offer(world, block, dest, block.rows(u1, dest), u2, d))


# -- graph optimization (Section 4.5) ---------------------------------------------


def h_opt_rev_edge(world: YGMWorld, dest: np.ndarray, u: np.ndarray,
                   v: np.ndarray, d: np.ndarray) -> None:
    """Runs at owner(u): receive the reversed edges u -> v."""
    block = block_of(world)
    _to_shards(world, block, dest, "opt_edges", block.rows(u, dest), v, d)
    _charge(world, np.bincount(dest), world.cluster.net.compute_per_update)


def register_dnnd_handlers(world: YGMWorld) -> None:
    """Register the ten DNND handlers on a world (once per world) — the
    same function objects on a driver-side and a worker-side world."""
    world.register_batch_handlers(
        init_req=h_init_req,
        init_resp=h_init_resp,
        rev_new=h_rev_new,
        rev_old=h_rev_old,
        check_unopt=h_check_unopt,
        feature_unopt=h_feature_unopt,
        check_opt=h_check_opt,
        feature_opt=h_feature_opt,
        distance_reply=h_distance_reply,
        opt_rev_edge=h_opt_rev_edge,
    )


# ---------------------------------------------------------------------------
# The rank host: what executes the driver's commands over a world's ranks.
# ---------------------------------------------------------------------------


class RankHost:
    """Hosts some of a world's ranks — their block and shards, and the
    handlers the world runs over all of them at once — and executes the
    driver's commands over them.  The sim driver holds one host over
    every rank of its world; each process worker holds one over the
    ranks it owns (:func:`worker_host`).  The only place
    :data:`SECTIONS` and :data:`SHARD_OPS` are looked up.

    Every command returns ``rank -> value``:

    ``run_section(name, params)``
        a :data:`SECTIONS` entry as an SPMD section on the hosted *live*
        ranks (:meth:`YGMWorld.run_on_all`);
    ``command(op, payload)``
        a :data:`SHARD_OPS` entry on every hosted rank, excluded or not;
        a ``by_rank`` payload entry holds per-rank positional arguments;
    ``command("build_shards" | "exclude" | "readmit", payload)``
        the world-level calls a driver makes directly on a world it
        holds and by command on one it does not.
    """

    def __init__(self, world: YGMWorld, ranks: Iterable[int], data: Any,
                 config: DNNDConfig, partitioner: Partitioner) -> None:
        self.world = world
        self.ranks = [int(r) for r in ranks]
        self.data = data
        self.config = config
        register_dnnd_handlers(world)
        self._commands: Dict[str, Callable[..., Any]] = {
            "build_shards": self.build_shards,
            "exclude": world.exclude_ranks,
            "readmit": world.readmit_ranks,
        }
        self.build_shards(partitioner)

    def _ctxs(self) -> List[RankContext]:
        return [self.world.ranks[r] for r in self.ranks]

    def dispatch(self, cmd: str, payload: dict | None) -> Any:
        """A process worker's command loop ends here."""
        if cmd == "section":
            return self.run_section(payload["name"], payload["params"])
        return self.command(cmd, payload)

    def run_section(self, name: str, params: dict | None = None
                    ) -> Dict[int, Any]:
        fn = SECTIONS.get(name)
        if fn is None:
            raise RuntimeStateError(f"unknown section {name!r}")
        params = params or {}
        out: Dict[int, Any] = {}

        def run(ctx: RankContext) -> None:
            out[ctx.rank] = fn(ctx, **params)

        self.world.run_on_all(run, self.ranks)
        return out

    def command(self, cmd: str, payload: dict | None = None) -> Any:
        payload = dict(payload or {})
        fn = self._commands.get(cmd)
        if fn is not None:
            return fn(**payload)
        op = SHARD_OPS.get(cmd)
        if op is None:
            raise RuntimeStateError(f"unknown host command {cmd!r}")
        by_rank = payload.pop("by_rank", {})
        return {ctx.rank: op(ctx, *by_rank.get(ctx.rank, ()), **payload)
                for ctx in self._ctxs()}

    def build_shards(self, partitioner: Partitioner) -> None:
        """(Re)build the hosted shards under ``partitioner`` — at
        construction, on recovery, and when the repartition pass swaps
        the ownership layer.  Neighbor rows are restored separately
        (``ckpt_set``)."""
        build_shards(self._ctxs(), partitioner, self.data, self.config)


def worker_host(comm, params: dict) -> RankHost:
    """Bootstrap of a process worker (named in the driver's
    :meth:`ProcessTransport.start`): a host over the ranks ``comm`` owns,
    around an in-process :class:`YGMWorld` on the worker's transport,
    built with the driver's world options.  The worker's transport gets
    its own injector for the plan's network faults — seeded per
    worker; the crashes stay with the driver, whose injector is the one
    crash clock.  ``params["data"]`` is the driver's dataset view itself
    — inherited copy-on-write under ``fork``, unpickled once under
    ``spawn`` / ``forkserver``."""
    config = params["config"]
    plan = params["fault_plan"]
    if plan is not None:
        comm.transport.injector = make_injector(
            replace(plan, crashes=(),
                    seed=splitmix64(plan.seed + comm.worker_id)),
            comm.transport.world_size)
    world = YGMWorld(comm.transport, **params["world"])
    return RankHost(world, comm.owned, params["data"], config,
                    params["partitioner"])
