"""DNND's rank program (Section 4): rank-local state, message handlers,
SPMD sections — written once — and the host that runs them.

DNND partitions vertices over ranks; each rank holds its vertices' ids
and neighbor rows and reads features from the one dataset view of its
address space.  This module is
the only home of what a rank *does*, and :class:`RankHost` the only
place its tables (:data:`SECTIONS`, :data:`SHARD_OPS`) are looked up:
the sim driver holds one host over every rank, each process worker one
over the ranks it owns, and the driver — which owns the schedule and
every barrier — reaches both through the same ``rank -> value``
commands.  A host's state lives in one place — its rank-contiguous
``(n_host, k)`` id / distance / flag block and the iteration's scratch
(:class:`HostBlock`) — and the rank program is written once, per host:
each section and each handler is called once over all the host's ranks
and works on the block in array operations, the rank of a row being a
column.  The message chain is *columnar*: sections stage runs of
messages as one array per argument (:meth:`HostBlock.stage`; the
driver's :func:`pump` hands them to :meth:`YGMWorld.emit_run` wave by
wave), and each message type has exactly one handler, which a host
calls once per delivery round over the messages of all its ranks
(DESIGN.md section 10).

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
or receives once as a start argument — and a host copies none of it.  A
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
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..config import DNNDConfig
from ..distances.counting import CountingMetric
from ..errors import PartitionError, RuntimeStateError, StoreError
from ..runtime.faults import make_injector
from ..runtime.partition import Partitioner, splitmix64, splitmix64_array
from ..runtime.ygm import RankContext, YGMWorld, check_run, uniform_size
from ..types import DIST_BYTES, ID_BYTES
from .heap import EMPTY, merge_rows, row_holds
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
NO_ROWS = np.empty(0, dtype=np.int64)
NO_ENTRIES: Columns = (NO_ROWS, NO_ROWS)


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
    """Everything the ranks one host holds, in one place: which vertices
    each owns, their neighbor rows, and the iteration's scratch.  A
    host's sections and handler runs span all of its (live) ranks and
    work on this block, the rank of a row being a column
    (``rank_of[rows]``).

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
        :meth:`features` reads it (and :meth:`build`, once, for the
        ``norms`` and ``lengths`` tables).
    norms:
        Per-vertex norm table of the whole dataset (by global id), made
        once per block by the metric's kernel
        (:meth:`CountingMetric.norm_table`) and read by every paired
        distance, or ``None`` when the kernel reads no norms.
    lengths:
        Record length of every vertex (by global id) for sparse data,
        the dimension a distance to it is charged at; ``None`` for
        dense data.
    feature_bytes:
        Modeled wire size of a feature vector: one int for dense data,
        one entry per host row for ragged sparse records.
    ids, dists, flags:
        ``(n_host, k)`` matrices: row ``i`` is the neighbor list ``G_v``
        of vertex ``global_ids[i]`` (vertex and neighbor list
        co-located, Section 4) under :mod:`.heap`'s row invariant;
        handlers update many rows of every hosted rank at once with
        :func:`~.heap.merge_rows`.
    check_seen:
        Sorted ``row * n + other`` keys of the pairs already
        neighbor-checked this iteration (``comm_opts.check_dedup``,
        Section 4.3.2 applied to compute), ``row`` the host row of the
        checking side.
    new, old:
        The iteration's candidate lists (Algorithm 1's ``new[v]`` /
        ``old[v]``) as :data:`Columns` ``(rows, values)`` sorted by host
        row — the form reversed entries arrive in (``rev_new`` /
        ``rev_old`` hold the received chunks), so ``sample``,
        ``reverse``, ``union`` and ``check`` work on one representation
        and the block holds no per-vertex Python object.
    waves:
        ``wave -> runs``: the column runs ``(src, dests, handler,
        columns, nbytes, msg_type)`` the sections staged (:meth:`stage`),
        in emission order; the ``pump`` section ships the lowest wave.
    queued:
        ``queued[rank]``: the messages the rank staged since the waves
        last drained.
    opt_edges:
        Optimization-phase scratch: reversed edges received, as
        ``(rows, neighbor ids, dists)`` column chunks.
    sanitizer:
        The world's ownership sanitizer (``None`` when off), which
        :meth:`check_write` consults.
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
    queued: np.ndarray
    sanitizer: Any = None
    norms: Optional[np.ndarray] = None
    lengths: Optional[np.ndarray] = None
    check_seen: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))
    new: Columns = NO_ENTRIES
    old: Columns = NO_ENTRIES
    rev_new: list = field(default_factory=list)
    rev_old: list = field(default_factory=list)
    waves: dict = field(default_factory=dict)
    opt_edges: list = field(default_factory=list)

    @classmethod
    def build(cls, ranks: List[int], partitioner: Partitioner, data: Any,
              config: DNNDConfig, sanitizer: Any = None) -> "HostBlock":
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
        lengths = None
        if metric.sparse_input:
            feature_bytes = np.array([data[int(g)].nbytes for g in gids],
                                     dtype=np.int64)
            lengths = np.array([len(data[g]) for g in range(len(data))],
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
            norms=metric.norm_table(data), lengths=lengths,
            feature_bytes=feature_bytes,
            ids=np.full(shape, EMPTY, dtype=np.int64),
            dists=np.full(shape, np.inf, dtype=np.float64),
            flags=np.zeros(shape, dtype=bool),
            queued=np.zeros(partitioner.world_size, dtype=np.int64),
            sanitizer=sanitizer)

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

    def of_ranks(self, ranks) -> np.ndarray:
        """Mask of the host rows ``ranks`` hold."""
        return np.isin(self.rank_of, ranks)

    def slices(self):
        """``(rank, lo, hi)`` per hosted rank: its host rows ``lo:hi``."""
        bounds = self.starts.tolist()
        return zip(self.ranks.tolist(), bounds[:-1], bounds[1:])

    def check_write(self, rows: np.ndarray, what: str) -> None:
        """The one ownership check of a row write, under the sanitizer:
        every host row written must belong to a rank the running code
        may touch — a handler's ``dest`` ranks, a section's live ranks —
        else :class:`~repro.errors.OwnershipViolationError` naming
        ``what`` and the handler or section."""
        if self.sanitizer is not None:
            for owner in np.unique(self.rank_of[rows]).tolist():
                self.sanitizer.check_access(owner, f"neighbor row ({what})")

    def features(self, gids: Iterable[int]):
        """Features of *any* vertices, resolved from the dataset view by
        global id — what a feature-carrying message stands for, and an
        own vertex's feature alike: a gathered ``(len, dim)`` copy of
        their rows for dense data, a list of their records for sparse
        data (the metric's scalar loop).  Their norms are not recomputed
        from it: a paired distance reads them from :attr:`norms`."""
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

    def edges(self, mask: np.ndarray | None = None
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every neighbor entry held (in the host rows ``mask`` holds),
        as ``(rows, ids, dists)`` columns, row-major."""
        held = self.ids != EMPTY
        if mask is not None:
            held &= mask[:, None]
        rows, slots = np.nonzero(held)
        return rows, self.ids[rows, slots], self.dists[rows, slots]

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

    def forget(self) -> None:
        """Start an iteration from empty scratch: no checked pairs, no
        staged waves (a replay must not ship what the aborted iteration
        left staged), no candidate lists (``sample`` re-forms them)."""
        self.check_seen = NO_ROWS
        self.waves = {}
        self.queued = np.zeros_like(self.queued)
        self.new = self.old = NO_ENTRIES
        self.rev_new = []
        self.rev_old = []

    def wave_of(self, place: np.ndarray) -> np.ndarray:
        """Wave of the messages at ``place`` in their rank's queue:
        ``batch_size`` global requests a wave, one wave when it is 0."""
        batch = self.config.batch_size
        if not batch:
            return np.zeros_like(place)
        return place // max(1, batch // len(self.queued))

    def stage(self, src: np.ndarray, dests: np.ndarray, handler: str,
              columns: tuple, nbytes, msg_type: str) -> None:
        """Stage a run of messages — the arguments of
        :meth:`YGMWorld.emit_run`, ``src`` the sending rank of each row —
        for the driver to ship, as slices of the run in emission order
        filed under their waves (:meth:`wave_of` of each message's place
        among its rank's queued messages).

        An emitting section never sends: it stages, and the driver then
        runs the :func:`pump` section, one wave per call, with a barrier
        after each — Section 4.4's application-level batching, one rule
        for every phase and every backend.  The waves matter for
        *communication volume*, not just buffer memory: the redundancy
        check and the distance-pruning bound read row state at delivery
        time, so a wave's Type 3 feedback tightens the bounds seen by
        the next wave.  Emitting a whole neighbor-check iteration up
        front triples the Type 3 traffic (measured at n=2000: 176k vs
        48k replies)."""
        nbytes = check_run(handler, dests, (*columns, src), nbytes)
        if not len(dests):
            return
        run = (src, dests, handler, columns, nbytes, msg_type)
        have = np.bincount(src, minlength=len(self.queued))
        sends = have > 0
        wave = self.wave_of(self.queued)
        if (wave[sends] == self.wave_of(self.queued + have - 1)[sends]).all():
            # Every rank's messages fit in the wave it is filling.
            wave = wave[src]
        else:
            # A message's place among its rank's queued ones (ranks in
            # the narrowest dtype: the stable sort is a radix sort).
            order = np.argsort(src.astype(np.min_scalar_type(len(have) - 1)),
                               kind="stable")
            place = np.empty(len(src), dtype=np.int64)
            place[order] = rank_in_group(src[order], have)
            wave = self.wave_of(place + self.queued[src])
        self.queued += have
        first, last = int(wave.min()), int(wave.max())
        if first < last:
            # In the narrowest dtype the stable sort is a radix sort.
            order = np.argsort((wave - first).astype(
                np.min_scalar_type(last - first)), kind="stable")
            run, wave = _part(run, order), wave[order]
        cuts = np.searchsorted(wave, np.arange(first, last + 2))
        for w, lo, hi in zip(range(first, last + 1), cuts[:-1], cuts[1:]):
            if lo < hi:
                self.waves.setdefault(w, []).append(_part(run, slice(lo, hi)))


def _part(run: tuple, index: np.ndarray) -> tuple:
    """The rows ``index`` selects of a staged run."""
    src, dests, handler, columns, nbytes, msg_type = run
    return (src[index], dests[index], handler,
            tuple(col[index] for col in columns),
            nbytes if uniform_size(nbytes) else nbytes[index], msg_type)


def block_of(world: YGMWorld) -> HostBlock:
    return world.state["block"]


def build_shards(ctxs: Iterable[RankContext], partitioner: Partitioner,
                 data: Any, config: DNNDConfig) -> None:
    """Build the block of the ranks one host covers (the sim driver's:
    all of them; a process worker's: the ranks it owns) over its
    dataset view."""
    ranks = sorted(ctx.rank for ctx in ctxs)
    world = ctxs[0].world
    world.state["block"] = HostBlock.build(
        ranks, partitioner, data, config, sanitizer=world.sanitizer)


def pump(world: YGMWorld, live: List[int]) -> Dict[int, int]:
    """Ship the lowest staged wave, one :meth:`YGMWorld.emit_run` per
    run; returns ``rank -> how many of its waves stay staged``."""
    block = block_of(world)
    front = min(block.waves, default=0)
    for run in block.waves.pop(front, ()):
        world.emit_run(*run)
    # A rank's waves are 0 .. the wave of its last queued message.
    left = np.maximum(block.wave_of(block.queued - 1) - front, 0)
    if not block.waves:
        block.queued = np.zeros_like(block.queued)
    return {rank: int(left[rank]) for rank in live}


def type1_pairs(new: Columns, old: Columns, n_rows: int,
                one_sided: bool) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Algorithm 1 lines 17-22 for every vertex at once: the ``(u1, u2)``
    neighbor-check requests among each vertex's new/old candidates —
    each new-new pair once (``u1 < u2`` when a row's new values ascend,
    line 18), every new-old pair; both endpoints are asked under the
    unoptimized two-sided pattern.  Returns ``(rows, u1, u2)``, ``rows``
    the center vertex's row of each request.

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
    rows = np.repeat(vertex, after)[distinct]
    u1, u2 = u1[distinct], u2[distinct]
    if one_sided:
        return rows, u1, u2
    return (np.concatenate([rows, rows]), np.concatenate([u1, u2]),
            np.concatenate([u2, u1]))


# ---------------------------------------------------------------------------
# SPMD sections: the hosted live ranks' share of a phase, as functions of
# ``(world, live, **params)`` — ``live`` the host's ranks not excluded —
# called once per host and working on its block, the rank of a row a
# column, as handlers do.  None takes a barrier, and those that send only
# stage.  Every random choice is a :func:`draw_key` of what it is made
# for.
# ---------------------------------------------------------------------------


def init(world: YGMWorld, live: List[int]) -> None:
    """Algorithm 1 lines 2-5 via the Section 4.1 async pattern: ``K``
    distinct random others per vertex — Floyd's subset sampling over the
    ``n - 1`` other vertices, one keyed draw per step for every vertex
    at once."""
    block = block_of(world)
    cfg = block.config.nnd
    rows = np.flatnonzero(block.of_ranks(live))
    gids = block.global_ids[rows]
    others = len(block.row_of) - 1
    picks = np.empty((len(rows), cfg.k), dtype=np.int64)
    for j in range(cfg.k):
        top = others - cfg.k + j
        draw = (draw_key(cfg.seed, INIT, 0, gids, j)
                % np.uint64(top + 1)).astype(np.int64)
        taken = (picks[:, :j] == draw[:, None]).any(axis=1)
        picks[:, j] = np.where(taken, top, draw)
    u = (picks + (picks >= gids[:, None])).ravel()      # skip v itself
    rows = np.repeat(rows, cfg.k)
    block.stage(block.rank_of[rows], block.owner_of[u], "init_req",
                (block.global_ids[rows], u), block.message_bytes(rows),
                "init_req")


def sample(world: YGMWorld, live: List[int], iteration: int) -> None:
    """Local old/new sampling (lines 8-10): no communication."""
    block = block_of(world)
    cfg = block.config.nnd
    block.forget()
    rows, slots = np.nonzero((block.ids != EMPTY)
                             & block.of_ranks(live)[:, None])
    values = block.ids[rows, slots]
    fresh = block.flags[rows, slots]
    block.old = rows[~fresh], values[~fresh]
    rows, slots, values = rows[fresh], slots[fresh], values[fresh]
    taken = sample_smallest(cfg.seed, SAMPLE, iteration,
                            block.global_ids[rows], values, cfg.sample_size)
    block.new = rows[taken], values[taken]
    # Line 10: what was taken is old from now on.
    block.check_write(rows[taken], "sample")
    block.flags[rows[taken], slots[taken]] = False
    _charge(world, np.bincount(block.rank_of[np.concatenate(
        (block.new[0], block.old[0]))], minlength=world.world_size),
        world.cluster.net.compute_per_update)


def _reversed_entries(block: HostBlock, cands: Columns,
                      iteration: int) -> Tuple[np.ndarray, ...]:
    """``(rows, u, v)`` for every entry ``u`` of the list of vertex
    ``v`` (host row ``rows``), in keyed order when shuffling (Section
    4.2: no synchronized bursts at one rank), else in list order."""
    rows, u = cands
    v = block.global_ids[rows]
    if block.config.shuffle_reverse_destinations:
        keys = draw_key(block.config.nnd.seed, SHUFFLE, iteration, v, u)
        order = np.argsort(keys)  # repro: ignore[REP105] the (v, u) pairs are distinct, so are their keys
        rows, u, v = rows[order], u[order], v[order]
    return rows, u, v


def reverse(world: YGMWorld, live: List[int], iteration: int) -> None:
    """Reversed-matrix exchange (Section 4.2)."""
    block = block_of(world)
    rows, u, v = _reversed_entries(block, block.new, iteration)
    block.stage(block.rank_of[rows], block.owner_of[u], "rev_new", (u, v),
                2 * ID_BYTES, "reverse")
    rows, u, v = _reversed_entries(block, block.old, iteration)
    block.stage(block.rank_of[rows], block.owner_of[u], "rev_old", (u, v),
                2 * ID_BYTES, "reverse")


def _union(block: HostBlock, own: Columns, chunks: list,
           iteration: int) -> Columns:
    """``own[v] ∪ Sample(reversed[v], rho K)`` for every row, ascending
    by ``(row, id)``."""
    n = len(block.row_of)
    rows, values = (np.concatenate(col) for col in zip(NO_ENTRIES, *chunks))
    drawn = sample_smallest(block.config.nnd.seed, UNION, iteration,
                            block.global_ids[rows], values,
                            block.config.nnd.sample_size)
    return np.divmod(distinct_sorted(
        np.concatenate([own[0], rows[drawn]]) * n
        + np.concatenate([own[1], values[drawn]])), n)


def union(world: YGMWorld, live: List[int], iteration: int) -> None:
    """Union with sampled reversed lists (lines 14-16)."""
    block = block_of(world)
    block.new = _union(block, block.new, block.rev_new, iteration)
    block.old = _union(block, block.old, block.rev_old, iteration)


def check(world: YGMWorld, live: List[int]) -> None:
    """Neighbor checks: the Type 1 requests (pair generation reads only
    iteration-start new/old lists)."""
    block = block_of(world)
    one_sided = block.config.comm_opts.one_sided
    rows, u1, u2 = type1_pairs(block.new, block.old, len(block.global_ids),
                               one_sided)
    block.stage(block.rank_of[rows], block.owner_of[u1],
                "check_opt" if one_sided else "check_unopt", (u1, u2),
                2 * ID_BYTES, T1)


def repair_reset(world: YGMWorld, live: List[int], ranks: List[int]) -> None:
    """Degraded-repair stage 1: a replacement node comes back with the
    dataset view and empty neighbor rows (the iteration scratch is
    dropped when the next iteration starts)."""
    block = block_of(world)
    gone = [rank for rank in live if rank in ranks]
    rows = np.flatnonzero(block.of_ranks(gone))
    block.check_write(rows, "repair_reset")
    block.ids[rows] = EMPTY
    block.dists[rows] = np.inf
    block.flags[rows] = False


def repair_reinit(world: YGMWorld, live: List[int], ranks: List[int]) -> None:
    """Degraded-repair stage 2: repaired vertices replay the keyed init
    draws (the same candidates as a fault-free init)."""
    init(world, [rank for rank in live if rank in ranks])


def repair_donate(world: YGMWorld, live: List[int], ranks: List[int]) -> None:
    """Degraded-repair stage 3: surviving ranks push the edges they
    already hold that land on repaired vertices — u's neighbor list died
    with its rank; the survivor donates the reverse edge ``(u, v)``."""
    block = block_of(world)
    rows, u, d = block.edges(block.of_ranks(
        [rank for rank in live if rank not in ranks]))
    lost = np.isin(block.owner_of[u], ranks)
    rows, u, d = rows[lost], u[lost], d[lost]
    block.stage(block.rank_of[rows], block.owner_of[u], "init_resp",
                (u, block.global_ids[rows], d), 2 * ID_BYTES + DIST_BYTES,
                "init_resp")


def opt_seed(world: YGMWorld, live: List[int]) -> None:
    """Section 4.5 stage 1a: start the reverse-merge with no reversed
    edges received (the forward edges are the rows themselves)."""
    block_of(world).opt_edges = []


def opt_rev(world: YGMWorld, live: List[int]) -> None:
    """Section 4.5 stage 1b: ship reversed edges to their owners."""
    block = block_of(world)
    rows, u, d = block.edges(block.of_ranks(live))
    block.stage(block.rank_of[rows], block.owner_of[u], "opt_rev_edge",
                (u, block.global_ids[rows], d), 2 * ID_BYTES + 4, "opt_rev")


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
# Shard-state ops: read or write the hosted ranks' rows between phases,
# as functions of ``(world, **payload)`` returning ``rank -> value``, a
# rank's value read from its block slice ``starts[j]:starts[j + 1]``.
# Unlike sections they cover every hosted rank, excluded or not.
# ---------------------------------------------------------------------------


def ckpt_get(world: YGMWorld) -> Dict[int, tuple]:
    """Snapshot each rank's neighbor rows as ``(global_ids, ids, dists,
    flags)``.  Slot order carries no meaning beyond the row invariant
    (sampling keys entries by id), so any valid layout of the same
    entries resumes to the same build."""
    block = block_of(world)
    return {rank: (block.global_ids[lo:hi], block.ids[lo:hi].copy(),
                   block.dists[lo:hi].copy(), block.flags[lo:hi].copy())
            for rank, lo, hi in block.slices()}


def ckpt_set(world: YGMWorld, by_rank: Dict[int, tuple]) -> Dict[int, None]:
    """Restore each rank's neighbor rows from its ``(ids, dists,
    flags)`` rows of a :func:`ckpt_get` snapshot (row ``i`` belongs to
    ``global_ids[i]``).  The driver validated the rows when it loaded
    them."""
    block = block_of(world)
    for rank, lo, hi in block.slices():
        ids, dists, flags = by_rank[rank]
        if ids.shape != block.ids[lo:hi].shape:
            raise StoreError(
                f"checkpoint slice shape {ids.shape} does not match rank "
                f"{rank} shard {block.ids[lo:hi].shape}")
        block.check_write(np.arange(lo, hi), "ckpt_set")
        block.ids[lo:hi] = ids
        block.dists[lo:hi] = dists
        block.flags[lo:hi] = flags
    return dict.fromkeys(block.ranks.tolist())


def gather_rows(world: YGMWorld) -> Dict[int, tuple]:
    """``rank -> (global_ids, ids, dists)`` with every row sorted
    closest first."""
    block = block_of(world)
    order = np.lexsort((block.ids, block.dists), axis=1)
    ids = np.take_along_axis(block.ids, order, axis=1)
    dists = np.take_along_axis(block.dists, order, axis=1)
    return {rank: (block.global_ids[lo:hi], ids[lo:hi], dists[lo:hi])
            for rank, lo, hi in block.slices()}


def opt_collect(world: YGMWorld, max_degree: int) -> Dict[int, tuple]:
    """Section 4.5 stage 2: merge each vertex's forward and reversed
    edges (closest copy of a repeated neighbor) and prune the list to
    its ``max_degree`` closest.  Returns ``rank -> (global_ids, counts,
    neighbor ids, dists)``: vertex ``global_ids[i]`` keeps ``counts[i]``
    edges, and the edge columns hold the vertices' runs back to back,
    each closest first."""
    block = block_of(world)
    rows, nbr, d = (np.concatenate(col)
                    for col in zip(block.edges(), *block.opt_edges))
    order = np.lexsort((d, nbr, rows))
    rows, nbr, d = rows[order], nbr[order], d[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (nbr[1:] != nbr[:-1])
    rows, nbr, d = rows[first], nbr[first], d[first]
    _charge(world, np.bincount(block.rank_of[rows],
                               minlength=world.world_size),
            world.cluster.net.compute_per_update)
    order = np.lexsort((nbr, d, rows))
    rows, nbr, d = rows[order], nbr[order], d[order]
    counts = np.bincount(rows, minlength=len(block.global_ids))
    place = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
    kept = place < max_degree
    rows, nbr, d = rows[kept], nbr[kept], d[kept]
    cut = np.searchsorted(rows, block.starts).tolist()
    counts = np.minimum(counts, max_degree)
    return {rank: (block.global_ids[lo:hi], counts[lo:hi],
                   nbr[cut[j]:cut[j + 1]], d[cut[j]:cut[j + 1]])
            for j, (rank, lo, hi) in enumerate(block.slices())}


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
    :data:`_EVAL_BYTES`, with the rows' norms read from the block's
    table, charged to row ``i``'s rank at the dimension of
    ``carried[i]`` (the features the messages carried)."""
    metric = block.metric
    norms = block.norms
    flops = metric.tile_flops
    # Sparse records are not chunked: their kernel is a scalar loop.
    step = max(1, len(a) if metric.sparse_input
               else _EVAL_BYTES // (2 * block.feature_bytes))
    parts = []
    for lo in range(0, len(a), step):
        ga, gb = a[lo:lo + step], b[lo:lo + step]
        parts.append(np.asarray(metric.rowwise(
            block.features(ga), block.features(gb),
            norms=None if norms is None else (norms[ga], norms[gb])),
            dtype=np.float64))
    d = parts[0] if len(parts) == 1 else np.concatenate(parts)
    evals = np.bincount(dest)
    _tally(world, "distance.evals", evals)
    flops = metric.tile_flops - flops
    if flops:  # linear in the rows of a call: split by rows
        _tally(world, "kernel.tile_flops", evals * flops // len(d))
    if world.cluster.ledger.enabled:
        net = world.cluster.net
        if metric.sparse_input:  # ragged: each at its own length
            cost = np.bincount(
                dest, weights=net.distance_costs(block.lengths[carried]))
            for rank in np.flatnonzero(evals).tolist():
                world.cluster.ledger.charge(rank, float(cost[rank]))
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
    block.check_write(rows, "merge_rows")
    touched, accepted = merge_rows(block.ids, block.dists, block.flags,
                                   rows, cand, d)
    return np.bincount(block.rank_of[touched], weights=accepted,
                       minlength=len(offered)).astype(np.int64)


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
    block.rev_new.append((block.rows(u, dest), v))


def h_rev_old(world: YGMWorld, dest: np.ndarray, u: np.ndarray,
              v: np.ndarray) -> None:
    block = block_of(world)
    block.rev_old.append((block.rows(u, dest), v))


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
    block.opt_edges.append((block.rows(u, dest), v, d))
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
    """Hosts some of a world's ranks — their block, and the handlers the
    world runs over all of them at once — and executes the driver's
    commands over them.  The sim driver holds one host over every rank
    of its world; each process worker holds one over the ranks it owns
    (:func:`worker_host`).  The only place :data:`SECTIONS` and
    :data:`SHARD_OPS` are looked up.

    Every command returns ``rank -> value``:

    ``run_section(name, params)``
        a :data:`SECTIONS` entry, called once over the hosted *live*
        ranks as one SPMD section (:meth:`YGMWorld.section`);
    ``command(op, payload)``
        a :data:`SHARD_OPS` entry over every hosted rank, excluded or
        not;
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
        world = self.world
        live = [r for r in self.ranks if r not in world.excluded_ranks]
        with world.section(live, name):
            out = fn(world, live, **(params or {}))
        return dict.fromkeys(live) if out is None else out

    def command(self, cmd: str, payload: dict | None = None) -> Any:
        payload = payload or {}
        fn = self._commands.get(cmd)
        if fn is not None:
            return fn(**payload)
        op = SHARD_OPS.get(cmd)
        if op is None:
            raise RuntimeStateError(f"unknown host command {cmd!r}")
        return op(self.world, **payload)

    def build_shards(self, partitioner: Partitioner) -> None:
        """(Re)build the hosted block under ``partitioner`` — at
        construction, on recovery, and when the repartition pass swaps
        the ownership layer.  Neighbor rows are restored separately
        (``ckpt_set``)."""
        build_shards([self.world.ranks[r] for r in self.ranks], partitioner,
                     self.data, self.config)


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
