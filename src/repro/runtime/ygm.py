"""YGM-style asynchronous RPC layer (Section 4.1).

YGM's programming model is *fire-and-forget remote procedure calls*: a
sender names a destination rank, a function, and arguments; the function
runs at the destination at some later time; nobody is notified of
completion; a global ``barrier()`` waits until all messages (including
those generated while processing messages) are done.  YGM buffers
messages per destination and ships a buffer when it exceeds a threshold.

:class:`YGMWorld` reproduces those semantics on the simulated cluster:

- ``async_call(src, dest, handler, *args)`` buffers an RPC and records
  it — once — in the per-type message statistics (the Figure 4
  measurement);
  ``emit_run(src, dests, handler, columns, nbytes)`` does the same for a
  whole run of messages to one handler — one array per argument, never
  a tuple per message, ``src`` one rank or a column of them — and is a
  loop of ``async_call`` in every counter and every flush; the run
  stays whole and in emission order, in flight from the moment it is
  sent,
- buffers auto-flush at ``flush_threshold`` messages or
  ``flush_threshold_bytes`` modeled bytes per destination (real YGM
  caps by bytes), charging the sender one latency ``alpha`` per flush
  plus ``beta`` per byte — batching behaviour has a visible cost
  signature.  A buffer is a count: per ``(src, dest)`` pair the
  messages and bytes it holds, in ``(world_size**2,)`` arrays, so a
  run's flushes are arithmetic on them,
- ``barrier()`` flushes everything and drains mailboxes to quiescence,
  running handlers on their destination ranks (which may send more),
  then folds per-rank clocks into the BSP makespan and appends one
  record — what was counted since the previous barrier — to the world's
  barrier log (:mod:`.tracing`); message, fault and per-phase
  statistics are views of that log (``stats``, ``fault_stats``,
  ``phase_stats``, ``stats_for``),
- ``async_count_since_barrier`` counts the requests since the last
  barrier — the quantity the paper's Section 4.4 application-level
  batching bounds (DNND's driver bounds it by pumping staged messages
  in chunks; a section never takes a barrier, ``barrier()`` raises
  inside ``section``).

Each rank has a :class:`RankContext`: its rank id, a rank-local state
namespace, a per-rank RNG, a tally of whatever the rank program counts,
and the ability to send further async calls and charge modeled compute
time.  A world *hosts* ranks — the sim world all of them, a process
worker's world the ranks it owns — and the host, not the rank, is the
unit of handler execution.  Every handler is *columnar*
(``register_batch_handler``: ``fn(world, dest, *columns)`` once per
delivery round, over the messages in flight to every hosted rank, in
emission order, with ``dest`` the destination rank of each row — not
sorted — the run rule of :meth:`YGMWorld._process_round`; a lone
``async_call`` to it is a one-row run).  ``register_handler`` is the
per-message form on top of it: the handler's one column holds argument
tuples, and ``fn(ctx, *args)`` runs once per row in arrival order, with
``ctx`` the row's destination :class:`RankContext` — each ``(src,
dest)`` pair's messages in FIFO order.  Host-wide state (what the
hosted ranks share) hangs on ``world.state``.  There is one wire
format: every delivery — a flushed buffer, a local send, with or
without faults or reliable delivery — is one ``bflush`` envelope, and
the envelope is the unit the network perturbs, frames, acks and
retransmits (YGM ships buffers, never single RPCs).  Without an
injector or reliable delivery nothing runs per envelope; with either,
a run's rows are filed under their envelopes' ids once, when it is
sent, and ride in the envelope's item once it is flushed, so a
decision on the item — drop, duplicate, delay, reorder, retransmit —
is one on its rows: they are applied once per copy that arrives, in
the order of its (possibly permuted) entries.

**Reliable delivery mode.**  With a fault injector attached to the
transport (:mod:`.faults`; either backend) the network may drop,
duplicate, delay, or reorder traffic.  ``reliable=True`` attaches the
transport-level recovery layer
(:class:`~repro.runtime.transports.base.ReliableDelivery`) so handler
effects stay *effectively-once*:

- every flushed buffer is framed with a per-``(src, dest)`` sequence
  number — one per buffer, whatever it holds,
- receivers acknowledge sequence numbers positively; acks are batched
  per peer and piggybacked at the end of each delivery round,
- unacknowledged buffers are retransmitted whole after a timeout
  (measured in barrier delivery rounds) with exponential backoff and a
  bounded retry budget — exhausting the budget raises
  :class:`~repro.errors.FaultToleranceError` rather than silently
  corrupting the build,
- receivers remember delivered sequence numbers and suppress duplicate
  envelopes (retransmits and injected duplicates alike), so no handler
  sees a message twice.

**Failure detection.**  Every barrier surfaces
:class:`~repro.errors.RankFailureError` uniformly from any transport
when a rank is known dead (injector crash set or supervisor mark), and —
with ``failure_timeout`` configured in reliable mode — when the
heartbeat detector sees a rank with an overdue unacked frame that has
made no delivery progress for that many rounds.  Detections are counted
as ``faults.detected``; the DNND supervisor decides whether to
recover, exclude (degraded mode via :meth:`YGMWorld.exclude_ranks`), or
abort.

All fault-recovery work is accounted: retransmits and acks appear in
the message statistics (message types ``"retransmit"`` / ``"ack"``) and
in the ``faults.<event>`` counters (:attr:`YGMWorld.fault_stats` is
their typed view), so ablations can report the overhead of reliability.
When no injector is
attached and ``reliable=False`` (the default), none of this machinery
runs and message accounting is byte-for-byte what it always was.

There is one comm path: the sim world runs it inline over a
:class:`~repro.runtime.transports.sim.SimCluster`, and each worker of
the process backend runs the same class unchanged over its
:class:`~repro.runtime.transports.process.WorkerTransport` — fault
injection, reliable delivery and the sanitizer included.  Delivery time
advances in one place, :meth:`YGMWorld.step`: a delivery round, then —
unless the world is idle (nothing applied or queued, nothing unacked,
nothing held back) — a tick that releases due delayed messages and
retransmits overdue ones.  ``barrier()`` loops it; a process worker
runs it once per barrier round, between landing the frames the driver
relays to it in the round's command and shipping its own in the reply,
and reports its ``idle``.

Every counter is counted once, into the open window of the world's
barrier log (``log.window``): the world's message, flush, handler and
local-delivery counts, the reliability layer's and the injector's
events, the transport's collectives and each rank's ``ctx.tally`` all
write there.  The sim world's barrier commits the window into its own
log; a process worker hands it over whole
(:meth:`YGMWorld.export_delta`) in every ``__round__`` reply.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Tuple

import numpy as np

from ..analysis.sanitizer import OwnedState, Sanitizer, sanitizer_requested
from ..errors import RankFailureError, RuntimeStateError
from ..utils.rng import derive_rng
from .instrumentation import Delta, FaultStats, MessageStats
from .metrics import NULL_METRICS, MetricsRegistry
from .tracing import BarrierLog
from .transports.base import ACK_TAG, BATCH_TAG, REL_TAG, Transport, cut

Handler = Callable[..., None]

#: No flushes: ``(pairs, bytes, sequence numbers, generations)``.
_NO_FLUSHES = (np.empty(0, dtype=np.int64),) * 4


def uniform_size(nbytes) -> bool:
    """Whether ``nbytes`` is one modeled size shared by every message of
    a run (any integer scalar, numpy's included) rather than a
    per-message array."""
    return isinstance(nbytes, (int, np.integer))


def check_run(handler: str, dests, columns, nbytes):
    """Validate a run for ``handler`` before anything is buffered or
    staged: every column and a ragged ``nbytes`` must hold one row per
    destination.  Returns ``nbytes`` as a Python int when it is uniform,
    else as an array."""
    total = len(dests)
    for col in columns:
        if np.shape(col)[:1] != (total,):
            raise RuntimeStateError(
                f"run to handler {handler!r}: a column of shape "
                f"{np.shape(col)} for {total} destinations")
    if uniform_size(nbytes):
        return int(nbytes)
    if np.shape(nbytes) != (total,):
        raise RuntimeStateError(
            f"run to handler {handler!r}: nbytes of shape "
            f"{np.shape(nbytes)} for {total} destinations")
    return np.asarray(nbytes)


class RankContext:
    """What a handler sees as "this MPI rank".

    Attributes
    ----------
    rank:
        This rank's id in ``[0, world_size)``.
    state:
        Rank-local storage (what a host's ranks share lives in the
        world's ``state``).
    rng:
        A per-rank deterministic generator.
    tally:
        Whatever the rank program counts (``ctx.tally[name] += n``): this
        rank's share of the open window of the world's barrier log.
    """

    def __init__(self, world: "YGMWorld", rank: int, seed: int) -> None:
        self.world = world
        self.rank = int(rank)
        # Sanitizing worlds tag the namespace with its owner so handler
        # code reaching into another rank's state raises; otherwise a
        # plain dict keeps the hot path untouched.
        self.state: Dict[str, Any] = (
            OwnedState(world.sanitizer, rank) if world.sanitizer is not None
            else {})
        self.rng: np.random.Generator = derive_rng(seed, rank)
        self.tally: Counter = world.log.window.ranks.setdefault(
            self.rank, Counter())

    @property
    def world_size(self) -> int:
        return self.world.world_size

    def async_call(self, dest: int, handler: str, *args: Any,
                   nbytes: int = 0, msg_type: str = "other") -> None:
        """Fire-and-forget RPC to ``dest`` (may be this rank)."""
        self.world.async_call(self.rank, dest, handler, *args,
                              nbytes=nbytes, msg_type=msg_type)

    def charge_compute(self, seconds: float) -> None:
        """Charge modeled compute time to this rank's clock."""
        self.world.cluster.ledger.charge(self.rank, seconds)

    def charge_distance(self, dim: int, count: int = 1) -> None:
        """Charge ``count`` distance evaluations of dimension ``dim``."""
        net = self.world.cluster.net
        self.charge_compute(net.distance_cost(dim) * count)

    def charge_update(self, count: int = 1) -> None:
        """Charge ``count`` neighbor-heap update attempts."""
        net = self.world.cluster.net
        self.charge_compute(net.compute_per_update * count)


class YGMWorld:
    """The simulated YGM communicator.

    Parameters
    ----------
    cluster:
        Underlying simulated MPI cluster.
    flush_threshold:
        Messages buffered per destination before an automatic flush —
        models YGM's internal buffer (Section 4.4: "YGM buffers messages
        internally ... automatically sends messages when its internal
        buffer exceeds a certain threshold").
    seed:
        Root seed for per-rank RNGs.
    reliable:
        Turn on acked, deduplicated, retransmitting delivery (see the
        module docstring).  Without a fault injector this only adds ack
        traffic; with one it masks drop/duplicate/delay/reorder faults.
    retry_timeout:
        Delivery rounds an unacked buffer waits before its first
        retransmit; doubles per attempt up to a cap.
    max_retries:
        Retransmit budget per flushed buffer; exceeding it raises
        :class:`~repro.errors.FaultToleranceError`.
    failure_timeout:
        Delivery rounds without progress after which a rank with an
        overdue unacked frame is declared failed
        (:class:`~repro.errors.RankFailureError`).  ``None`` (default)
        disables the heartbeat detector; it needs ``reliable=True`` for
        the ack signal.
    """

    def __init__(self, cluster: Transport, flush_threshold: int = 1024,
                 flush_threshold_bytes: int = 1 << 20,
                 seed: int = 0, reliable: bool = False,
                 retry_timeout: int = 4, max_retries: int = 32,
                 failure_timeout: int | None = None,
                 sanitize: bool | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        if flush_threshold < 1:
            raise RuntimeStateError("flush_threshold must be >= 1")
        if flush_threshold_bytes < 1:
            raise RuntimeStateError("flush_threshold_bytes must be >= 1")
        if retry_timeout < 1:
            raise RuntimeStateError("retry_timeout must be >= 1")
        if max_retries < 1:
            raise RuntimeStateError("max_retries must be >= 1")
        if failure_timeout is not None and failure_timeout < 1:
            raise RuntimeStateError("failure_timeout must be >= 1")
        # Ownership sanitizer (repro.analysis): None when off, so every
        # runtime guard is a single attribute test.
        if sanitize is None:
            sanitize = sanitizer_requested()
        self.sanitizer: Sanitizer | None = Sanitizer() if sanitize else None
        #: The barrier log: one record per completed :meth:`barrier`, and
        #: the open window every counter of this world is counted into.
        self.log = BarrierLog()
        window = self.log.window
        self._sent = window.messages
        self._counts = window.counts
        cluster.count_into(window.counts)
        # The registry whose counters are a view of the log (and whose
        # clock stamps its records); the shared no-op one when None.
        self.metrics: MetricsRegistry = (
            metrics if metrics is not None else NULL_METRICS)
        if metrics is not None:
            metrics.log = self.log
        self.cluster = cluster
        self.world_size = cluster.world_size
        self.flush_threshold = int(flush_threshold)
        self.flush_threshold_bytes = int(flush_threshold_bytes)
        # Handlers: name -> fn(world, dest, *columns), one array per
        # message argument.  The delivery loop applies all of a round's
        # messages to one of them, over every hosted rank, as a single
        # invocation.
        self._batch_handlers: Dict[str, Handler] = {}
        # The names registered per message (one column of argument tuples).
        self._per_message: set = set()
        # The buffers, one per pair ``src * world_size + dest``: whether
        # it crosses nodes (pure topology), the messages and modeled bytes
        # it holds, how many runs put rows in it, and its generation —
        # how often it was flushed, the envelope id of its rows being
        # ``generation * world_size**2 + pair``.  The rows themselves are
        # in flight from the moment they are sent (Transport.post).
        ws = self.world_size
        self._offnode = np.array([cluster.is_offnode(s, d)
                                  for s in range(ws) for d in range(ws)])
        self._count = np.zeros(ws * ws, dtype=np.int64)
        self._bytes = np.zeros(ws * ws, dtype=np.int64)
        self._runs = np.zeros(ws * ws, dtype=np.int64)
        self._gen = np.zeros(ws * ws, dtype=np.int64)
        # Self-sends carry negative envelope ids, one per run and rank:
        # how many were handed out.
        self._local_keys = 0
        self.ranks: List[RankContext] = [
            RankContext(self, r, seed) for r in range(self.world_size)
        ]
        #: Host-local storage: what the ranks this world hosts share (a
        #: columnar handler's run spans all of them).
        self.state: Dict[str, Any] = {}
        self.async_count_since_barrier = 0
        self._in_barrier = False
        self._in_section = False
        # Reliable delivery: the transport-level state machine (see
        # transports.base.ReliableDelivery).
        self.reliable = bool(reliable)
        self.retry_timeout = int(retry_timeout)
        self.max_retries = int(max_retries)
        self._tick = 0
        if self.reliable:
            self._rel = cluster.enable_reliability(
                window, retry_timeout=self.retry_timeout,
                max_retries=self.max_retries)
        else:
            self._rel = None
        # Failure detection (heartbeat) and degraded-mode state.
        self.failure_timeout = (None if failure_timeout is None
                                else int(failure_timeout))
        self._last_progress = [0] * self.world_size
        #: Ranks the supervisor has excluded from the build (degraded
        #: mode); SPMD sections skip them until readmit_ranks().
        self.excluded_ranks: set = set()

    @property
    def injector(self):
        return self.cluster.injector

    # -- handler registry -----------------------------------------------------

    def register_handler(self, name: str, fn: Handler) -> None:
        """Register ``fn`` to run as ``name`` once per message, as
        ``fn(ctx, *args)`` with the destination :class:`RankContext`
        first — a columnar handler over one column of argument tuples
        that applies ``fn`` row by row, in arrival order, row ``i`` as
        ``self.ranks[dest[i]]`` (under the sanitizer, executing *as*
        that rank)."""
        def per_message(world: "YGMWorld", dest: np.ndarray, calls) -> None:
            ranks = world.ranks
            san = world.sanitizer
            for rank, args in zip(dest.tolist(), calls):
                if san is not None:
                    san.active_rank = rank
                fn(ranks[rank], *args)

        self.register_batch_handler(name, per_message)
        self._per_message.add(name)

    def register_handlers(self, **handlers: Handler) -> None:
        for name, fn in handlers.items():
            self.register_handler(name, fn)

    def register_batch_handler(self, name: str, fn: Handler) -> None:
        """Register ``fn`` as the *columnar* handler ``name``.

        ``fn(world, dest, *columns)`` receives this world (the host of
        the destination ranks), the destination rank of every row, and
        one 1-D array per message argument, holding a run of ``name``
        messages — all of them in flight to every rank this world hosts
        in one delivery round, in emission order: ``dest`` is not sorted
        (row ``i`` of every column is message ``i``; a ``(src, dest)``
        pair's messages keep their FIFO order).  Its effect must not
        depend on how a set of messages is split into runs or ordered
        within one — a lone :meth:`async_call` to ``name`` arrives as a
        one-row run.  The arrays are the sender's: read them, never
        write into them.
        """
        if name in self._batch_handlers:
            raise RuntimeStateError(f"handler {name!r} already registered")
        if self.sanitizer is not None:
            # Wrapping at registration keeps the delivery loop identical
            # whether or not the sanitizer is on.
            fn = self.sanitizer.wrap_handler(name, fn)
        self._batch_handlers[name] = fn

    def register_batch_handlers(self, **handlers: Handler) -> None:
        for name, fn in handlers.items():
            self.register_batch_handler(name, fn)

    # -- phases (stats scoping) -------------------------------------------------

    def set_phase(self, phase: str, iteration: int | None = None) -> None:
        """Label the barrier records that follow with ``phase`` (and the
        NN-Descent ``iteration`` the driver is in)."""
        self.log.enter(phase, iteration)

    @property
    def stats(self) -> MessageStats:
        """Messages by type so far (a view of the barrier log)."""
        return self.log.live().messages

    @property
    def fault_stats(self) -> FaultStats:
        """Fault and recovery events so far (a view of the barrier log)."""
        return FaultStats(**self.log.total_fault_events())

    @property
    def phase_stats(self) -> Dict[str, MessageStats]:
        return self.log.phase_stats()

    def stats_for(self, phase: str) -> MessageStats:
        return self.phase_stats.get(phase, MessageStats())

    def export_delta(self) -> Delta:
        """Hand over the open window whole — what this world counted
        since the last call: messages by type, flushes, handler
        invocations, local deliveries, fault and recovery events, and
        per rank what the rank program tallied.  A process worker ships
        it to the driver's log; its own log never holds a total."""
        return self.log.window.take()

    # -- sending ------------------------------------------------------------

    @property
    def _faulty(self) -> bool:
        """Whether envelopes are perturbed or framed — only then does
        anything run per envelope."""
        return self.cluster.injector is not None or self._rel is not None

    def async_call(self, src: int, dest: int, handler: str, *args: Any,
                   nbytes: int = 0, msg_type: str = "other") -> None:
        """One message: a one-row run — of the argument tuple to a
        per-message handler, of one array per argument otherwise."""
        if handler not in self._batch_handlers:
            raise RuntimeStateError(f"unknown handler {handler!r}")
        if not 0 <= dest < self.world_size:
            raise RuntimeStateError(f"destination rank {dest} out of range")
        if handler in self._per_message:
            row = np.empty(1, dtype=object)
            row[0] = args
            columns: tuple = (row,)
        else:
            columns = tuple(np.array([a]) for a in args)
        self.async_count_since_barrier += 1
        if self._faulty:
            self._send(handler, np.array([src]), np.array([dest]), columns,
                       int(nbytes), msg_type)
            return
        # One message: the buffer arithmetic of _fill on one pair.
        if src == dest:
            self._counts["comm.local_deliveries"] += 1
        else:
            pair = src * self.world_size + dest
            nbytes = int(nbytes)
            self._sent.record(msg_type, nbytes, bool(self._offnode[pair]))
            self._count[pair] += 1
            self._bytes[pair] += nbytes
            if (self._count[pair] >= self.flush_threshold
                    or self._bytes[pair] >= self.flush_threshold_bytes):
                self._charge_flushes(np.array([pair]), self._bytes[[pair]])
                self._count[pair] = self._bytes[pair] = 0
                self._gen[pair] += 1
        self.cluster.post(src, (handler, np.array([dest]), columns))

    def async_call_block(self, src: int, msgs,
                         msg_type: str = "other") -> None:
        """Emit a prepared block of RPCs from ``src`` — a loop of
        :meth:`async_call` over ``(dest, handler, args, nbytes)``."""
        for dest, handler, args, nbytes in msgs:
            self.async_call(src, dest, handler, *args, nbytes=nbytes,
                            msg_type=msg_type)

    def emit_run(self, src, dests: np.ndarray, handler: str,
                 columns: Tuple[np.ndarray, ...], nbytes,
                 msg_type: str = "other") -> None:
        """Emit a run of messages to one handler: message ``i`` goes from
        rank ``src`` — one int, or ``src[i]`` when a host's handler
        replies for several of its ranks at once — to rank ``dests[i]``
        and carries ``columns[0][i], columns[1][i], ...``.  ``nbytes`` is
        the modeled wire size — one integer when every message has the
        same size, else a per-message array.  A column, a ``src`` array
        or a ragged ``nbytes`` whose length is not ``len(dests)`` raises
        :class:`~repro.errors.RuntimeStateError`.

        Semantically a loop of :meth:`async_call`: the same per-type
        message and byte counters, the same count/byte flush thresholds
        (a buffer is flushed at exactly the message that trips one), the
        same ledger charges.  The run stays whole and in emission order
        — its arrays are delivered as given, so a caller must not write
        into them afterwards; the buffers are per-pair counts."""
        if handler not in self._batch_handlers:
            raise RuntimeStateError(f"unknown handler {handler!r}")
        src = np.asarray(src)
        nbytes = check_run(handler, dests,
                           (*columns, src) if src.ndim else columns, nbytes)
        total = len(dests)
        if not total:
            return
        ws = self.world_size
        dests = np.asarray(dests)
        if int(dests.min()) < 0 or int(dests.max()) >= ws:
            raise RuntimeStateError("destination rank out of range")
        if int(src.min()) < 0 or int(src.max()) >= ws:
            raise RuntimeStateError("source rank out of range")
        self.async_count_since_barrier += total
        self._send(handler, src, dests, tuple(columns), nbytes, msg_type)

    def _send(self, handler: str, src: np.ndarray, dests: np.ndarray,
              columns: tuple, nbytes, msg_type: str) -> None:
        """Put a checked run in flight: count it, add it to the
        ``(src, dest)`` buffers — flushing each at exactly the message
        that trips a threshold — and post its rows.  Self-sends never
        touch the wire or the message stats; counting them apart is what
        makes the partition layer's locality measurable."""
        ws = self.world_size
        pair = src * ws + dests
        faulty = self._faulty
        if faulty:
            # Rows in pair order (a stable radix sort: the pairs fit the
            # narrowest dtype, and each pair's rows keep their order), so
            # each envelope's rows are adjacent — the transport files
            # them whole — and the flush arithmetic needs no sort.
            order = np.argsort(pair.astype(np.min_scalar_type(ws * ws - 1)),
                               kind="stable")
            pair = pair[order]
            handler, dests, columns = cut((handler, dests, columns), order)
            src = src[order] if src.ndim else src
            nbytes = nbytes if uniform_size(nbytes) else nbytes[order]
        local = src == dests
        n_local = int(np.count_nonzero(local))
        if n_local:
            self._counts["comm.local_deliveries"] += n_local
        flushed = _NO_FLUSHES
        if n_local < len(dests):
            remote = pair[~local] if n_local else pair
            sizes = (nbytes if uniform_size(nbytes) or not n_local
                     else nbytes[~local])
            sent = np.bincount(remote, minlength=ws * ws)
            size = (sent * sizes if uniform_size(sizes) else
                    np.bincount(remote, weights=sizes,
                                minlength=ws * ws).astype(np.int64))
            off = self._offnode
            self._sent.record_many(msg_type, int(sent.sum()), int(size.sum()),
                                   int(sent[off].sum()), int(size[off].sum()))
            flushed = self._fill(remote, sizes, sent, size, faulty)
        if not faulty:
            self._charge_flushes(*flushed[:2])
            self.cluster.post(src, (handler, dests, columns))
            return
        # Envelope ids: a row of a remote pair carries its envelope's
        # (generation, pair), a self-sent row the fresh negative id of its
        # source rank (``world_size`` of them per run).  Deliveries go out
        # in pair order, as a loop of single sends would ship them.
        env = np.empty(len(dests), dtype=np.int64)
        events = []
        if n_local < len(dests):
            env[~local] = flushed[4] * (ws * ws) + remote
            events = self._envelopes_of(*flushed[:4], sent > 0)
        if n_local:
            senders = np.broadcast_to(src, dests.shape)[local]
            base = self._local_keys + 1
            self._local_keys += ws
            env[local] = -(base + senders)
            for s in np.flatnonzero(np.bincount(senders,
                                                minlength=ws)).tolist():
                events.append((s * ws + s, -(base + s), 0, 0))
            events.sort(key=lambda event: event[0])
        self.cluster.post(src, (handler, dests, columns), env)
        self._ship(events)

    def _fill(self, pair: np.ndarray, nbytes, sent: np.ndarray,
              size: np.ndarray, with_rows: bool) -> tuple:
        """Add remote messages to their buffers: ``pair[i]`` (``src *
        world_size + dest``) of ``nbytes`` (or ``nbytes[i]``) modeled
        bytes, ``sent``/``size`` their counts per pair.  A buffer flushes
        at exactly the message that takes it to ``flush_threshold``
        messages or ``flush_threshold_bytes`` bytes — real YGM caps its
        buffers by *bytes* (a feature-vector message fills one far
        faster than a Type 3 reply), the count is the secondary guard.

        Returns the flushes, in the order a loop of single sends makes
        them (by pair, then in sequence), as ``(pairs, bytes, sequence
        number within the pair, buffer generation)`` — plus, with
        ``with_rows``, the generation of each message's envelope."""
        count, held = self._count, self._bytes
        limit, limit_bytes = self.flush_threshold, self.flush_threshold_bytes
        gen = self._gen
        trip = (count + sent >= limit) | (held + size >= limit_bytes)
        if not trip.any():
            count += sent
            held += size
            return _NO_FLUSHES + ((gen[pair] if with_rows else None),)
        tripped = np.flatnonzero(trip)
        if uniform_size(nbytes) and not with_rows:
            # Every message the same size: the first flush comes after
            # ``take`` messages, each later one after ``step``.
            take = limit - count[tripped]
            step = limit
            if nbytes:
                take = np.minimum(
                    take, -((held[tripped] - limit_bytes) // nbytes))
                step = min(limit, -(-limit_bytes // nbytes))
            over = sent[tripped] - take
            times = 1 + over // step
            pairs = np.repeat(tripped, times)
            seq = np.arange(len(pairs)) - np.repeat(np.cumsum(times) - times,
                                                    times)
            first = np.repeat(held[tripped] + take * nbytes, times)
            flushed = (pairs, np.where(seq == 0, first, step * nbytes), seq,
                       np.repeat(gen[tripped], times) + seq)
            count += sent
            held += size
            count[tripped] = over % step
            held[tripped] = count[tripped] * nbytes
            gen[tripped] += times
            return flushed + (None,)
        return self._fill_in_order(pair, nbytes, sent, size, tripped,
                                   with_rows)

    def _fill_in_order(self, pair, nbytes, sent, size, tripped, with_rows):
        """:meth:`_fill` where the sizes of a pair's messages differ (or
        each message's envelope is wanted): the messages grouped by pair
        in emission order, one pass per flush a pair makes, every
        tripped pair at once."""
        count, held = self._count, self._bytes
        limit, limit_bytes = self.flush_threshold, self.flush_threshold_bytes
        ws2 = len(count)
        if (pair[1:] >= pair[:-1]).all():
            # Already in pair order (a faulty send sorts its rows first).
            order = np.arange(len(pair))
        else:
            # Pairs are below ws * ws: in the narrowest dtype that holds
            # them the stable sort is a radix sort.
            order = np.argsort(pair.astype(np.min_scalar_type(ws2 - 1)),
                               kind="stable")
        total = np.cumsum(np.broadcast_to(nbytes, pair.shape)[order],
                          dtype=np.int64)
        starts = np.cumsum(sent) - sent
        untouched = np.ones(ws2, dtype=bool)
        untouched[tripped] = False
        count[untouched] += sent[untouched]
        held[untouched] += size[untouched]
        lo, hi = starts[tripped], starts[tripped] + sent[tripped]
        c, b = count[tripped], held[tripped]
        parts = []
        live = np.arange(len(tripped))
        seq = 0
        while live.size:
            at_lo, at_hi = lo[live], hi[live]
            base = np.where(at_lo > 0, total[at_lo - 1], 0)
            at = np.minimum(
                np.searchsorted(total, base + limit_bytes - b[live]),
                at_lo + limit - c[live] - 1)
            hit = at < at_hi
            done, going = live[~hit], live[hit]
            c[done] += (at_hi - at_lo)[~hit]
            b[done] += np.where(at_hi > at_lo, total[at_hi - 1] - base,
                                0)[~hit]
            at = at[hit]
            parts.append((tripped[going], b[going] + total[at] - base[hit],
                          np.full(len(going), seq), at))
            lo[going] = at + 1
            c[going] = 0
            b[going] = 0
            live = going
            seq += 1
        count[tripped] = c
        held[tripped] = b
        pairs, sizes, seqs, at = (np.concatenate(col) for col in zip(*parts))
        by_pair = np.lexsort((seqs, pairs))
        pairs, sizes, seqs = pairs[by_pair], sizes[by_pair], seqs[by_pair]
        gen = self._gen
        rows = None
        if with_rows:
            # A message's envelope: the flushes of its pair before it.
            marks = np.zeros(len(pair), dtype=np.int64)
            marks[at] = 1
            closed = np.cumsum(marks) - marks
            rows = np.empty(len(pair), dtype=np.int64)
            rows[order] = closed - closed[starts[pair[order]]]
            rows += gen[pair]
        flushed = (pairs, sizes, seqs, gen[pairs] + seqs, rows)
        gen += np.bincount(pairs, minlength=ws2)
        return flushed

    def _charge_flushes(self, pairs: np.ndarray, sizes: np.ndarray) -> None:
        """Count flushes of ``sizes`` bytes from the buffers ``pairs``
        and charge each sender one latency plus its bytes, in order."""
        if not len(pairs):
            return
        self._counts["comm.flushes"] += len(pairs)
        ledger = self.cluster.ledger
        if ledger.enabled:
            net = self.cluster.net
            cost = np.where(
                self._offnode[pairs],
                net.flush_cost(True) + net.message_cost(sizes, True),
                net.flush_cost(False) + net.message_cost(sizes, False))
            ledger.charge_each(pairs // self.world_size, cost)

    def _envelopes_of(self, pairs, sizes, seqs, gens, touched) -> list:
        """The flushes of a run that put rows in the buffers ``touched``
        as ``(pair, envelope id, bytes, entries)``: an envelope holds one
        entry per run that put rows in it (the unit a reorder fault
        permutes)."""
        ws2 = self.world_size ** 2
        runs = self._runs
        entries = np.where(seqs == 0, runs[pairs] + 1, 1)
        events = list(zip(pairs.tolist(), (gens * ws2 + pairs).tolist(),
                          sizes.tolist(), entries.tolist()))
        runs[pairs] = 0
        runs[touched & (self._count > 0)] += 1
        return events

    def _ship(self, events) -> None:
        """Deliver envelopes ``(pair, id, bytes, entries)`` one at a time
        as ``("bflush", id, rows)``, ``rows`` the entries filed under the
        id (:meth:`Transport.take_envelope`) — the unit every fault
        decision, reliability frame and ack acts on: a self-send
        (negative id) as it is, a flushed buffer after charging its
        sender, whom the injector may stall and whose entries it may
        permute; then to reliable delivery (with the buffer's modeled
        bytes, what a retransmit costs) or straight to the transport,
        which takes one drop/dup/delay decision for it."""
        ws = self.world_size
        cluster = self.cluster
        inj = cluster.injector
        ledger = cluster.ledger
        net = cluster.net
        for pair, key, nbytes, entries in events:
            src, dest = divmod(pair, ws)
            rows = cluster.take_envelope(key)
            if key < 0:
                cluster.deliver(src, dest, (BATCH_TAG, key, rows))
                continue
            if ledger.enabled:
                offnode = bool(self._offnode[pair])
                ledger.charge(src, net.flush_cost(offnode)
                              + net.message_cost(nbytes, offnode))
            self._counts["comm.flushes"] += 1
            if inj is not None:
                stall = inj.maybe_stall()
                if stall:
                    ledger.charge(src, stall)
                order = inj.maybe_reorder(entries)
                if order is not None and rows:
                    rows = [rows[i] for i in order.tolist()]
            token = (BATCH_TAG, key, rows)
            if self._rel is not None:
                self._rel.send(src, dest, token, nbytes)
            else:
                cluster.deliver(src, dest, token)

    def flush_all(self) -> None:
        """Flush every buffer holding messages, by pair."""
        pairs = np.flatnonzero(self._count)
        if not len(pairs):
            return
        sizes = self._bytes[pairs]
        events = None
        if self._faulty:
            events = list(zip(pairs.tolist(),
                              (self._gen[pairs] * self.world_size ** 2
                               + pairs).tolist(),
                              sizes.tolist(), self._runs[pairs].tolist()))
            self._runs[pairs] = 0
        else:
            self._charge_flushes(pairs, sizes)
        self._count[pairs] = self._bytes[pairs] = 0
        self._gen[pairs] += 1
        if events is not None:
            self._ship(events)

    # -- draining / barrier ----------------------------------------------------

    def step(self) -> Tuple[int, bool]:
        """One delivery tick — what :meth:`barrier` loops and a process
        worker runs once per barrier round — and the one place a world
        decides it is idle.  A delivery round first: flush every buffer,
        then deliver every queued message once.  Returns ``(ran,
        idle)``: how many messages the round applied, and whether the
        world has no source of future work left (nothing applied — so
        nothing buffered either, only a handler refills a buffer —
        nothing queued, no frame unacked, no delivery held back by the
        injector).

        A world that is not idle advances its delivery clock: due
        delayed messages are released, overdue unacked frames
        retransmitted (:class:`~repro.errors.FaultToleranceError` past
        the retry budget) and the heartbeat detector consulted.
        """
        self.flush_all()
        ran = self._process_round()
        inj = self.injector
        idle = (ran == 0 and self.cluster.all_quiescent()
                and not self._reliable_pending()
                and (inj is None or inj.pending_delayed() == 0))
        if not idle:
            self._tick += 1
            self.cluster.release_due_faults()
            if self._rel is not None:
                self._rel.tick()
            self._check_failure_timeout()
        return ran, idle

    def _process_round(self) -> int:
        """Deliver every message in flight once; returns how many
        messages were applied.

        The run rule: the round takes the rows in flight at every rank
        this world hosts, then applies each handler ONCE, over its runs
        concatenated in emission order (a process worker's landed runs
        after its own, in sender order), with the column of destination
        ranks beside them — ``dest`` is not sorted; the invocations
        happen in order of each handler's first appearance.  What a
        handler sends lands in a later round, at every rank alike.

        With faults or reliable delivery in play, an envelope's rows are
        applied once per copy of it the round drains — rank by rank, in
        arrival order, in the order of its entries — after the
        reliability layer's ack and dedup; ``_ACK`` control traffic runs
        no handler.
        """
        rel = self._rel
        if self._faulty:
            runs = self._drain()
        else:
            runs = {}
            for handler, dest, columns in self.cluster.take_rows():
                chunks = runs.get(handler)
                if chunks is None:
                    runs[handler] = [(dest, columns)]
                else:
                    chunks.append((dest, columns))
        ran = 0
        for handler, chunks in runs.items():
            ran += self._run_batch(handler, chunks)
        if rel is not None:
            rel.flush_acks()
        return ran

    def _drain(self) -> Dict[str, list]:
        """Drain every hosted rank's mailbox snapshot and return the
        round's chunks ``handler -> [(dest, columns), ...]``: per item,
        the entries of its envelope."""
        cluster = self.cluster
        rel = self._rel
        runs: Dict[str, list] = {}
        for rank in range(self.world_size):
            # Snapshot the queue length so items queued by handlers in
            # this round are processed in a later round (fair order).
            pending = cluster.mailbox_len(rank)
            if not pending:
                continue
            # Heartbeat signal: the rank is draining traffic.
            self._last_progress[rank] = self._tick
            for _ in range(pending):
                item = cluster.drain_one(rank)
                if item is None:
                    break
                src, payload = item
                tag = payload[0]
                if tag == REL_TAG:
                    # Reliability frame: ack/dedup at the transport
                    # layer, then fall through with the inner envelope.
                    if not rel.on_receive(rank, src, payload[1]):
                        continue
                    payload = payload[2]
                elif tag == ACK_TAG:
                    rel.on_ack(rank, src, payload[1])
                    continue
                for handler, dest, columns in payload[2]:
                    runs.setdefault(handler, []).append((dest, columns))
        return runs

    def _run_batch(self, handler: str, chunks: list) -> int:
        """Apply a round's chunks ``(dest, columns)`` of ``handler``
        messages: one invocation over the columns concatenated in
        order, with the column of destination ranks first."""
        if len(chunks) == 1:
            dest, columns = chunks[0]
        else:
            dest = np.concatenate([chunk[0] for chunk in chunks])
            columns = tuple(np.concatenate(col)
                            for col in zip(*(chunk[1] for chunk in chunks)))
        self._batch_handlers[handler](self, dest, *columns)
        n = len(dest)
        self._counts["executor.tasks"] += n
        return n

    def _reliable_pending(self) -> bool:
        return self._rel is not None and self._rel.pending()

    def _check_crashed(self) -> None:
        """Uniform failure surfacing: raise
        :class:`~repro.errors.RankFailureError` when the transport knows
        of a dead rank the supervisor has not excluded (injector crash
        set or supervisor mark, on any backend)."""
        cluster = self.cluster
        inj = cluster.injector
        if (inj is None or not inj.crashed) and not cluster.marked_failed:
            return
        failed = cluster.failed_ranks() - self.excluded_ranks
        if failed:
            self._counts["faults.detected"] += len(failed)
            raise RankFailureError(failed)

    def _check_failure_timeout(self) -> None:
        """Heartbeat detector: a rank holding up an unacked frame for
        ``failure_timeout`` delivery rounds that has also drained
        nothing for that long is declared failed — the transport marks
        it (purging its reliability state so peers stop waiting) and the
        barrier surfaces :class:`~repro.errors.RankFailureError`."""
        ft = self.failure_timeout
        rel = self._rel
        if ft is None or rel is None:
            return
        stuck = rel.overdue_dests(ft)
        if not stuck:
            return
        tick = self._tick
        failed = {r for r in stuck
                  if tick - self._last_progress[r] >= ft
                  and r not in self.excluded_ranks}
        if failed:
            self.cluster.mark_failed(failed)
            self._counts["faults.detected"] += len(failed)
            raise RankFailureError(failed)

    def barrier(self) -> float:
        """Flush everything and run handlers until global quiescence, then
        synchronize simulated clocks.  Returns superstep duration in
        simulated seconds.

        Raises :class:`~repro.errors.RankFailureError` when a fault
        injector has crashed a rank (a real MPI barrier over a dead rank
        aborts the communicator), and
        :class:`~repro.errors.FaultToleranceError` when reliable mode
        exhausts a flushed buffer's retry budget.
        """
        if self._in_barrier:
            raise RuntimeStateError("nested barrier (handler called barrier)")
        if self._in_section:
            raise RuntimeStateError(
                "barrier inside an SPMD section: the driver owns the "
                "schedule, a rank section only stages or emits")
        self._in_barrier = True
        try:
            idle = False
            while not idle:
                self._check_crashed()
                _ran, idle = self.step()
            self.async_count_since_barrier = 0
            ledger = self.cluster.ledger
            imbalance = ledger.imbalance()
            duration = ledger.barrier(self.cluster.net, self.log.phase)
        finally:
            self._in_barrier = False
        # No handler is in flight: log the superstep.  A failed barrier's
        # counts stay in the open window (what it sent was genuinely
        # spent) until the driver closes it with ``log.abandon``.
        self.log.commit(self.metrics.now(), duration, imbalance)
        return duration

    def reset_in_flight(self) -> None:
        """Discard every in-flight message and all reliable-delivery
        bookkeeping (crash recovery: the driver restores rank state from
        a checkpoint, so traffic from the failed epoch must not leak
        into the replay)."""
        self._count[:] = 0
        self._bytes[:] = 0
        self._runs[:] = 0
        self.cluster.clear_mailboxes()
        self.async_count_since_barrier = 0
        if self._rel is not None:
            self._rel.reset()

    # -- degraded mode ----------------------------------------------------------

    def exclude_ranks(self, ranks) -> None:
        """Degraded mode: remove ``ranks`` from the build.  The
        transport discards their traffic, the reliability layer stops
        awaiting their acks (and drops sends to them), and SPMD sections
        skip them until :meth:`readmit_ranks`.  The supervisor owns the
        application-state consequences (zeroing their contribution to
        convergence counters, repairing their shards on re-admission)."""
        ranks = {int(r) for r in ranks}
        self.excluded_ranks |= ranks
        self.cluster.mark_failed(ranks)

    def readmit_ranks(self) -> set:
        """End degraded mode: clear failure marks, revive the excluded
        ranks, and return them (the caller runs the neighborhood-repair
        pass that rebuilds their application state)."""
        ranks = set(self.excluded_ranks)
        self.excluded_ranks.clear()
        self.cluster.repair_all()
        return ranks

    # -- SPMD driver helpers ------------------------------------------------------

    @contextmanager
    def section(self, ranks: Iterable[int], name: str) -> Iterator[None]:
        """Run the body as one SPMD section over ``ranks`` (the program
        section between barriers): a section never takes a barrier —
        :meth:`barrier` raises while one runs — and under the sanitizer
        it may touch the state of ``ranks`` only."""
        san = self.sanitizer
        self._in_section = True
        try:
            if san is None:
                yield
            else:
                with san.run_scope(ranks, f"section {name!r}"):
                    yield
        finally:
            self._in_section = False

    def run_on_all(self, fn: Callable[[RankContext], None],
                   ranks: Iterable[int] | None = None) -> None:
        """Run ``fn`` once per live rank, as one :meth:`section` (excluded
        ranks are skipped in degraded mode), restricted to ``ranks`` when
        a host covers only some of them.  Under the sanitizer each
        invocation executes *as* its rank, so touching another rank's
        state raises."""
        ctxs = (self.ranks if ranks is None
                else [self.ranks[r] for r in ranks])
        if self.excluded_ranks:
            ctxs = [c for c in ctxs if c.rank not in self.excluded_ranks]
        san = self.sanitizer
        with self.section([c.rank for c in ctxs], "run_on_all"):
            for ctx in ctxs:
                if san is None:
                    fn(ctx)
                else:
                    with san.rank_scope(ctx.rank):
                        fn(ctx)

    def allreduce_sum(self, value_fn: Callable[[RankContext], float]) -> float:
        """Sum-allreduce of a per-rank value (used for the Algorithm 1
        line 23 termination counter)."""
        return self.cluster.allreduce_sum([value_fn(ctx) for ctx in self.ranks])
