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
  a tuple per message — and is a loop of ``async_call`` in every
  counter and every flush,
- buffers auto-flush at ``flush_threshold`` messages or
  ``flush_threshold_bytes`` modeled bytes per destination (real YGM
  caps by bytes), charging the sender one latency ``alpha`` per flush
  plus ``beta`` per byte — batching behaviour has a visible cost
  signature,
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
  in chunks; a rank section never takes a barrier, ``barrier()`` raises
  inside ``run_on_all``).

Handlers receive a :class:`RankContext` giving them their rank id, a
rank-local state namespace, a per-rank RNG, a tally of whatever the rank
program counts, and the ability to send further async calls and charge
modeled compute time.  Every handler is *columnar*
(``register_batch_handler``: ``fn(ctx, *columns)`` once per delivery
round at a rank, over all of its messages in that rank's mailbox
snapshot — the run rule of :meth:`YGMWorld._process_round`; a lone
``async_call`` to it is a one-row run).  ``register_handler`` is the
per-message form on top of it: the handler's one column holds argument
tuples, and ``fn(ctx, *args)`` runs once per row in arrival order.
Buffers hold column chunks.  There is one wire format: every delivery —
a flushed buffer, a local send, with or without faults or reliable
delivery — is one ``bflush`` envelope, and the envelope is the unit the
network perturbs, frames, acks and retransmits (YGM ships buffers, never
single RPCs).

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
runs it once per barrier round, between landing the round's frames and
shipping its own, and reports its ``idle``.

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
from typing import Any, Callable, Dict, Iterable, List, Tuple

import numpy as np

from ..analysis.sanitizer import OwnedState, Sanitizer, sanitizer_requested
from ..errors import RankFailureError, RuntimeStateError
from ..utils.rng import derive_rng
from .instrumentation import Delta, FaultStats, MessageStats
from .metrics import NULL_METRICS, MetricsRegistry
from .tracing import BarrierLog
from .transports.base import Transport

Handler = Callable[..., None]

# Mailbox payload tags.  Transports are payload-agnostic; the YGM layer
# has one wire format, the flushed buffer.  The reliability frames
# ("rel"/"ack") are owned by the transport layer (transports.base); a
# "rel" frame wraps a flushed buffer as its inner payload.
_REL = "rel"          # ("rel", rel_seq, ("bflush", ...))
_ACK = "ack"          # ("ack", (rel_seq, ...))
_BATCH = "bflush"     # ("bflush", [(handler, columns), ...])
#   columns: one array per handler argument, a run of rows in send order
#   (a per-message handler has one object column of argument tuples).


class RankContext:
    """What a handler sees as "this MPI rank".

    Attributes
    ----------
    rank:
        This rank's id in ``[0, world_size)``.
    state:
        Rank-local storage: the application hangs its shard here (the
        global ids and neighbor matrices of the vertices this rank
        owns).
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
        # Handlers: name -> fn(ctx, *columns), one array per message
        # argument.  The delivery loop applies all of a rank's messages
        # to one of them in a round as a single invocation.
        self._batch_handlers: Dict[str, Handler] = {}
        # The names registered per message (one column of argument tuples).
        self._per_message: set = set()
        # is_offnode is pure topology; precompute it so the per-message
        # hot path does two list indexings instead of a method call.
        self._offnode: List[List[bool]] = [
            [cluster.is_offnode(s, d) for d in range(self.world_size)]
            for s in range(self.world_size)
        ]
        # _buffers[src][dest] -> list of "bflush" entries (see _BATCH),
        # with the messages and modeled bytes they hold counted beside.
        self._buffers: List[List[list]] = [
            [[] for _ in range(self.world_size)] for _ in range(self.world_size)
        ]
        self._buffer_count: List[List[int]] = [
            [0] * self.world_size for _ in range(self.world_size)
        ]
        self._buffer_bytes: List[List[int]] = [
            [0] * self.world_size for _ in range(self.world_size)
        ]
        self.ranks: List[RankContext] = [
            RankContext(self, r, seed) for r in range(self.world_size)
        ]
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
        that applies ``fn`` row by row, in arrival order."""
        def per_message(ctx: RankContext, calls) -> None:
            for args in calls:
                fn(ctx, *args)

        self.register_batch_handler(name, per_message)
        self._per_message.add(name)

    def register_handlers(self, **handlers: Handler) -> None:
        for name, fn in handlers.items():
            self.register_handler(name, fn)

    def register_batch_handler(self, name: str, fn: Handler) -> None:
        """Register ``fn`` as the *columnar* handler ``name``.

        ``fn(ctx, *columns)`` receives the destination context and one
        1-D array per message argument, holding a run of ``name``
        messages — all of them in the rank's mailbox snapshot of one
        delivery round (row ``i`` of every column is message ``i``).
        Its effect must not depend on how a set of messages is split
        into runs or ordered within one — a lone :meth:`async_call` to
        ``name`` arrives as a one-row run.
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
        if src == dest:
            # Local async call: no wire traffic, but still deferred
            # delivery (YGM runs even self-messages from the queue).
            # Self-sends never touch the wire or the message stats;
            # counting them apart is what makes the partition layer's
            # locality measurable.
            self._counts["comm.local_deliveries"] += 1
            self.cluster.deliver(src, dest, (_BATCH, [(handler, columns)]))
            return
        nbytes = int(nbytes)
        self._sent.record(msg_type, nbytes, self._offnode[src][dest])
        self._enqueue(src, dest, handler, columns, nbytes, 1)

    def async_call_block(self, src: int, msgs,
                         msg_type: str = "other") -> None:
        """Emit a prepared block of RPCs from ``src`` — a loop of
        :meth:`async_call` over ``(dest, handler, args, nbytes)``."""
        for dest, handler, args, nbytes in msgs:
            self.async_call(src, dest, handler, *args, nbytes=nbytes,
                            msg_type=msg_type)

    def emit_run(self, src: int, dests: np.ndarray, handler: str,
                 columns: Tuple[np.ndarray, ...], nbytes,
                 msg_type: str = "other") -> None:
        """Emit a run of messages to one handler from ``src``:
        message ``i`` goes to rank ``dests[i]`` and carries
        ``columns[0][i], columns[1][i], ...``.  ``nbytes`` is the modeled
        wire size — one int when every message has the same size, else a
        per-message array.

        Semantically a loop of :meth:`async_call`: the same per-type
        message and byte counters, the same count/byte flush thresholds
        (a buffer is flushed at exactly the message that trips one).
        Messages are grouped by destination with a stable sort and
        buffered as column chunks, never as per-message tuples.
        """
        if handler not in self._batch_handlers:
            raise RuntimeStateError(f"unknown handler {handler!r}")
        total = len(dests)
        if not total:
            return
        ws = self.world_size
        try:
            counts = np.bincount(dests, minlength=ws)
        except ValueError:  # a negative rank
            counts = ()
        if len(counts) != ws:
            raise RuntimeStateError("destination rank out of range")
        order = np.argsort(dests, kind="stable")
        columns = tuple(col[order] for col in columns)
        ragged = not isinstance(nbytes, int)
        if ragged:
            nbytes = nbytes[order]
        self.async_count_since_barrier += total
        offrow = self._offnode[src]
        sent_c = sent_b = off_c = off_b = 0
        lo = 0
        for dest in np.flatnonzero(counts).tolist():
            n = int(counts[dest])
            part = tuple(col[lo:lo + n] for col in columns)
            nb = nbytes[lo:lo + n] if ragged else nbytes
            if dest == src:
                # Self-sends never touch the wire or the message stats.
                self._counts["comm.local_deliveries"] += n
                self.cluster.deliver(src, src, (_BATCH, [(handler, part)]))
            else:
                size = int(nb.sum()) if ragged else nb * n
                sent_c += n
                sent_b += size
                if offrow[dest]:
                    off_c += n
                    off_b += size
                self._enqueue(src, dest, handler, part, nb, n)
            lo += n
        if sent_c:
            self._sent.record_many(msg_type, sent_c, sent_b, off_c, off_b)

    def _enqueue(self, src: int, dest: int, handler: str, payload: tuple,
                 nbytes, count: int) -> None:
        """Buffer a column chunk of ``count`` messages for ``dest``,
        flushing at exactly the message that trips a threshold — where
        :meth:`async_call`, one message at a time, would.

        Real YGM caps its buffers by *bytes* (a feature-vector message
        fills a buffer far faster than a Type 3 reply); the
        message-count cap is the secondary guard."""
        ragged = not isinstance(nbytes, int)
        counts = self._buffer_count[src]
        sizes = self._buffer_bytes[src]
        while True:
            # How many more messages until a threshold trips.
            take = self.flush_threshold - counts[dest]
            room = self.flush_threshold_bytes - sizes[dest]
            if ragged:
                filled = np.cumsum(nbytes)
                take = min(take, int(np.searchsorted(filled, room)) + 1)
            elif nbytes:
                take = min(take, -(-room // nbytes))
            if take >= count:
                self._buffers[src][dest].append((handler, payload))
                counts[dest] += count
                sizes[dest] += int(filled[-1]) if ragged else nbytes * count
                if take == count:
                    self._flush(src, dest)
                return
            self._buffers[src][dest].append(
                (handler, tuple(col[:take] for col in payload)))
            counts[dest] += take
            sizes[dest] += int(filled[take - 1]) if ragged else nbytes * take
            self._flush(src, dest)
            payload = tuple(col[take:] for col in payload)
            if ragged:
                nbytes = nbytes[take:]
            count -= take

    def _flush(self, src: int, dest: int) -> None:
        """Ship the ``src -> dest`` buffer as one ``bflush`` envelope —
        the unit every fault decision, reliability frame and ack acts on.
        The injector may stall the sender and permute the buffer's
        entries; the envelope then goes to reliable delivery (with the
        buffer's modeled bytes, what a retransmit costs) or straight to
        the transport, which takes one drop/dup/delay decision for it."""
        buf = self._buffers[src][dest]
        if not buf:
            return
        nbytes = self._buffer_bytes[src][dest]
        ledger = self.cluster.ledger
        if ledger.enabled:
            offnode = self._offnode[src][dest]
            net = self.cluster.net
            ledger.charge(src, net.flush_cost(offnode)
                          + net.message_cost(nbytes, offnode))
        self._counts["comm.flushes"] += 1
        self._buffers[src][dest] = []
        self._buffer_count[src][dest] = 0
        self._buffer_bytes[src][dest] = 0
        inj = self.injector
        if inj is not None:
            stall = inj.maybe_stall()
            if stall:
                ledger.charge(src, stall)
            order = inj.maybe_reorder(len(buf))
            if order is not None:
                buf = [buf[int(i)] for i in order]
        if self._rel is not None:
            self._rel.send(src, dest, (_BATCH, buf), nbytes)
        else:
            self.cluster.deliver(src, dest, (_BATCH, buf))

    def flush_all(self) -> None:
        for src in range(self.world_size):
            for dest in range(self.world_size):
                self._flush(src, dest)

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
        """Deliver every currently-queued message once, in deterministic
        rank order; returns how many messages were applied.

        Every mailbox item is a flushed buffer (or a reliability frame
        around one, or an ack).  The run rule: in one round a rank
        applies each handler ONCE, over every chunk of its messages in
        the rank's mailbox snapshot, concatenated across envelopes in
        arrival order; the invocations happen in order of each handler's
        first appearance.  Draining has no handler-visible effect —
        reliable-delivery bookkeeping (ack, dedup) happens per envelope
        before its entries join a run, and ``_ACK`` control traffic runs
        no handler.
        """
        ran = 0
        rel = self._rel
        for rank in range(self.world_size):
            ctx = self.ranks[rank]
            # Snapshot the queue length so messages enqueued by handlers
            # in this round are processed in a later round (fair order).
            pending = self.cluster.mailbox_len(rank)
            if not pending:
                continue
            # Heartbeat signal: the rank is draining traffic.
            self._last_progress[rank] = self._tick
            # The round's runs at this rank: handler -> its chunks.
            runs: Dict[str, list] = {}
            for _ in range(pending):
                item = self.cluster.drain_one(rank)
                if item is None:
                    break
                src, payload = item
                tag = payload[0]
                if tag == _REL:
                    # Reliability frame: ack/dedup at the transport
                    # layer, then fall through with the inner envelope.
                    if not rel.on_receive(rank, src, payload[1]):
                        continue
                    payload = payload[2]
                elif tag == _ACK:
                    rel.on_ack(rank, src, payload[1])
                    continue
                for handler, columns in payload[1]:
                    chunks = runs.get(handler)
                    if chunks is None:
                        runs[handler] = [columns]
                    else:
                        chunks.append(columns)
            for handler, chunks in runs.items():
                ran += self._run_batch(ctx, handler, chunks)
        if rel is not None:
            rel.flush_acks()
        return ran

    def _run_batch(self, ctx: RankContext, handler: str,
                   chunks: list) -> int:
        """Apply a coalesced run of ``handler`` messages at ``ctx``:
        one invocation over the concatenated columns."""
        columns = (chunks[0] if len(chunks) == 1 else
                   tuple(np.concatenate(col) for col in zip(*chunks)))
        self._batch_handlers[handler](ctx, *columns)
        n = len(columns[0])
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
        for s in range(self.world_size):
            for d in range(self.world_size):
                self._buffers[s][d] = []
                self._buffer_count[s][d] = 0
                self._buffer_bytes[s][d] = 0
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

    def run_on_all(self, fn: Callable[[RankContext], None],
                   ranks: Iterable[int] | None = None) -> None:
        """Run ``fn`` once per live rank (the SPMD program section
        between barriers; excluded ranks are skipped in degraded mode),
        restricted to ``ranks`` when a host covers only some of them.
        Under the sanitizer each invocation executes *as* its rank, so
        touching another rank's state raises.  A section never takes a
        barrier: :meth:`barrier` raises while one runs."""
        ctxs = (self.ranks if ranks is None
                else [self.ranks[r] for r in ranks])
        if self.excluded_ranks:
            ctxs = [c for c in ctxs if c.rank not in self.excluded_ranks]
        san = self.sanitizer
        self._in_section = True
        try:
            if san is None:
                for ctx in ctxs:
                    fn(ctx)
            else:
                for ctx in ctxs:
                    with san.rank_scope(ctx.rank):
                        fn(ctx)
        finally:
            self._in_section = False

    def allreduce_sum(self, value_fn: Callable[[RankContext], float]) -> float:
        """Sum-allreduce of a per-rank value (used for the Algorithm 1
        line 23 termination counter)."""
        return self.cluster.allreduce_sum([value_fn(ctx) for ctx in self.ranks])
