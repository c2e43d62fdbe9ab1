"""YGM-style asynchronous RPC layer (Section 4.1).

YGM's programming model is *fire-and-forget remote procedure calls*: a
sender names a destination rank, a function, and arguments; the function
runs at the destination at some later time; nobody is notified of
completion; a global ``barrier()`` waits until all messages (including
those generated while processing messages) are done.  YGM buffers
messages per destination and ships a buffer when it exceeds a threshold.

:class:`YGMWorld` reproduces those semantics on the simulated cluster:

- ``async_call(src, dest, handler, *args)`` buffers an RPC and records
  it in the per-type message statistics (the Figure 4 measurement),
- buffers auto-flush at ``flush_threshold`` messages or
  ``flush_threshold_bytes`` modeled bytes per destination (real YGM
  caps by bytes), charging the sender one latency ``alpha`` per flush
  plus ``beta`` per byte — batching behaviour has a visible cost
  signature,
- ``barrier()`` flushes everything and drains mailboxes to quiescence,
  running handlers on their destination ranks (which may send more),
  then folds per-rank clocks into the BSP makespan,
- ``async_count_since_barrier`` supports the paper's Section 4.4
  application-level batching (barrier every N global requests).

Handlers receive a :class:`RankContext` giving them their rank id, a
rank-local state namespace, a per-rank RNG, and the ability to send
further async calls and charge modeled compute time.

**Reliable delivery mode.**  With a fault injector attached to the
cluster (:mod:`.faults`) the network may drop, duplicate, delay, or
reorder traffic.  ``reliable=True`` attaches the transport-level
recovery layer (:class:`~repro.runtime.transports.base.ReliableDelivery`)
so handler effects stay *effectively-once*:

- every remote call is framed with a per-``(src, dest)`` sequence
  number,
- receivers acknowledge sequence numbers positively; acks are batched
  per peer and piggybacked at the end of each delivery round,
- unacknowledged messages are retransmitted after a timeout (measured
  in barrier delivery rounds) with exponential backoff and a bounded
  retry budget — exhausting the budget raises
  :class:`~repro.errors.FaultToleranceError` rather than silently
  corrupting the build,
- receivers remember delivered sequence numbers and suppress duplicate
  handler invocations (retransmits and injected duplicates alike).

**Failure detection.**  Every barrier surfaces
:class:`~repro.errors.RankFailureError` uniformly from any transport
when a rank is known dead (injector crash set or supervisor mark), and —
with ``failure_timeout`` configured in reliable mode — when the
heartbeat detector sees a rank with an overdue unacked frame that has
made no delivery progress for that many rounds.  Detections are counted
in ``fault_stats.detected``; the DNND supervisor decides whether to
recover, exclude (degraded mode via :meth:`YGMWorld.exclude_ranks`), or
abort.

Every message additionally carries a *global send sequence* number (one
counter per world, stamped at ``async_call`` time, exposed to handlers
as ``world.current_message_seq``), which lets order-sensitive consumers
such as :class:`~repro.runtime.containers.DistributedMap` apply
same-key writes in send order even when flush order or injected
reordering scrambles delivery order.

All fault-recovery work is accounted: retransmits and acks appear in
:class:`MessageStats` (message types ``"retransmit"`` / ``"ack"``) and
in the shared :class:`~repro.runtime.instrumentation.FaultStats`, so
ablations can report the overhead of reliability.  When no injector is
attached and ``reliable=False`` (the default), none of this machinery
runs and message accounting is byte-for-byte what it always was.

There is one comm path: the sim world runs it inline over a
:class:`~repro.runtime.transports.sim.SimCluster`, and each worker of
the process backend runs the same class unchanged over its
:class:`~repro.runtime.transports.process.WorkerTransport`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from ..analysis.sanitizer import OwnedState, Sanitizer, sanitizer_requested
from ..errors import RankFailureError, RuntimeStateError
from ..utils.rng import derive_rng
from .instrumentation import FaultStats, MessageStats
from .metrics import NULL_METRICS, MetricsRegistry
from .transports.base import Transport

Handler = Callable[..., None]

# Mailbox payload tags.  Transports are payload-agnostic; these are the
# YGM layer's wire formats.  The reliability frames ("rel"/"ack") are
# owned by the transport layer (transports.base) and wrap any of the
# other items as their inner payload.
_CALL = "call"        # ("call", send_seq, handler, args)
_REL = "rel"          # ("rel", rel_seq, inner_payload)
_ACK = "ack"          # ("ack", (rel_seq, ...))
_BATCH = "bflush"     # ("bflush", [(handler, args, send_seq, nbytes), ...])


class RankContext:
    """What a handler sees as "this MPI rank".

    Attributes
    ----------
    rank:
        This rank's id in ``[0, world_size)``.
    state:
        Rank-local storage: the application hangs its shard here (the
        vertex features and neighbor lists this rank owns).
    rng:
        A per-rank deterministic generator.
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

    @property
    def world_size(self) -> int:
        return self.world.world_size

    def async_call(self, dest: int, handler: str, *args: Any,
                   nbytes: int = 0, msg_type: str = "other") -> None:
        """Fire-and-forget RPC to ``dest`` (may be this rank)."""
        self.world.async_call(self.rank, dest, handler, *args,
                              nbytes=nbytes, msg_type=msg_type)

    def async_call_block(self, msgs, msg_type: str = "other") -> None:
        """Emit a prepared block of RPCs — see
        :meth:`YGMWorld.async_call_block`."""
        self.world.async_call_block(self.rank, msgs, msg_type=msg_type)

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
        Delivery rounds an unacked message waits before its first
        retransmit; doubles per attempt (``retry_backoff``) up to a cap.
    max_retries:
        Retransmit budget per message; exceeding it raises
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
                 retry_timeout: int = 4, retry_backoff: float = 2.0,
                 max_retries: int = 32,
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
        # Metrics registry (None -> the shared no-op singleton).  The
        # world only *publishes* into it — at barrier granularity, never
        # per message — so metrics-on costs nothing on the hot path.
        self.metrics: MetricsRegistry = (
            metrics if metrics is not None else NULL_METRICS)
        self.cluster = cluster
        self.world_size = cluster.world_size
        self.flush_threshold = int(flush_threshold)
        self.flush_threshold_bytes = int(flush_threshold_bytes)
        self._handlers: Dict[str, Handler] = {}
        # Batch variants: name -> fn(ctx, args_list).  The delivery loop
        # coalesces contiguous same-handler runs into one invocation when
        # a batch variant exists; absent variants change nothing.
        self._batch_handlers: Dict[str, Handler] = {}
        # is_offnode is pure topology; precompute it so the per-message
        # hot path does two list indexings instead of a method call.
        self._offnode: List[List[bool]] = [
            [cluster.is_offnode(s, d) for d in range(self.world_size)]
            for s in range(self.world_size)
        ]
        # _buffers[src][dest] -> list of (handler_name, args, send_seq, nbytes)
        self._buffers: List[List[List[Tuple[str, tuple, int, int]]]] = [
            [[] for _ in range(self.world_size)] for _ in range(self.world_size)
        ]
        self._buffer_bytes: List[List[int]] = [
            [0] * self.world_size for _ in range(self.world_size)
        ]
        self.ranks: List[RankContext] = [
            RankContext(self, r, seed) for r in range(self.world_size)
        ]
        self.async_count_since_barrier = 0
        self.flush_count = 0
        self.handler_invocations = 0
        # Self-sends (src == dest) never touch the wire or the message
        # stats; counting them separately is what makes the partition
        # layer's locality measurable: comm.local_deliveries vs
        # comm.remote_deliveries at every barrier.
        self.local_deliveries = 0
        self._in_barrier = False
        self._phase = "default"
        self.phase_stats: Dict[str, MessageStats] = {}
        # Global send sequence: stamped on every async_call.
        self._send_seq = 0
        #: Global send-sequence of the message currently being delivered
        #: (``None`` outside scalar handler delivery).
        self.current_message_seq: int | None = None
        # Reliable delivery: the transport-level state machine (see
        # transports.base.ReliableDelivery).
        self.reliable = bool(reliable)
        self.retry_timeout = int(retry_timeout)
        self.retry_backoff = float(retry_backoff)
        self.max_retries = int(max_retries)
        self._tick = 0
        injector = getattr(cluster, "injector", None)
        self.fault_stats: FaultStats = (
            injector.stats if injector is not None else FaultStats())
        if self.reliable:
            self._rel = cluster.enable_reliability(
                retry_timeout=self.retry_timeout,
                retry_backoff=self.retry_backoff,
                max_retries=self.max_retries,
                fault_stats=self.fault_stats)
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
        return getattr(self.cluster, "injector", None)

    # -- handler registry -----------------------------------------------------

    def register_handler(self, name: str, fn: Handler) -> None:
        """Register ``fn`` to run as ``name``; the first positional
        argument passed to ``fn`` is the destination :class:`RankContext`."""
        if name in self._handlers:
            raise RuntimeStateError(f"handler {name!r} already registered")
        if self.sanitizer is not None:
            # Wrapping at registration keeps the delivery loop identical
            # whether or not the sanitizer is on.
            fn = self.sanitizer.wrap_handler(name, fn)
        self._handlers[name] = fn

    def register_handlers(self, **handlers: Handler) -> None:
        for name, fn in handlers.items():
            self.register_handler(name, fn)

    def register_batch_handler(self, name: str, fn: Handler) -> None:
        """Register a batch variant for an already-registered handler.

        ``fn(ctx, args_list)`` receives the destination context and the
        list of argument tuples of a contiguous run of ``name`` messages,
        and must be *semantically identical* to invoking the scalar
        handler once per tuple, in order (the batch execution engine's
        bit-identity contract).
        """
        if name not in self._handlers:
            raise RuntimeStateError(
                f"batch handler {name!r} has no scalar registration")
        if name in self._batch_handlers:
            raise RuntimeStateError(f"batch handler {name!r} already registered")
        if self.sanitizer is not None:
            fn = self.sanitizer.wrap_handler(name, fn)
        self._batch_handlers[name] = fn

    def register_batch_handlers(self, **handlers: Handler) -> None:
        for name, fn in handlers.items():
            self.register_batch_handler(name, fn)

    # -- phases (stats scoping) -------------------------------------------------

    def set_phase(self, phase: str) -> None:
        """Name the current phase; message stats are also recorded per phase."""
        self._phase = phase
        self.phase_stats.setdefault(phase, MessageStats())

    @property
    def stats(self) -> MessageStats:
        return self.cluster.stats

    def stats_for(self, phase: str) -> MessageStats:
        return self.phase_stats.get(phase, MessageStats())

    # -- metrics ----------------------------------------------------------------

    def publish_metrics(self) -> None:
        """Mirror the runtime's authoritative aggregates into the metrics
        registry.

        Called automatically at the end of every barrier (no handler
        is in flight).  All values are *assigned* as absolute totals —
        re-publishing is idempotent, and both backends emit the exact
        same metric names (the cross-backend conformance contract).
        """
        m = self.metrics
        if not m.enabled:
            return
        self.cluster.stats.publish(m)
        if self.injector is not None:
            self.injector.publish(m)
        else:
            self.fault_stats.publish(m)
        m.set_counter("executor.tasks", self.handler_invocations)
        m.set_counter("comm.flushes", self.flush_count)
        m.set_counter("comm.barriers", self.cluster.ledger.barriers)
        m.set_counter("transport.collectives",
                      getattr(self.cluster, "collectives", 0))
        # Rank sections run inline here; the process world counts its
        # broadcast sections under this name.
        m.set_counter("executor.dispatches", 0)
        # Locality split: self-sends vs wire messages.  Published on
        # every backend (the process world mirrors the same names), so
        # the partition layer's effect is directly comparable.
        m.set_counter("comm.local_deliveries", self.local_deliveries)
        m.set_counter("comm.remote_deliveries",
                      self.cluster.stats.total_count())
        # Degraded-mode visibility: how many ranks are currently
        # excluded from the build (0 outside degraded mode — published
        # unconditionally so both backends emit the same names).
        m.set_gauge("degraded.ranks", float(len(self.excluded_ranks)))

    # -- sending ------------------------------------------------------------

    def async_call(self, src: int, dest: int, handler: str, *args: Any,
                   nbytes: int = 0, msg_type: str = "other") -> None:
        if handler not in self._handlers:
            raise RuntimeStateError(f"unknown handler {handler!r}")
        if not 0 <= dest < self.world_size:
            raise RuntimeStateError(f"destination rank {dest} out of range")
        self.async_count_since_barrier += 1
        seq = self._send_seq
        self._send_seq += 1
        if src != dest:
            offnode = self._offnode[src][dest]
            self.cluster.stats.record(msg_type, nbytes, offnode)
            self.phase_stats.setdefault(self._phase, MessageStats()).record(
                msg_type, nbytes, offnode
            )
            self._buffers[src][dest].append((handler, args, seq, nbytes))
            self._buffer_bytes[src][dest] += nbytes
            # Real YGM caps its buffers by *bytes* (a feature-vector
            # message fills a buffer far faster than a Type 3 reply);
            # the message-count cap is the secondary guard.
            if (len(self._buffers[src][dest]) >= self.flush_threshold
                    or self._buffer_bytes[src][dest] >= self.flush_threshold_bytes):
                self._flush(src, dest)
        else:
            # Local async call: no wire traffic, but still deferred
            # delivery (YGM runs even self-messages from the queue).
            self.local_deliveries += 1
            self.cluster.deliver(src, dest, (_CALL, seq, handler, args))

    def block_emitter(self, src: int, msg_type: str = "other"):
        """Low-overhead emitter for a block of same-type RPCs from ``src``.

        Returns ``(send, close)``.  ``send(dest, handler, args, nbytes)``
        is semantically one :meth:`async_call`; ``close()`` must be
        called after the last send.  Exactness contract with the scalar
        path:

        - every message gets the same global send-sequence stamp it
          would have gotten from :meth:`async_call` (a local counter,
          written back at close — nothing reads ``_send_seq`` mid-block
          because handlers only run inside :meth:`barrier`),
        - buffer appends and flush triggers happen per message, in
          message order, so mid-block flush charges land on the ledger
          at exactly the same points as in a scalar emission loop,
        - message statistics are integer counters, hence order-free;
          they are aggregated locally and recorded once at close via
          :meth:`MessageStats.record_many`.

        Only one emitter may be active at a time (flushes triggered by
        ``send`` enqueue to mailboxes without running handlers, so there
        is no reentrancy).  A validation error raised by ``send`` aborts
        the block with stats unrecorded — acceptable, since it signals a
        programming error that aborts the run.
        """
        world = self
        handlers = self._handlers
        buffers_src = self._buffers[src]
        buffer_bytes_src = self._buffer_bytes[src]
        offrow = self._offnode[src]
        deliver = self.cluster.deliver
        ft = self.flush_threshold
        ftb = self.flush_threshold_bytes
        ws = self.world_size
        start_seq = self._send_seq
        next_seq = start_seq
        on_c = on_b = off_c = off_b = 0
        checked_handler = None

        def send(dest: int, handler: str, args: tuple, nbytes: int) -> None:
            nonlocal next_seq, on_c, on_b, off_c, off_b, checked_handler
            if handler is not checked_handler:
                if handler not in handlers:
                    raise RuntimeStateError(f"unknown handler {handler!r}")
                checked_handler = handler
            if not 0 <= dest < ws:
                raise RuntimeStateError(f"destination rank {dest} out of range")
            seq = next_seq
            next_seq = seq + 1
            if src != dest:
                if offrow[dest]:
                    off_c += 1
                    off_b += nbytes
                else:
                    on_c += 1
                    on_b += nbytes
                buf = buffers_src[dest]
                buf.append((handler, args, seq, nbytes))
                nb = buffer_bytes_src[dest] + nbytes
                buffer_bytes_src[dest] = nb
                if len(buf) >= ft or nb >= ftb:
                    world._flush(src, dest)
            else:
                deliver(src, dest, (_CALL, seq, handler, args))

        def close() -> None:
            world._send_seq = next_seq
            world.async_count_since_barrier += next_seq - start_seq
            total_c = on_c + off_c
            # Every stamped message that was not on/off-node was a
            # self-send: the local-delivery count falls out for free.
            world.local_deliveries += (next_seq - start_seq) - total_c
            if total_c:
                total_b = on_b + off_b
                world.cluster.stats.record_many(
                    msg_type, total_c, total_b, off_c, off_b)
                world.phase_stats.setdefault(
                    world._phase, MessageStats()).record_many(
                        msg_type, total_c, total_b, off_c, off_b)

        return send, close

    def async_call_block(self, src: int, msgs,
                         msg_type: str = "other") -> None:
        """Emit a prepared block of RPCs from ``src`` — semantically a
        loop of :meth:`async_call` over ``(dest, handler, args, nbytes)``
        tuples, with per-message overhead amortized."""
        send, close = self.block_emitter(src, msg_type)
        for dest, handler, args, nbytes in msgs:
            send(dest, handler, args, nbytes)
        close()

    def emit_run(self, src: int, triples, nbytes: int,
                 msg_type: str = "other") -> None:
        """Emit a uniform-``nbytes`` run of RPCs from ``src`` —
        semantically a loop of :meth:`async_call` over
        ``(dest, handler, args)`` triples.

        Driver-internal fast path: unlike :meth:`block_emitter` it skips
        per-message handler/destination validation (the caller computes
        destinations from the owner table and handler names are
        literals), and exploits the constant message size to total the
        statistics with one multiply.  Ordering guarantees are identical
        to the emitter: sequence stamps, buffer appends, and
        threshold-triggered flushes happen per message, in order.
        """
        buffers_src = self._buffers[src]
        buffer_bytes_src = self._buffer_bytes[src]
        offrow = self._offnode[src]
        if self.injector is None:
            # Injector-free local delivery is a plain mailbox append
            # (deliver()'s alive/range checks cannot fire: no crashes
            # without an injector, destinations come from owner tables).
            local_deliver = self.cluster.self_append(src)
        else:
            deliver = self.cluster.deliver
            local_deliver = (lambda item:
                             deliver(src, src, item[1]))
        flush = self._flush
        ft = self.flush_threshold
        ftb = self.flush_threshold_bytes
        start_seq = seq = self._send_seq
        on_c = off_c = 0
        for dest, handler, args in triples:
            if src != dest:
                if offrow[dest]:
                    off_c += 1
                else:
                    on_c += 1
                buf = buffers_src[dest]
                buf.append((handler, args, seq, nbytes))
                nb = buffer_bytes_src[dest] + nbytes
                buffer_bytes_src[dest] = nb
                if len(buf) >= ft or nb >= ftb:
                    flush(src, dest)
            else:
                local_deliver((src, (_CALL, seq, handler, args)))
            seq += 1
        self._send_seq = seq
        self.async_count_since_barrier += seq - start_seq
        total_c = on_c + off_c
        self.local_deliveries += (seq - start_seq) - total_c
        if total_c:
            self.cluster.stats.record_many(
                msg_type, total_c, total_c * nbytes, off_c, off_c * nbytes)
            self.phase_stats.setdefault(
                self._phase, MessageStats()).record_many(
                    msg_type, total_c, total_c * nbytes, off_c, off_c * nbytes)

    def _flush(self, src: int, dest: int) -> None:
        buf = self._buffers[src][dest]
        if not buf:
            return
        offnode = self._offnode[src][dest]
        nbytes = self._buffer_bytes[src][dest]
        ledger = self.cluster.ledger
        if ledger.enabled:
            net = self.cluster.net
            ledger.charge(
                src, net.flush_cost(offnode) + net.message_cost(nbytes, offnode)
            )
        self.flush_count += 1
        inj = self.injector
        if self._batch_handlers and inj is None and not self.reliable:
            # Envelope delivery: hand the whole buffer over as ONE
            # mailbox item.  Without an injector, per-message delivery
            # is a plain append per entry, so an envelope preserving
            # entry order is byte-identical in every observable —
            # flushed buffers never interleave with other deliveries.
            # Faulty or reliable runs keep the per-message wire format
            # (drop/duplicate/delay decisions are per message).
            self.cluster.deliver(src, dest, (_BATCH, buf))
            self._buffers[src][dest] = []
            self._buffer_bytes[src][dest] = 0
            return
        if inj is not None:
            stall = inj.maybe_stall()
            if stall:
                self.cluster.ledger.charge(src, stall)
            order = inj.maybe_reorder(len(buf))
            if order is not None:
                buf = [buf[int(i)] for i in order]
        rel = self._rel
        for handler, args, seq, msg_nbytes in buf:
            if rel is not None:
                rel.send(src, dest, (_CALL, seq, handler, args), msg_nbytes)
            else:
                self.cluster.deliver(src, dest, (_CALL, seq, handler, args))
        self._buffers[src][dest] = []
        self._buffer_bytes[src][dest] = 0

    def flush_all(self) -> None:
        for src in range(self.world_size):
            for dest in range(self.world_size):
                self._flush(src, dest)

    # -- draining / barrier ----------------------------------------------------

    def _process_round(self) -> int:
        """Deliver every currently-queued message once, in deterministic
        rank order; returns how many messages were applied.

        When a handler has a registered batch variant, contiguous runs
        of that handler within a rank's snapshot are drained first and
        applied as ONE batch invocation.  This is exact because draining
        a message has no handler-visible effect: reliable-delivery
        bookkeeping (acks, dedup) still happens per message before the
        message joins its run, ``_ACK`` control traffic is bookkeeping
        only (it neither runs a handler nor breaks a run), and the batch
        handler itself is contractually equivalent to the scalar handler
        applied per message in order.  ``current_message_seq`` is None
        during a batch invocation — no batch variants are registered for
        order-sensitive consumers that read it.
        """
        ran = 0
        batch_handlers = self._batch_handlers
        handlers = self._handlers
        rel = self._rel
        for rank in range(self.world_size):
            ctx = self.ranks[rank]
            # Snapshot the queue length so messages enqueued by handlers
            # in this round are processed in a later round (fair order).
            pending = self.cluster.mailbox_len(rank)
            if pending:
                # Heartbeat signal: the rank is draining traffic.
                self._last_progress[rank] = self._tick
            run_handler: str | None = None
            run_args: list = []
            for _ in range(pending):
                item = self.cluster.drain_one(rank)
                if item is None:
                    break
                src, payload = item
                tag = payload[0]
                if tag == _REL:
                    # Reliability frame: ack/dedup at the transport
                    # layer, then fall through with the inner payload.
                    if not rel.on_receive(rank, src, payload[1]):
                        continue
                    payload = payload[2]
                    tag = payload[0]
                elif tag == _ACK:
                    rel.on_ack(rank, src, payload[1])
                    continue
                if tag == _BATCH:
                    # A flushed buffer delivered whole: same entries, in
                    # the same order, as per-message delivery would give.
                    entries = payload[1]
                    # Fast path: an envelope whose entries all carry one
                    # batchable handler joins the current run with a
                    # C-level extend (one stand-in entry holding every
                    # args tuple).  Run granularity is immaterial:
                    # rowwise kernels are bitwise row-independent, and
                    # every other effect is applied per message in order.
                    whole = (len({m[0] for m in entries}) == 1
                             and entries[0][0] in batch_handlers)
                    if whole:
                        entries = ((entries[0][0], [m[1] for m in entries],
                                    None, 0),)
                else:
                    whole = False
                    _tag, seq, handler, args = payload
                    entries = ((handler, args, seq, 0),)
                for handler, args, seq, _nb in entries:
                    if handler in batch_handlers:
                        # Join the current run, breaking it first when
                        # it belongs to another handler.
                        if run_handler != handler:
                            if run_handler is not None:
                                ran += self._run_batch(ctx, run_handler, run_args)
                            run_handler, run_args = handler, []
                        if whole:
                            run_args.extend(args)
                        else:
                            run_args.append(args)
                        continue
                    if run_handler is not None:
                        ran += self._run_batch(ctx, run_handler, run_args)
                        run_handler, run_args = None, []
                    self.current_message_seq = seq
                    try:
                        handlers[handler](ctx, *args)
                    finally:
                        self.current_message_seq = None
                    self.handler_invocations += 1
                    ran += 1
            if run_handler is not None:
                ran += self._run_batch(ctx, run_handler, run_args)
        if rel is not None:
            rel.flush_acks()
        return ran

    def _run_batch(self, ctx: RankContext, handler: str,
                   args_list: list) -> int:
        """Apply a coalesced run of ``handler`` messages at ``ctx``."""
        self._batch_handlers[handler](ctx, args_list)
        n = len(args_list)
        self.handler_invocations += n
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
            self.fault_stats.detected += len(failed)
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
            self.fault_stats.detected += len(failed)
            raise RankFailureError(failed)

    def barrier(self, phase: str | None = None) -> float:
        """Flush everything and run handlers until global quiescence, then
        synchronize simulated clocks.  Returns superstep duration in
        simulated seconds.

        Raises :class:`~repro.errors.RankFailureError` when a fault
        injector has crashed a rank (a real MPI barrier over a dead rank
        aborts the communicator), and
        :class:`~repro.errors.FaultToleranceError` when reliable mode
        exhausts a message's retry budget.
        """
        if self._in_barrier:
            raise RuntimeStateError("nested barrier (handler called barrier)")
        self._in_barrier = True
        inj = self.injector
        rel = self._rel
        try:
            while True:
                self._check_crashed()
                self.flush_all()
                ran = self._process_round()
                if ran == 0 and self.cluster.all_quiescent():
                    # A handler may have refilled buffers, a delayed
                    # message may still be parked in the injector, and
                    # reliable mode may be awaiting acks; quiesce only
                    # when every source of future work is empty.
                    if (not self._has_buffered()
                            and not self._reliable_pending()
                            and (inj is None or inj.pending_delayed() == 0)):
                        break
                # Advance simulated delivery time: release due delayed
                # messages and retransmit overdue unacked ones.
                self._tick += 1
                self.cluster.release_due_faults()
                if rel is not None:
                    rel.tick()
                self._check_failure_timeout()
            if rel is not None:
                rel.sync_fault_stats()
            self.async_count_since_barrier = 0
            duration = self.cluster.ledger.barrier(
                self.cluster.net, phase or self._phase)
            if self.metrics.enabled:
                self.publish_metrics()
            return duration
        finally:
            self._in_barrier = False

    def _has_buffered(self) -> bool:
        return any(
            self._buffers[s][d]
            for s in range(self.world_size)
            for d in range(self.world_size)
        )

    def reset_in_flight(self) -> None:
        """Discard every in-flight message and all reliable-delivery
        bookkeeping (crash recovery: the driver restores rank state from
        a checkpoint, so traffic from the failed epoch must not leak
        into the replay)."""
        for s in range(self.world_size):
            for d in range(self.world_size):
                self._buffers[s][d] = []
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

    def run_on_all(self, fn: Callable[[RankContext], None]) -> None:
        """Run ``fn`` once per live rank (the SPMD program section
        between barriers; excluded ranks are skipped in degraded mode).
        Under the sanitizer each invocation executes *as* its rank, so
        touching another rank's state raises."""
        ctxs = self.ranks
        if self.excluded_ranks:
            ctxs = [c for c in ctxs if c.rank not in self.excluded_ranks]
        san = self.sanitizer
        if san is None:
            for ctx in ctxs:
                fn(ctx)
        else:
            for ctx in ctxs:
                with san.rank_scope(ctx.rank):
                    fn(ctx)

    def allreduce_sum(self, value_fn: Callable[[RankContext], float]) -> float:
        """Sum-allreduce of a per-rank value (used for the Algorithm 1
        line 23 termination counter)."""
        return self.cluster.allreduce_sum([value_fn(ctx) for ctx in self.ranks])

    @property
    def elapsed_sim_seconds(self) -> float:
        return self.cluster.ledger.elapsed
