"""The Transport protocol — the seam under the YGM comm layer.

A transport owns the *mechanics* of moving already-formatted payloads
between ranks: per-rank FIFO mailboxes for point-to-point traffic and
driver-level collectives (allreduce, gather) over per-rank contribution
lists.  Everything above the seam — buffering, batch coalescing,
message statistics — lives in :class:`~repro.runtime.ygm.YGMWorld` and
talks only to this interface.  A transport keeps no statistics of its
own: what it counts (collective calls, and through reliable delivery
and the injector their events) goes into the open window of the comm
world's barrier log (:meth:`Transport.count_into`).

Two transports carry a comm world:

- :class:`~repro.runtime.transports.sim.SimCluster` — the deterministic,
  cost-modeled, fault-injectable simulation (the default; bit-identical
  to the pre-seam runtime),
- :class:`~repro.runtime.transports.process.WorkerTransport` — the
  process backend's per-worker transport: co-resident ranks share
  mailboxes, other workers' ranks are reached by pickled frames; no
  cost model.

Collectives are implemented here once; cost accounting is injected
through the ``_charge_collective`` hook so the simulated transport
charges its alpha-beta model while the others charge nothing.  Because
the simulation is cooperative, collectives take *per-rank contribution
lists* and return per-rank results — the driver (which plays the role of
the SPMD program counter) passes in what each rank would have
contributed.  This keeps rank code
honest: a rank can only use its own slot of the result.

**Fault tolerance lives at this seam**, once, for every transport —
:meth:`Transport.deliver` decides how a delivery is perturbed and a
subclass only says where an undisturbed item lands (:meth:`Transport._put`:
the destination's mailbox here; a frame to the owning worker in
:class:`~repro.runtime.transports.process.WorkerTransport`):

- *fault injection* — an optional :class:`~repro.runtime.faults.FaultInjector`
  (``transport.injector``) consulted once per remote delivery — a
  flushed buffer's envelope, a retransmit or an ack
  (drop/duplicate/delay; traffic of a crashed rank is discarded), whose
  delayed copies :meth:`Transport.release_due_faults` hands to the same
  ``_put`` when the comm layer's delivery tick
  (:meth:`YGMWorld.step <repro.runtime.ygm.YGMWorld.step>`) says so;
- *reliable delivery* — :class:`ReliableDelivery`, a per-``(src, dest)``
  seq/ack/retransmit/dedup state machine attached via
  :meth:`Transport.enable_reliability`.  It frames payloads as
  ``("rel", rel_seq, inner)`` and acks as ``("ack", (rel_seq, ...))``;
  the comm layer unwraps frames while draining;
- *failure marking* — :meth:`Transport.mark_failed` records ranks the
  supervisor has declared dead; traffic touching them is discarded
  (exactly what a dead MPI process does to its peers) and
  :meth:`Transport.failed_ranks` reports the union of marked and
  injector-crashed ranks so failure detection is uniform across
  backends.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np

from ...config import ClusterConfig
from ...errors import FaultToleranceError, RuntimeStateError
from ..instrumentation import Delta
from ..netmodel import CostLedger, NetworkModel

#: The wire tags.  A flushed buffer travels as its envelope id and its
#: entries; the reliability frames (owned here) wrap one or ack a peer's.
BATCH_TAG = "bflush"  # ("bflush", envelope id, entries)
REL_TAG = "rel"       # ("rel", rel_seq, inner_payload)
ACK_TAG = "ack"       # ("ack", (rel_seq, ...))

#: Modeled size of one acked sequence number on the wire.
ACK_SEQ_BYTES = 4

#: The wait before a retransmit grows by this factor per attempt, capped
#: so a stuck frame spins the barrier loop a bounded number of rounds
#: per retry instead of 2**attempts.
RETRY_BACKOFF = 2.0
MAX_BACKOFF_TICKS = 32


class ReliableDelivery:
    """Transport-level reliable delivery: per-pair sequence numbers,
    positive acks, backoff retransmit, receiver dedup.

    State is rank-confined by construction:

    - ``send`` only touches ``src``-owned send state;
    - ``on_receive`` / ``on_ack`` run while rank ``dest`` drains its
      own mailbox and only touch ``dest``-owned receive state;
    - ``tick`` (the retransmit clock) is called between delivery
      rounds, when no handler is running.

    Recovery work — ``ack`` / ``retransmit`` messages and the
    ``faults.<event>`` counters — is counted into ``window``, the open
    window of the comm world's barrier log.
    """

    def __init__(self, transport: "Transport", window: Delta,
                 retry_timeout: int = 4, max_retries: int = 32) -> None:
        self.transport = transport
        self.window = window
        ws = transport.world_size
        self.world_size = ws
        self.retry_timeout = int(retry_timeout)
        self.max_retries = int(max_retries)
        # _offnode[src][dest]: whether the pair crosses nodes.
        self._offnode: List[List[bool]] = [
            [transport.is_offnode(s, d) for d in range(ws)]
            for s in range(ws)]
        #: Delivery-round clock; advanced by :meth:`tick`.
        self.clock = 0
        #: Ranks the supervisor has excluded: sends to them are dropped
        #: without registering (nothing to await from a dead peer).
        self.dead: Set[int] = set()
        # _next[src][dest] -> next per-pair sequence number.
        self._next: List[List[int]] = [[0] * ws for _ in range(ws)]
        # _unacked[src][dest] -> {rel_seq: [payload, nbytes, attempts,
        #                                   sent_tick, first_tick]}
        self._unacked: List[List[Dict[int, list]]] = [
            [dict() for _ in range(ws)] for _ in range(ws)]
        # _seen[dest][src] -> delivered rel_seqs (receiver dedup).
        self._seen: List[List[set]] = [
            [set() for _ in range(ws)] for _ in range(ws)]
        # _ack_pending[receiver][sender] -> rel_seqs to ack this round.
        self._ack_pending: List[List[List[int]]] = [
            [[] for _ in range(ws)] for _ in range(ws)]

    # -- send side (rank-confined to src) -------------------------------------

    def send(self, src: int, dest: int, payload: Any, nbytes: int) -> None:
        """Frame ``payload`` with the next ``(src, dest)`` sequence
        number, register it for retransmission, and deliver."""
        if dest in self.dead:
            return
        rel_seq = self._next[src][dest]
        self._next[src][dest] = rel_seq + 1
        self._unacked[src][dest][rel_seq] = [
            payload, nbytes, 0, self.clock, self.clock]
        self.transport.deliver(src, dest, (REL_TAG, rel_seq, payload))

    # -- receive side (rank-confined to dest) ---------------------------------

    def on_receive(self, dest: int, src: int, rel_seq: int) -> bool:
        """Record receipt of frame ``rel_seq``; returns True when the
        inner payload should be processed (first delivery) and False for
        duplicates.  Always queues a positive ack — the sender needs to
        stop retransmitting either way."""
        self._ack_pending[dest][src].append(rel_seq)
        seen = self._seen[dest][src]
        if rel_seq in seen:
            self.window.counts["faults.duplicates_suppressed"] += 1
            return False
        seen.add(rel_seq)
        return True

    def on_ack(self, owner: int, peer: int, rel_seqs: Iterable[int]) -> None:
        """Retire acked sequence numbers for ``owner``'s sends to ``peer``."""
        unacked = self._unacked[owner][peer]
        for rel_seq in rel_seqs:
            unacked.pop(rel_seq, None)

    def flush_acks(self) -> None:
        """Ship every receiver's accumulated acks, one batched control
        message per sender — the piggyback model: acks ride the next
        delivery round rather than each costing a latency."""
        transport = self.transport
        net = transport.net
        window = self.window
        for receiver, row in enumerate(self._ack_pending):
            for sender, seqs in enumerate(row):
                if not seqs:
                    continue
                row[sender] = []
                offnode = self._offnode[receiver][sender]
                nbytes = ACK_SEQ_BYTES * len(seqs)
                window.messages.record("ack", nbytes, offnode)
                transport.ledger.charge(
                    receiver, net.message_cost(nbytes, offnode))
                window.counts["faults.acks_sent"] += 1
                transport.deliver(receiver, sender, (ACK_TAG, tuple(seqs)))

    # -- driver-side clock -----------------------------------------------------

    def tick(self) -> None:
        """Advance the delivery-round clock and retransmit unacked
        frames (a whole flushed buffer each) whose backoff window
        expired.  Raises
        :class:`~repro.errors.FaultToleranceError` past the retry
        budget."""
        self.clock += 1
        transport = self.transport
        for src in range(self.world_size):
            row = self._unacked[src]
            for dest in range(self.world_size):
                unacked = row[dest]
                if not unacked:
                    continue
                offnode = self._offnode[src][dest]
                for rel_seq, entry in list(unacked.items()):
                    payload, nbytes, attempts, sent_tick, _first = entry
                    window = min(
                        self.retry_timeout * RETRY_BACKOFF ** attempts,
                        MAX_BACKOFF_TICKS)
                    if self.clock - sent_tick < window:
                        continue
                    if attempts >= self.max_retries:
                        self.window.counts[
                            "faults.retry_budget_exhausted"] += 1
                        raise FaultToleranceError(
                            f"message {src}->{dest} unacked after "
                            f"{attempts} retransmits; network unrecoverable",
                            src=src, dest=dest, attempts=attempts)
                    entry[2] = attempts + 1
                    entry[3] = self.clock
                    self.window.counts["faults.retransmits"] += 1
                    self.window.messages.record("retransmit", nbytes, offnode)
                    transport.ledger.charge(
                        src, transport.net.message_cost(nbytes, offnode))
                    transport.deliver(src, dest, (REL_TAG, rel_seq, payload))

    def pending(self) -> bool:
        return any(d for row in self._unacked for d in row)

    def overdue_dests(self, age: int) -> Set[int]:
        """Destination ranks with at least one frame unacked for
        ``age`` or more ticks since it was *first* sent — the raw signal
        the comm layer's failure detector combines with last-progress
        tracking."""
        stuck: Set[int] = set()
        threshold = self.clock - age
        for src in range(self.world_size):
            for dest, unacked in enumerate(self._unacked[src]):
                if dest in stuck or not unacked:
                    continue
                for entry in unacked.values():
                    if entry[4] <= threshold:
                        stuck.add(dest)
                        break
        return stuck

    # -- failure marking / recovery -------------------------------------------

    def mark_dead(self, ranks: Iterable[int]) -> None:
        """Purge state involving ``ranks`` and drop future sends to them
        (degraded mode: nothing is owed to or expected from a dead peer).
        ``_seen`` and ``_next`` survive so a revived rank's new frames
        are not mistaken for replays of old ones."""
        for r in ranks:
            self.dead.add(r)
            for other in range(self.world_size):
                self._unacked[r][other].clear()
                self._unacked[other][r].clear()
                self._ack_pending[r][other].clear()
                self._ack_pending[other][r].clear()

    def revive(self, ranks: Iterable[int] | None = None) -> None:
        if ranks is None:
            self.dead.clear()
        else:
            self.dead.difference_update(ranks)

    def reset(self) -> None:
        """Discard all in-flight bookkeeping (crash-recovery reset: the
        driver replays from a checkpoint, so nothing from the failed
        epoch may be retransmitted or deduplicated against)."""
        for s in range(self.world_size):
            for d in range(self.world_size):
                self._next[s][d] = 0
                self._unacked[s][d].clear()
                self._seen[s][d].clear()
                self._ack_pending[s][d].clear()


def cut(run: tuple, index) -> tuple:
    """The rows ``index`` selects of a run ``(handler, dest, columns)``."""
    handler, dest, columns = run
    return handler, dest[index], tuple(col[index] for col in columns)


class Transport:
    """Base point-to-point + collectives substrate.

    Subclasses provide where a delivery lands (:meth:`_put`) and the
    cost hook; the delivery decision (:meth:`deliver`), the deque
    mailboxes, drain interface, and collective logic are shared.  Every
    subclass exposes the same attributes the comm layer relies on:
    ``config``, ``world_size``, ``net``, ``ledger``, ``counts`` and
    ``injector`` (``None`` unless a fault plan is in force).
    """

    def __init__(self, config: ClusterConfig, net: NetworkModel | None,
                 ledger: CostLedger) -> None:
        self.config = config
        self.net = net or NetworkModel()
        self.world_size = config.world_size
        self.ledger = ledger
        #: Where collective calls are counted (``transport.collectives``
        #: — the same calls on every backend, so the counter is
        #: conformant): the comm world driving this transport binds it
        #: to its open window (:meth:`count_into`).
        self.counts: Counter = Counter()
        self.injector = None
        #: Reliable-delivery layer; None until
        #: :meth:`enable_reliability` attaches one.
        self.reliability: ReliableDelivery | None = None
        #: Ranks the supervisor has declared failed (degraded mode);
        #: traffic touching them is discarded.  Kept distinct from the
        #: injector's crash set: injector crashes are the *simulated
        #: cause*, marks are the *runtime's verdict* — a backend with no
        #: injector still marks ranks it detects as dead.
        self.marked_failed: Set[int] = set()
        self._mailboxes: List[Deque[Tuple[int, Any]]] = [
            deque() for _ in range(self.world_size)]
        #: The rows in flight (:meth:`post`): runs ``(handler, dest,
        #: columns)`` sent without envelope ids, in the order they were
        #: posted, and ``envelope id -> [(handler, dest, columns), ...]``,
        #: the rows of each envelope not shipped yet — one entry per run
        #: that put rows in it (:meth:`take_envelope` hands them over).
        self.rows: List[tuple] = []
        self.envelopes: Dict[int, list] = {}
        self._alive = True

    def count_into(self, counts: Counter) -> None:
        """Count this transport's events, and its injector's, into
        ``counts`` — the open window of the comm world driving it."""
        self.counts = counts
        if self.injector is not None:
            self.injector.counts = counts

    # -- lifecycle -----------------------------------------------------------

    def shutdown(self) -> None:
        self._alive = False

    def _check_alive(self) -> None:
        if not self._alive:
            raise RuntimeStateError("cluster has been shut down")

    # -- topology ------------------------------------------------------------

    def node_of(self, rank: int) -> int:
        return self.config.node_of(rank)

    def is_offnode(self, src: int, dest: int) -> bool:
        return self.node_of(src) != self.node_of(dest)

    # -- point-to-point transport ---------------------------------------------

    def deliver(self, src: int, dest: int, item: Any,
                fault_exempt: bool = False) -> None:
        """Send ``item`` (already-flushed data) from ``src`` to ``dest``
        — the one delivery decision of every transport.

        Traffic touching a dead rank is discarded (exactly what a dead
        MPI process does to its peers); with a fault injector attached a
        remote (``src != dest``) delivery may be dropped, duplicated or
        held back for some delivery ticks; whatever survives lands
        through :meth:`_put`.  ``fault_exempt`` skips the perturbation
        (a released delayed copy must not be perturbed again).
        """
        self._check_alive()
        if not 0 <= dest < self.world_size:
            raise RuntimeStateError(f"destination rank {dest} out of range")
        if self.marked_failed and (src in self.marked_failed
                                   or dest in self.marked_failed):
            return
        inj = self.injector
        if inj is not None:
            if inj.is_crashed(src) or inj.is_crashed(dest):
                inj.counts["faults.crash_dropped"] += 1
                return
            if src != dest and not fault_exempt:
                for delay in inj.on_deliver(src, dest):
                    if delay == 0:
                        self._put(src, dest, item)
                    else:
                        inj.hold(delay, src, dest, item)
                return
        self._put(src, dest, item)

    def _put(self, src: int, dest: int, item: Any) -> None:
        """Where an undisturbed delivery lands: an exact FIFO append to
        ``dest``'s mailbox."""
        self._mailboxes[dest].append((src, item))

    def post(self, src, run: tuple, env: np.ndarray | None = None) -> None:
        """Put a run of rows in flight — ``(handler, dest, columns)``,
        row ``i`` sent by ``src`` (one rank or ``src[i]``) to
        ``dest[i]``.  Without ``env`` the rows are delivered as they
        are, at the next delivery round.  With ``env`` (one envelope id
        per row, each envelope's rows adjacent) they are filed under
        their envelopes, once, here, until the envelope is shipped
        (:meth:`take_envelope`): then they travel in its ``bflush``
        item, and a row is delivered once per copy of the item that
        reaches the destination's mailbox — the copies :meth:`deliver`
        decides on.  Rows touching a failed rank are discarded, as
        :meth:`deliver` discards items."""
        self._check_alive()
        if self.marked_failed:
            failed = list(self.marked_failed)
            alive = ~(np.isin(run[1], failed) | np.isin(src, failed))
            if not alive.all():
                if not alive.any():
                    return
                run = cut(run, alive)
                env = None if env is None else env[alive]
        if env is None:
            self.rows.append(run)
            return
        handler, dest, columns = run
        bounds = [0, *(np.flatnonzero(env[1:] != env[:-1]) + 1).tolist(),
                  len(env)]
        envelopes = self.envelopes
        for key, lo, hi in zip(env[bounds[:-1]].tolist(), bounds[:-1],
                               bounds[1:]):
            envelopes.setdefault(key, []).append(
                (handler, dest[lo:hi], tuple(col[lo:hi] for col in columns)))

    def take_rows(self) -> List[tuple]:
        """Hand over every run in flight without envelope ids."""
        runs, self.rows = self.rows, []
        return runs

    def take_envelope(self, key: int) -> list:
        """Hand over the entries filed under envelope ``key`` (none when
        its rows were all for a failed rank)."""
        return self.envelopes.pop(key, [])

    def release_due_faults(self) -> int:
        """Advance the injector's delay clock one tick and deliver the
        held messages now due (a rank that died while one was held gets
        nothing); returns how many were released."""
        inj = self.injector
        if inj is None:
            return 0
        due = inj.tick()
        for src, dest, item in due:
            self.deliver(src, dest, item, fault_exempt=True)
        return len(due)

    # -- reliability and failure marking ---------------------------------------

    def enable_reliability(self, window: Delta, retry_timeout: int = 4,
                           max_retries: int = 32) -> ReliableDelivery:
        """Attach (and return) a :class:`ReliableDelivery` layer counting
        into ``window``.  The comm layer calls this when constructed with
        ``reliable=True``; the transport holds the reference so failure
        marking and repair stay coherent with the reliability state."""
        self.reliability = ReliableDelivery(
            self, window, retry_timeout=retry_timeout,
            max_retries=max_retries)
        return self.reliability

    def mark_failed(self, ranks: Iterable[int]) -> None:
        """Record ``ranks`` as dead: their traffic is discarded and the
        reliability layer (when attached) stops awaiting their acks."""
        ranks = set(ranks)
        self.marked_failed |= ranks
        if self.reliability is not None:
            self.reliability.mark_dead(ranks)

    def kill_rank(self, rank: int) -> None:
        """The crash clock fired for ``rank``.  Nothing to do here — the
        injector's crash set already discards its traffic; a transport
        whose ranks are real processes overrides this to take the owner
        down."""

    def failed_ranks(self) -> Set[int]:
        """The union of supervisor-marked and injector-crashed ranks —
        the uniform failure signal every backend reports."""
        failed = set(self.marked_failed)
        if self.injector is not None:
            failed |= self.injector.crashed
        return failed

    def repair_all(self) -> None:
        """Re-admit every failed rank: clear marks, revive the
        reliability layer's dead set, and repair injector crashes."""
        self.marked_failed.clear()
        if self.reliability is not None:
            self.reliability.revive()
        if self.injector is not None:
            self.injector.repair_all()

    def clear_mailboxes(self) -> None:
        """Discard all undelivered traffic (crash-recovery reset), the
        copies an injector is holding back included."""
        for mb in self._mailboxes:
            mb.clear()
        self.rows = []
        self.envelopes = {}
        if self.injector is not None:
            self.injector.drop_delayed()

    def mailbox_len(self, rank: int) -> int:
        return len(self._mailboxes[rank])

    def mailbox_empty(self, rank: int) -> bool:
        return not self._mailboxes[rank]

    def all_quiescent(self) -> bool:
        """Nothing queued: no mailbox item, no run awaiting delivery
        (the rows of an envelope travel in its item)."""
        return all(not mb for mb in self._mailboxes) and not self.rows

    def drain_one(self, rank: int) -> Tuple[int, Any] | None:
        """Pop the oldest pending item for ``rank`` or None."""
        mb = self._mailboxes[rank]
        return mb.popleft() if mb else None

    def pending_total(self) -> int:
        return sum(len(mb) for mb in self._mailboxes)

    # -- cost hook -------------------------------------------------------------

    def _charge_collective(self, item_bytes: int) -> None:
        """Charge every rank for one collective of ``item_bytes`` per
        rank (no-op unless the transport models costs)."""

    # -- collectives -----------------------------------------------------------

    def allreduce(
        self, contributions: Sequence[Any],
        op: Callable[[Any, Any], Any] | None = None,
        item_bytes: int = 8,
    ) -> List[Any]:
        """Reduce per-rank contributions with ``op`` (default sum); every
        rank receives the result."""
        self._check_alive()
        self.counts["transport.collectives"] += 1
        self._require_full(contributions)
        if op is None:
            total: Any = 0
            for c in contributions:
                total = total + c
        else:
            it = iter(contributions)
            total = next(it)
            for c in it:
                total = op(total, c)
        self._charge_collective(item_bytes)
        return [total] * self.world_size

    def allreduce_sum(self, contributions: Sequence[float]) -> float:
        """Convenience: scalar sum-allreduce, returns the single value."""
        return self.allreduce(list(contributions))[0]

    def gather(self, contributions: Sequence[Any], root: int = 0,
               item_bytes: int = 8) -> List[List[Any] | None]:
        """Root receives the list of contributions; other ranks get None.

        Like every collective here, the return value is *per-rank*:
        ``result[root]`` is the contribution list, every other slot is
        ``None`` — so rank code cannot accidentally read data that only
        the root owns (MPI_Gather's actual contract).
        """
        self._check_alive()
        self.counts["transport.collectives"] += 1
        if not 0 <= root < self.world_size:
            raise RuntimeStateError(f"root rank {root} out of range")
        self._require_full(contributions)
        self._charge_collective(item_bytes)
        gathered = list(contributions)
        return [gathered if r == root else None for r in range(self.world_size)]

    def _require_full(self, contributions: Sequence[Any]) -> None:
        if len(contributions) != self.world_size:
            raise RuntimeStateError(
                f"collective needs one contribution per rank "
                f"({self.world_size}), got {len(contributions)}"
            )
