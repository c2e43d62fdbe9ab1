"""Message statistics by type — the measurement behind Figure 4.

The paper names four message kinds in the neighbor-check step
(Section 4.3 / Figure 1):

- ``type1`` — neighbor-check request from the center vertex,
- ``type2`` — feature-vector message (unoptimized pattern),
- ``type2+`` — feature vector + sender's worst-neighbor distance
  (optimized pattern, Section 4.3.3),
- ``type3`` — distance reply (optimized pattern, Section 4.3.1).

Figure 4 reports, per pattern, the number of messages and total bytes.
:class:`MessageStats` tracks exactly that, split by message type and by
whether the message crossed a node boundary ("sent off nodes" in the
paper's wording).

Counters reach the driver one way: as a :class:`Delta` — what changed at
a world since its last export — appended to the barrier log
(:mod:`.tracing`) once per barrier.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Mapping, Tuple


@dataclass
class TypeStats:
    """Counters for one message type."""

    count: int = 0
    bytes: int = 0
    offnode_count: int = 0
    offnode_bytes: int = 0

    def record(self, nbytes: int, offnode: bool) -> None:
        self.count += 1
        self.bytes += int(nbytes)
        if offnode:
            self.offnode_count += 1
            self.offnode_bytes += int(nbytes)

    def record_many(self, count: int, nbytes: int,
                    offnode_count: int, offnode_bytes: int) -> None:
        """Aggregated form of :meth:`record` — integer counters are
        order-free, so batched emission can record one sum per block and
        stay identical to per-message recording."""
        self.count += int(count)
        self.bytes += int(nbytes)
        self.offnode_count += int(offnode_count)
        self.offnode_bytes += int(offnode_bytes)

    def merged(self, other: "TypeStats") -> "TypeStats":
        return TypeStats(
            self.count + other.count,
            self.bytes + other.bytes,
            self.offnode_count + other.offnode_count,
            self.offnode_bytes + other.offnode_bytes,
        )


@dataclass
class FaultStats:
    """Counters for injected faults and the recovery work they caused.

    Network events count flushed buffers, the unit the network perturbs
    (:mod:`.faults`): ``dropped``/``duplicated``/``delayed`` are
    envelopes (acks included), ``retransmits`` and
    ``duplicates_suppressed`` reliability frames around envelopes.
    The injector (:mod:`.faults`) increments the fault side; the
    transport-level reliability layer
    (:class:`~repro.runtime.transports.base.ReliableDelivery`) and the
    comm layer's failure detector increment the recovery side.  One
    shared instance per run, so an ablation can report "N drops cost M
    retransmits" from one object.
    """

    dropped: int = 0
    duplicated: int = 0
    reordered_flushes: int = 0
    delayed: int = 0
    stalls: int = 0
    crashes: int = 0
    crash_dropped: int = 0
    recoveries: int = 0
    retransmits: int = 0
    acks_sent: int = 0
    duplicates_suppressed: int = 0
    retry_budget_exhausted: int = 0
    #: Rank failures the comm layer *detected* (crashed-set observation
    #: or heartbeat timeout), each counted once per failure event — the
    #: numerator of the detection-SLO metrics.
    detected: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    def counts(self) -> Dict[str, int]:
        """The snapshot under the counters' registry names."""
        return {"faults." + event: n for event, n in self.snapshot().items()}

    def total_events(self) -> int:
        return sum(self.snapshot().values())

    def any_faults(self) -> bool:
        """True if the injector perturbed anything (recovery counters
        excluded: retransmits without faults would be a bug)."""
        return bool(self.dropped or self.duplicated or self.reordered_flushes
                    or self.delayed or self.stalls or self.crashes)

    def format_line(self) -> str:
        active = {k: v for k, v in self.snapshot().items() if v}
        if not active:
            return "faults: none"
        return "faults: " + ", ".join(f"{k}={v:,}" for k, v in sorted(active.items()))


@dataclass
class MessageStats:
    """Per-type message accounting for one run (or one phase of a run)."""

    by_type: Dict[str, TypeStats] = field(default_factory=dict)

    def record(self, msg_type: str, nbytes: int, offnode: bool) -> None:
        stats = self.by_type.get(msg_type)
        if stats is None:
            stats = self.by_type[msg_type] = TypeStats()
        stats.record(nbytes, offnode)

    def record_many(self, msg_type: str, count: int, nbytes: int,
                    offnode_count: int, offnode_bytes: int) -> None:
        """Record an aggregated block of same-type messages (see
        :meth:`TypeStats.record_many`)."""
        stats = self.by_type.get(msg_type)
        if stats is None:
            stats = self.by_type[msg_type] = TypeStats()
        stats.record_many(count, nbytes, offnode_count, offnode_bytes)

    # -- aggregate views ----------------------------------------------------

    def _selected(self, types: Iterable[str] | None) -> Iterable[TypeStats]:
        """The counters of ``types`` (all types when ``None``); ``types``
        is read once, so a generator selects as a list does."""
        if types is None:
            return self.by_type.values()
        wanted = set(types)
        return [s for t, s in self.by_type.items() if t in wanted]

    def total_count(self, types: Iterable[str] | None = None) -> int:
        return sum(s.count for s in self._selected(types))

    def total_bytes(self, types: Iterable[str] | None = None) -> int:
        return sum(s.bytes for s in self._selected(types))

    def offnode_count(self, types: Iterable[str] | None = None) -> int:
        return sum(s.offnode_count for s in self._selected(types))

    def offnode_bytes(self, types: Iterable[str] | None = None) -> int:
        return sum(s.offnode_bytes for s in self._selected(types))

    def get(self, msg_type: str) -> TypeStats:
        return self.by_type.get(msg_type, TypeStats())

    def add(self, other: "MessageStats") -> None:
        """Add ``other``'s counters to these, type by type."""
        for t, s in other.by_type.items():
            self.by_type[t] = self.get(t).merged(s)

    def since(self, base: "MessageStats") -> "MessageStats":
        """What was recorded here and not yet in ``base`` (an earlier
        state of these counters); types that did not move are left out."""
        out = MessageStats()
        for t, s in self.by_type.items():
            b = base.get(t)
            if s != b:
                out.by_type[t] = TypeStats(
                    s.count - b.count, s.bytes - b.bytes,
                    s.offnode_count - b.offnode_count,
                    s.offnode_bytes - b.offnode_bytes)
        return out

    def snapshot(self) -> Dict[str, Tuple[int, int]]:
        """``{type: (count, bytes)}`` — compact view for reports."""
        return {t: (s.count, s.bytes) for t, s in sorted(self.by_type.items())}

    def reset(self) -> None:
        self.by_type.clear()

    def format_table(self, title: str = "messages") -> str:
        """Fixed-width report used by benchmarks and examples."""
        lines = [
            f"{title}",
            f"{'type':<10s} {'count':>14s} {'bytes':>16s} {'off-node count':>16s} {'off-node bytes':>16s}",
        ]
        for t in sorted(self.by_type):
            s = self.by_type[t]
            lines.append(
                f"{t:<10s} {s.count:>14,d} {s.bytes:>16,d} {s.offnode_count:>16,d} {s.offnode_bytes:>16,d}"
            )
        lines.append(
            f"{'TOTAL':<10s} {self.total_count():>14,d} {self.total_bytes():>16,d} "
            f"{self.offnode_count():>16,d} {self.offnode_bytes():>16,d}"
        )
        return "\n".join(lines)


@dataclass
class Delta:
    """What changed at one world between two exports — the only form in
    which counters travel (a sim world hands one to its log at the end of
    ``barrier()``, a process worker ships one in every ``__round__``
    reply).  Deltas add up: a barrier record is the sum of the deltas of
    its window, the running totals the sum of all of them.

    Attributes
    ----------
    messages:
        Per-type message / byte / off-node counts.
    counts:
        World-level counters under their registry names:
        ``comm.flushes``, ``executor.tasks`` (handler invocations),
        ``comm.local_deliveries``, ``faults.<event>``.
    ranks:
        ``rank -> tally -> n``: what the rank program counted through
        :attr:`RankContext.tally <repro.runtime.ygm.RankContext>`
        (DNND: ``heap.updates`` offers, accepted ``updates``,
        ``distance.evals``, ``kernel.tile_flops``, ``kernel.fallbacks``).
    """

    messages: MessageStats = field(default_factory=MessageStats)
    counts: Counter = field(default_factory=Counter)
    ranks: Dict[int, Counter] = field(default_factory=dict)

    def add(self, other: "Delta") -> None:
        self.messages.add(other.messages)
        self.counts.update(other.counts)
        for rank, tally in other.ranks.items():
            self.ranks.setdefault(rank, Counter()).update(tally)

    def since(self, base: "Delta") -> "Delta":
        """What these (cumulative) counters hold beyond ``base``, an
        earlier state of them."""
        return Delta(
            self.messages.since(base.messages), self.counts - base.counts,
            {rank: moved for rank, tally in self.ranks.items()
             if (moved := tally - base.ranks.get(rank, Counter()))})

    @classmethod
    def total(cls, deltas: Iterable["Delta"]) -> "Delta":
        out = cls()
        for delta in deltas:
            out.add(delta)
        return out

    def tally(self, name: str) -> int:
        """Tally ``name`` summed over ranks."""
        return sum(tally[name] for tally in self.ranks.values())

    def to_json(self) -> Dict[str, Any]:
        return {"messages": {t: list(dataclasses.astuple(s))
                             for t, s in self.messages.by_type.items()},
                "counts": dict(self.counts),
                "ranks": {str(rank): dict(tally)
                          for rank, tally in self.ranks.items()}}

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "Delta":
        return cls(
            MessageStats({t: TypeStats(*row)
                          for t, row in obj["messages"].items()}),
            Counter(obj["counts"]),
            {int(rank): Counter(tally)
             for rank, tally in obj["ranks"].items()})
