"""Deterministic fault injection for a comm world's transport.

The paper's DNND targets thousands of MPI ranks, where message loss,
stragglers, and outright rank failures are the operational reality.  The
simulated runtime is perfectly reliable by default, so none of the
recovery machinery a production deployment needs would ever be
exercised.  This module supplies the missing adversary:

- :class:`FaultPlan` — a frozen, seeded description of *what* can go
  wrong: per-delivery drop / duplication / delay probabilities, per-flush
  reorder and transient-stall probabilities (with modeled time
  penalties), and scheduled rank crashes at given iterations.  Two plans
  with equal fields replay **byte-identically**: every probabilistic
  decision comes from a keyed RNG stream derived from ``seed``.
- :class:`FaultInjector` — the stateful consumer of a plan that
  :meth:`Transport.deliver <repro.runtime.transports.base.Transport.deliver>`
  and :meth:`YGMWorld._ship <repro.runtime.ygm.YGMWorld._ship>`
  consult on either backend.  It tracks crashed ranks, holds delayed
  deliveries until their release tick, and counts everything it does as
  ``faults.<event>`` into the open window of the comm world that drives
  its transport.

The fault unit is the **flushed buffer**: the comm layer ships every
delivery as one ``bflush`` envelope (YGM ships buffers, never single
RPCs), so one decision drops, duplicates or delays every message a
buffer holds, and a reorder permutes a buffer's entries.  Rates, the
``faults.<event>`` counters and the reliable-delivery retry budget all
count envelopes, not messages.

Faults model the *network and the nodes*, not the program: only remote
(``src != dest``) traffic is perturbed, and collectives are left alone
(MPI collectives carry their own completion semantics).  Masking the
faults is the job of :class:`~repro.runtime.ygm.YGMWorld`'s reliable
delivery mode and the checkpoint-recovery loop in
:class:`~repro.core.dnnd.DNND`.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass
from typing import Any, List, Tuple

from ..errors import ConfigError
from ..utils.rng import derive_rng

# Key mixed into the seed so the fault stream never collides with the
# algorithm's own keyed RNG streams (which use small phase keys).
_FAULT_STREAM_KEY = 0xFA17


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of the faults to inject into one run.

    Attributes
    ----------
    seed:
        Root seed of the decision stream; equal plans replay
        byte-identically (see :meth:`signature`).
    drop_rate / dup_rate / delay_rate:
        Per-remote-delivery probabilities — a delivery is one flushed
        buffer — of losing it, delivering an extra copy, and deferring
        it by 1..``max_delay_ticks`` barrier rounds.
    reorder_rate:
        Per-flush probability that the flushed buffer's entries (one
        per run that put rows in it — one row for a lone
        ``async_call``) are delivered in a permuted order.  Rows keep
        their order within an entry, and a host applies each handler
        once per round, so a reorder moves an entry within its
        handler's run.
    stall_rate / stall_seconds:
        Per-flush probability that the sending rank stalls (a straggler:
        page fault, OS jitter, a slow NIC), charging ``stall_seconds``
        of modeled time to its clock.
    crashes:
        ``((iteration, rank), ...)`` — rank ``rank`` dies at the start
        of NN-Descent iteration ``iteration`` (0-based).  Each crash
        fires once, even if the iteration is replayed after recovery.
    """

    seed: int = 0
    drop_rate: float = 0.0
    dup_rate: float = 0.0
    reorder_rate: float = 0.0
    delay_rate: float = 0.0
    max_delay_ticks: int = 3
    stall_rate: float = 0.0
    stall_seconds: float = 1.0e-4
    crashes: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        for name in ("drop_rate", "dup_rate", "reorder_rate", "delay_rate",
                     "stall_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if self.max_delay_ticks < 1:
            raise ConfigError("max_delay_ticks must be >= 1")
        if self.stall_seconds < 0:
            raise ConfigError("stall_seconds must be >= 0")
        object.__setattr__(
            self, "crashes",
            tuple(sorted((int(it), int(rank)) for it, rank in self.crashes)))
        for it, _rank in self.crashes:
            if it < 0:
                raise ConfigError(f"crash iteration must be >= 0, got {it}")

    @property
    def is_null(self) -> bool:
        """True when the plan injects nothing at all."""
        return (self.drop_rate == 0.0 and self.dup_rate == 0.0
                and self.reorder_rate == 0.0 and self.delay_rate == 0.0
                and self.stall_rate == 0.0 and not self.crashes)

    def with_crash(self, rank: int, at_iteration: int) -> "FaultPlan":
        """A copy of this plan with one more scheduled rank crash."""
        return dataclasses.replace(
            self, crashes=self.crashes + ((int(at_iteration), int(rank)),))

    def signature(self, n_events: int = 256) -> bytes:
        """The first ``n_events`` raw decision draws as bytes.

        Determinism probe: two plans with equal fields produce equal
        signatures, so a logged plan can be replayed exactly.
        """
        rng = derive_rng(self.seed, _FAULT_STREAM_KEY)
        return rng.random(int(n_events)).tobytes()


class FaultInjector:
    """Stateful, deterministic executor of a :class:`FaultPlan`.

    One injector serves one transport: the sim world's
    :class:`~repro.runtime.transports.SimCluster`, or — under the process
    backend — each worker's transport (the plan without its crashes,
    seeded per worker), while the driver's own copy is the crash clock.
    All randomness is drawn in call order from a single keyed stream, so
    a fixed program + plan yields a bit-identical fault schedule on sim.
    """

    def __init__(self, plan: FaultPlan, world_size: int) -> None:
        self.plan = plan
        self.world_size = int(world_size)
        for _it, rank in plan.crashes:
            if not 0 <= rank < self.world_size:
                raise ConfigError(
                    f"crash rank {rank} out of range for world size "
                    f"{self.world_size}")
        #: What it did, as ``faults.<event>`` counts: the counts of the
        #: open window of the comm world that adopts this injector.
        self.counts: Counter = Counter()
        self.crashed: set[int] = set()
        self._fired_crashes: set[Tuple[int, int]] = set()
        self._rng = derive_rng(plan.seed, _FAULT_STREAM_KEY)
        # Delayed deliveries: (release_tick, insertion_index, src, dest, item).
        self._delayed: List[Tuple[int, int, int, int, Any]] = []
        self._held = 0
        self._clock = 0

    # -- per-delivery decisions (consulted by Transport.deliver) ------------

    def on_deliver(self, src: int, dest: int) -> List[int]:
        """Fault decision for one remote delivery (a flushed buffer, a
        retransmit of one, or an ack).

        Returns a list of tick delays, one per copy to deliver: ``[0]``
        is a clean immediate delivery, ``[]`` a drop, ``[0, 0]`` a
        duplicate, ``[2]`` a delivery deferred by two barrier rounds.
        """
        plan = self.plan
        if plan.drop_rate and self._rng.random() < plan.drop_rate:
            self.counts["faults.dropped"] += 1
            return []
        delays = [0]
        if plan.delay_rate and self._rng.random() < plan.delay_rate:
            delays[0] = 1 + int(self._rng.integers(plan.max_delay_ticks))
            self.counts["faults.delayed"] += 1
        if plan.dup_rate and self._rng.random() < plan.dup_rate:
            delays.append(0)
            self.counts["faults.duplicated"] += 1
        return delays

    def hold(self, delay_ticks: int, src: int, dest: int, item: Any) -> None:
        """Park a delayed delivery until ``delay_ticks`` ticks from now."""
        self._held += 1
        self._delayed.append(
            (self._clock + int(delay_ticks), self._held, src, dest, item))

    def tick(self) -> List[Tuple[int, int, Any]]:
        """Advance the clock one barrier round; return due deliveries."""
        self._clock += 1
        due = [(src, dest, item)
               for release, _i, src, dest, item in self._delayed
               if release <= self._clock]
        if due:
            self._delayed = [entry for entry in self._delayed
                             if entry[0] > self._clock]
        return due

    def pending_delayed(self) -> int:
        return len(self._delayed)

    def drop_delayed(self) -> None:
        """Forget every held delivery (in-flight traffic of an epoch
        the driver abandoned)."""
        self._delayed.clear()

    # -- per-flush decisions (consulted by YGMWorld._ship) -------------------

    def maybe_reorder(self, n_entries: int):
        """Permutation to apply to a flushed buffer's entries, or
        ``None``."""
        plan = self.plan
        if (n_entries > 1 and plan.reorder_rate
                and self._rng.random() < plan.reorder_rate):
            self.counts["faults.reordered_flushes"] += 1
            return self._rng.permutation(n_entries)
        return None

    def maybe_stall(self) -> float:
        """Seconds of straggler time to charge the flushing rank."""
        plan = self.plan
        if plan.stall_rate and self._rng.random() < plan.stall_rate:
            self.counts["faults.stalls"] += 1
            return plan.stall_seconds
        return 0.0

    # -- rank crashes (consulted by the DNND driver) -------------------------

    def is_crashed(self, rank: int) -> bool:
        return rank in self.crashed

    def advance_iteration(self, iteration: int) -> List[int]:
        """Fire crashes scheduled for ``iteration``; returns new victims.

        Each scheduled crash fires exactly once — when the driver
        replays the iteration after recovering, the rank stays repaired.
        """
        newly = []
        for it, rank in self.plan.crashes:
            if it == iteration and (it, rank) not in self._fired_crashes:
                self._fired_crashes.add((it, rank))
                if rank not in self.crashed:
                    self.crashed.add(rank)
                    self.counts["faults.crashes"] += 1
                    newly.append(rank)
        return newly

    def repair_all(self) -> None:
        """Resurrect every crashed rank (the replacement-node model) and
        drop any in-flight delayed traffic from the failed epoch."""
        if self.crashed:
            self.counts["faults.recoveries"] += 1
        self.crashed.clear()
        self.drop_delayed()


def make_injector(plan: "FaultPlan | None", world_size: int):
    """``FaultInjector`` for ``plan``, or ``None`` for a null/absent plan
    with no crash schedule (the zero-overhead default path)."""
    if plan is None or plan.is_null:
        return None
    return FaultInjector(plan, world_size)
