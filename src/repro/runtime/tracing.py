"""The barrier log — one time series of counters, and every view of it.

The paper's evidence is counters over time: Figure 4 is per-type message
counts and bytes of the neighbor-check phase, and Section 7 asks for
"further performance profiling ... such as finding how much the
computation or communication is heavier than the other and
understanding communication patterns deeply."  A comm facade
(:class:`~repro.runtime.ygm.YGMWorld`, the process backend's
:class:`~repro.runtime.transports.process.ProcessWorld`) owns one
:class:`BarrierLog`, always on and append-only:

- every counter is counted once, into the log's open
  :attr:`BarrierLog.window` (a :class:`~.instrumentation.Delta` its
  writers add to in place: the comm world, reliable delivery, the fault
  injector, the transport's collectives, the rank program's
  ``ctx.tally``); a process worker's world hands its window over whole
  in every ``__round__`` reply, and the driver adds it to its own log
  (:meth:`BarrierLog.absorb`);
- :attr:`BarrierLog.totals` is the one running copy: everything absorbed
  so far.  A read is the totals plus the open window
  (:meth:`BarrierLog.live`), computed when it is made;
- each completed barrier appends **one** :class:`BarrierRecord`
  (:meth:`BarrierLog.commit`, which absorbs the open window first):
  index, the phase / iteration / attempt labels the driver set
  (:meth:`BarrierLog.enter`), a wall timestamp, the modeled duration and
  imbalance (zero / one without a cost ledger), and the sum of the
  deltas absorbed since the previous record;
- a rank failure the driver recovers from closes the window it
  interrupted as a record of its own (:meth:`BarrierLog.abandon`), so
  what the abandoned try had sent is on the log — and in the totals —
  but never inside a record of the replay:
  ``len(records) == comm.barriers + attempt``.

Everything else is a read-only view: every registry counter by name
(:meth:`BarrierLog.counters`, the one place those names are spelled),
per-phase message tables (:meth:`BarrierLog.phase_stats`),
per-iteration traffic and the Algorithm 1 line 23 update counts
(:meth:`BarrierLog.iterations`, rolled-back attempts left out), the
per-superstep timelines Section 7 asks for (the ``RuntimeTracer``
queries below), and the ``"barriers"`` list of a metrics snapshot.
Nothing is recorded twice and nothing wraps ``barrier``:
:func:`attach_tracer` returns the world's log, so it works on every
backend, any number of times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping

from .instrumentation import Delta, FaultStats, MessageStats

#: Window counters published under their own names (zeros included, so
#: fault-free runs and backends without an injector expose the same
#: names) ...
_COUNTED = ("executor.tasks", "executor.dispatches", "comm.flushes",
            "comm.local_deliveries", "transport.collectives",
            *FaultStats().counts())
#: ... and rank-program tallies, summed over ranks.
_TALLIED = ("heap.updates", "distance.evals", "kernel.tile_flops")


@dataclass
class BarrierRecord:
    """One superstep: what happened between two barriers (or, for the
    last record of an abandoned attempt, up to the failure)."""

    index: int
    phase: str
    iteration: int | None
    """The NN-Descent iteration the driver was in (``None`` outside one:
    init, gather, optimize, ...)."""
    attempt: int
    """Failures the build had survived when this barrier completed; an
    iteration replayed after a failure carries a higher attempt than the
    records of the try that was abandoned."""
    time: float
    """Wall seconds since the metrics registry's epoch."""
    duration: float
    imbalance: float
    delta: Delta

    def to_json(self) -> Dict[str, Any]:
        return {**vars(self), "delta": self.delta.to_json()}

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "BarrierRecord":
        return cls(**{**obj, "delta": Delta.from_json(obj["delta"])})


class BarrierLog:
    """Append-only log of :class:`BarrierRecord`, the running totals,
    and the views over both (see the module docstring)."""

    def __init__(self, records: Iterable[BarrierRecord] = ()) -> None:
        self.records: List[BarrierRecord] = list(records)
        #: Everything absorbed so far: the records' deltas plus what
        #: arrived since the last one.
        self.totals = Delta.total(r.delta for r in self.records)
        #: The open window: counted here, not yet absorbed.
        self.window = Delta()
        #: Labels stamped on the next record.
        self.phase = "default"
        self.iteration: int | None = None
        self.attempt = 0
        self._pending = Delta()
        # Phases entered, in order (a phase may take no barrier).
        self._entered: Dict[str, None] = {}

    # -- writing (comm facades only) ------------------------------------------

    def enter(self, phase: str, iteration: int | None = None) -> None:
        """Label the records that follow."""
        self.phase, self.iteration = phase, iteration
        self._entered.setdefault(phase)

    def absorb(self, delta: Delta) -> None:
        self.totals.add(delta)
        self._pending.add(delta)

    def commit(self, time: float, duration: float, imbalance: float) -> None:
        """A barrier completed: absorb the open window and append the
        record of everything absorbed since the previous one."""
        self.absorb(self.window.take())
        self.records.append(BarrierRecord(
            len(self.records), self.phase, self.iteration, self.attempt,
            time, duration, imbalance, self._pending))
        self._pending = Delta()

    def abandon(self, time: float) -> None:
        """A rank failed and the driver starts the interrupted iteration
        (or an earlier one) over: close the window as the last record of
        this attempt and number what follows as the next."""
        self.commit(time, 0.0, 1.0)
        self.attempt += 1

    # -- views: counters, export, phases and iterations ------------------------------

    def live(self) -> Delta:
        """Every counter as of now: the totals plus the open window."""
        return Delta.total((self.totals, self.window))

    def counters(self) -> Dict[str, int]:
        """Every registry counter of the run, by name — the one place
        the names are spelled (DESIGN.md §12): per type
        ``messages.sent.<type>`` / ``messages.bytes.<type>``, their
        totals and off-node shares, the window counters and rank
        tallies, the barriers the driver completed and the failures it
        survived, and the accepted updates of the iterations that
        count."""
        live = self.live()
        sent = live.messages
        out: Dict[str, int] = {}
        for t, s in sent.by_type.items():
            out[f"messages.sent.{t}"] = s.count
            out[f"messages.bytes.{t}"] = s.bytes
        out["messages.sent"] = sent.total_count()
        out["bytes.sent"] = sent.total_bytes()
        out["messages.offnode.sent"] = sent.offnode_count()
        out["messages.offnode.bytes"] = sent.offnode_bytes()
        # Every wire message is a remote delivery; self-sends are
        # ``comm.local_deliveries`` and never reach the message stats.
        out["comm.remote_deliveries"] = sent.total_count()
        for name in _COUNTED:
            out[name] = live.counts[name]
        for name in _TALLIED:
            out[name] = live.tally(name)
        out["heap.updates.accepted"] = sum(
            r.delta.tally("updates")
            for group in self.iterations().values() for r in group)
        out["comm.barriers"] = len(self.records) - self.attempt
        out["recovery.attempts"] = self.attempt
        # No configuration falls back to another backend; the name
        # stays for the benchmark's layer table.
        out["backend.fallbacks"] = 0
        return out


    def to_json(self) -> List[Dict[str, Any]]:
        return [record.to_json() for record in self.records]

    def phase_stats(self) -> Dict[str, MessageStats]:
        """Per-type message tables grouped by phase.  A phase's table
        holds everything sent inside it, the reliability layer's ``ack``
        and ``retransmit`` traffic included; a phase that was entered
        and took no barrier (``sample``, ``union``, ``gather``) sent
        nothing and has an empty one."""
        out = {phase: MessageStats() for phase in self._entered}
        for record in self.records:
            out.setdefault(record.phase, MessageStats()).add(
                record.delta.messages)
        return out

    def iterations(self) -> Dict[int, List[BarrierRecord]]:
        """``iteration -> its records``, ascending, rolled-back tries
        left out: a new attempt reaching an iteration starts it over and
        voids every later one (the driver replays from there).  What an
        abandoned try sent stays in the totals and the phase tables — it
        was genuinely spent — but not here."""
        out: Dict[int, List[BarrierRecord]] = {}
        for record in self.records:
            if record.iteration is None:
                continue
            group = out.get(record.iteration)
            if group is None or group[0].attempt != record.attempt:
                out = {it: g for it, g in out.items()
                       if it < record.iteration}
                group = out[record.iteration] = []
            group.append(record)
        return out

    def per_iteration_messages(self) -> List[Dict[str, tuple]]:
        """``{type: (count, bytes)}`` per iteration of
        :meth:`iterations`, with a zero entry for every type sent
        earlier in the run."""
        out = []
        for group in self.iterations().values():
            sent = Delta.total(r.delta for r in group).messages
            earlier = {t: (0, 0) for record in self.records[:group[0].index]
                       for t in record.delta.messages.by_type}
            out.append({**earlier, **sent.snapshot()})
        return out

    def iteration_tally(self, iteration: int, name: str) -> Dict[int, int]:
        """``rank -> tally`` of one iteration (its latest attempt)."""
        window = Delta.total(
            r.delta for r in self.iterations().get(iteration, ()))
        return {rank: tally[name] for rank, tally in window.ranks.items()}

    # -- views: per-superstep timelines (Section 7) ------------------------------

    def total_supersteps(self) -> int:
        return len(self.records)

    def phase_durations(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for r in self.records:
            out[r.phase] = out.get(r.phase, 0.0) + r.duration
        return out

    def peak_imbalance(self) -> float:
        return max((r.imbalance for r in self.records), default=1.0)

    def message_timeline(self, msg_type: str) -> List[int]:
        """Messages of ``msg_type`` sent in each superstep window."""
        return [r.delta.messages.get(msg_type).count for r in self.records]

    def fault_timeline(self, event: str) -> List[int]:
        """Fault/recovery events of one kind (e.g. ``"retransmits"``)
        per superstep window."""
        return [r.delta.counts["faults." + event] for r in self.records]

    def total_fault_events(self) -> Dict[str, int]:
        """``event -> n`` of the fault / recovery events that occurred."""
        return {name[len("faults."):]: n
                for name, n in self.live().counts.items()
                if name.startswith("faults.")}

    def busiest_supersteps(self, top: int = 5) -> List[BarrierRecord]:
        return sorted(self.records, key=lambda r: -r.duration)[:top]

    def report(self) -> str:
        """Human-readable bottleneck summary."""
        # Imported here: repro.eval pulls in the algorithm stack, which
        # itself imports repro.runtime — a module-level import would be
        # circular.
        from ..eval.tables import ascii_table

        durations = self.phase_durations()
        total = sum(durations.values()) or 1.0
        rows = [
            [phase, f"{secs:.6f}", f"{secs / total:.1%}"]
            for phase, secs in sorted(durations.items(), key=lambda t: -t[1])
        ]
        out = [ascii_table(["phase", "sim seconds", "share"], rows,
                           title="phase breakdown")]
        rows = [[r.index, r.phase, f"{r.duration:.6f}", f"{r.imbalance:.2f}",
                 r.delta.messages.total_count()]
                for r in self.busiest_supersteps(3)]
        out.append(ascii_table(
            ["step", "phase", "duration", "imbalance", "messages"],
            rows, title="busiest supersteps"))
        faults = self.total_fault_events()
        if faults:
            rows = [[event, count] for event, count in sorted(faults.items())]
            out.append(ascii_table(["event", "count"], rows,
                                   title="fault / recovery events"))
        return "\n\n".join(out)

    def iteration_report(self, threshold: float | None = None) -> str:
        """One row per iteration of :meth:`iterations`: the accepted
        updates (Algorithm 1's ``c``) against the ``delta * K * N``
        bound, the Figure 4 message types as ``count / bytes``, and the
        spread of distance evaluations over ranks — imbalance
        *measured*, on any backend."""
        from ..eval.tables import ascii_table

        bound = "-" if threshold is None else f"{threshold:,.1f}"
        rows = []
        for iteration, group in self.iterations().items():
            window = Delta.total(r.delta for r in group)
            sent = window.messages
            evals = [t["distance.evals"] for t in window.ranks.values()]
            mean = sum(evals) / max(1, len(evals))
            rows.append(
                [iteration, f"{window.tally('updates'):,}", bound]
                + [f"{sent.total_count(types):,} / {sent.total_bytes(types):,}"
                   for types in (("type1",), ("type2", "type2+"), ("type3",))]
                + [f"{max(evals, default=0):,} / {mean:,.0f}"
                   f" ({max(evals, default=0) / (mean or 1.0):.2f}x)"])
        return ascii_table(
            ["iter", "updates", "delta*K*N", "type 1 msgs / B",
             "type 2(+) msgs / B", "type 3 msgs / B", "rank evals max / mean"],
            rows, title="iterations (from the barrier log)")


#: The tracer *is* the log: the name the Section 7 queries are known by.
RuntimeTracer = BarrierLog


def attach_tracer(world) -> BarrierLog:
    """The barrier log of ``world`` (a ``YGMWorld`` or ``ProcessWorld``).
    Nothing is attached: the log is always on and the barrier is never
    wrapped, so calling this twice returns the same object and can never
    double count."""
    return world.log
