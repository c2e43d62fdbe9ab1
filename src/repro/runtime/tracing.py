"""Execution tracing — Section 7's ask, over the metrics registry.

The paper's first future-work item: "further performance profiling is
required to identify bottlenecks, such as finding how much the
computation or communication is heavier than the other and
understanding communication patterns deeply."  :class:`RuntimeTracer`
answers those questions per superstep:

- per-superstep duration and which phase it belonged to,
- per-rank load imbalance at each barrier,
- message-type timelines (how Type 2+ traffic decays as the graph
  converges),
- fault/recovery event timelines.

The tracer is a *consumer* of the backend-agnostic metrics registry
(:mod:`repro.runtime.metrics`): at every barrier it reads the
``messages.sent.*`` / ``messages.bytes.*`` / ``faults.*`` counters the
comm layer just published and records the deltas, so it works
identically under the sim and process backends.  The sim cost model
remains an enrichment, not the data source: superstep durations and
imbalance come from the transport's ledger, which reports zero
durations and perfect balance under the process backend's
:class:`~repro.runtime.netmodel.NullLedger`.

Attach with :func:`attach_tracer` before ``DNND.build()``; attaching
twice returns the existing tracer instead of double-wrapping the
barrier (each extra wrap used to double-count every superstep).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .metrics import MetricsRegistry
from .transports.base import Transport
from .ygm import YGMWorld


@dataclass
class BarrierRecord:
    """One superstep's snapshot."""

    index: int
    phase: str
    duration: float
    imbalance: float
    messages_delta: Dict[str, int] = field(default_factory=dict)
    bytes_delta: Dict[str, int] = field(default_factory=dict)
    fault_delta: Dict[str, int] = field(default_factory=dict)
    """Fault/recovery events (drops, retransmits, dedups, ...) that
    occurred in this superstep window — empty in fault-free runs."""


class RuntimeTracer:
    """Collects one :class:`BarrierRecord` per barrier.

    Wraps ``world.barrier`` — create via :func:`attach_tracer`.
    """

    def __init__(self, world: YGMWorld) -> None:
        self.world = world
        self.records: List[BarrierRecord] = []
        self._last_counts: Dict[str, int] = {}
        self._last_bytes: Dict[str, int] = {}
        self._last_faults: Dict[str, int] = {}

    # -- capture -----------------------------------------------------------

    def _on_barrier(self, phase: str, duration: float, imbalance: float) -> None:
        # The comm layer published its aggregates into the registry as
        # part of the barrier that just returned; the per-superstep
        # window is the counter delta since the previous barrier.
        metrics = self.world.metrics
        counts = metrics.counters_with_prefix("messages.sent.")
        nbytes = metrics.counters_with_prefix("messages.bytes.")
        faults = metrics.counters_with_prefix("faults.")
        record = BarrierRecord(
            index=len(self.records),
            phase=phase,
            duration=duration,
            imbalance=imbalance,
            messages_delta={
                t: counts[t] - self._last_counts.get(t, 0) for t in counts
                if counts[t] != self._last_counts.get(t, 0)
            },
            bytes_delta={
                t: nbytes[t] - self._last_bytes.get(t, 0) for t in nbytes
                if nbytes[t] != self._last_bytes.get(t, 0)
            },
            fault_delta={
                k: v - self._last_faults.get(k, 0) for k, v in faults.items()
                if v != self._last_faults.get(k, 0)
            },
        )
        self._last_counts = counts
        self._last_bytes = nbytes
        self._last_faults = faults
        self.records.append(record)

    # -- queries ------------------------------------------------------------

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
        return [r.messages_delta.get(msg_type, 0) for r in self.records]

    def fault_timeline(self, event: str) -> List[int]:
        """Fault/recovery events of one kind (e.g. ``"retransmits"``)
        per superstep window."""
        return [r.fault_delta.get(event, 0) for r in self.records]

    def total_fault_events(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for r in self.records:
            for k, v in r.fault_delta.items():
                out[k] = out.get(k, 0) + v
        return out

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
        busiest = self.busiest_supersteps(3)
        rows = [[r.index, r.phase, f"{r.duration:.6f}", f"{r.imbalance:.2f}",
                 sum(r.messages_delta.values())]
                for r in busiest]
        out.append(ascii_table(
            ["step", "phase", "duration", "imbalance", "messages"],
            rows, title="busiest supersteps"))
        faults = self.total_fault_events()
        if faults:
            rows = [[event, count] for event, count in sorted(faults.items())]
            out.append(ascii_table(["event", "count"], rows,
                                   title="fault / recovery events"))
        return "\n\n".join(out)


def attach_tracer(world: YGMWorld) -> RuntimeTracer:
    """Instrument ``world.barrier`` to record a trace; returns the tracer.

    The wrapper preserves barrier semantics exactly; it only observes.
    Idempotent: calling it again on the same world returns the tracer
    already attached — wrapping the (already wrapped) barrier a second
    time would fire ``_on_barrier`` twice per superstep and double every
    record.  A world whose metrics are disabled gets a live registry
    first: the tracer reads its counters, so it needs a real one.
    """
    existing = getattr(world, "_tracer", None)
    if existing is not None:
        return existing
    if not world.metrics.enabled:
        world.metrics = MetricsRegistry()
    tracer = RuntimeTracer(world)
    original_barrier = world.barrier
    cluster: Transport = world.cluster

    def traced_barrier(phase: str | None = None) -> float:
        effective_phase = phase or world._phase
        imbalance = cluster.ledger.imbalance()
        duration = original_barrier(phase)
        tracer._on_barrier(effective_phase, duration, imbalance)
        return duration

    world.barrier = traced_barrier  # type: ignore[method-assign]
    world._tracer = tracer  # type: ignore[attr-defined]
    return tracer
