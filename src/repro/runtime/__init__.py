"""Simulated distributed runtime (S2-S6).

The paper runs DNND on an MPI cluster through two LLNL libraries:

- **YGM** — buffered, fire-and-forget asynchronous RPC with a global
  barrier (Section 4.1), and
- **Metall** — a persistent memory allocator (Section 4.6).

This subpackage provides drop-in *simulated* equivalents that preserve
the semantics and — crucially for Figure 4 — measure every message:

- :mod:`.transports` — the Transport seam: per-rank mailboxes and the
  collectives DNND needs, as the deterministic simulated cluster
  (``transports/sim.py``) or worker processes over shared memory
  (``transports/process.py``),
- :mod:`.ygm` — the YGM-style async RPC layer with per-destination
  buffering, flush thresholds, barrier, and per-type instrumentation,
  talking only to the Transport protocol,
- :mod:`.netmodel` — an alpha-beta network + compute cost model giving
  each phase a simulated duration (Figure 3's y-axis),
- :mod:`.partition` — hash partitioning of vertices over ranks
  (Section 4: "based on the hash values of the vertex IDs"),
- :mod:`.metall` — a Metall-style persistent object store,
- :mod:`.instrumentation` — message statistics by type and phase,
- :mod:`.metrics` — the backend-agnostic observability surface:
  thread-safe counters/gauges/timers/histograms, wall-clock phase
  spans, JSON and Chrome-trace exporters,
- :mod:`.faults` — deterministic fault injection (message loss /
  duplication / reordering / delay, stragglers, rank crashes) that the
  reliable-delivery mode and checkpoint recovery are tested against.
"""

from .faults import FaultInjector, FaultPlan, make_injector
from .instrumentation import FaultStats, MessageStats, TypeStats
from .metrics import (
    MetricsRegistry,
    NullMetricsRegistry,
    NULL_METRICS,
    SpanRecord,
    deterministic_projection,
)
from .netmodel import NetworkModel, CostLedger, NullLedger
from .partition import HashPartitioner, BlockPartitioner, Partitioner
from .transports import SimCluster, Transport
from .ygm import YGMWorld, RankContext
from .metall import MetallStore
from .containers import DistributedBag, DistributedCounter, DistributedMap
from .tracing import RuntimeTracer, attach_tracer

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "make_injector",
    "MessageStats",
    "TypeStats",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "SpanRecord",
    "deterministic_projection",
    "NetworkModel",
    "CostLedger",
    "NullLedger",
    "HashPartitioner",
    "BlockPartitioner",
    "Partitioner",
    "Transport",
    "SimCluster",
    "YGMWorld",
    "RankContext",
    "MetallStore",
    "DistributedBag",
    "DistributedCounter",
    "DistributedMap",
    "RuntimeTracer",
    "attach_tracer",
]
