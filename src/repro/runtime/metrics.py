"""Backend-agnostic metrics: counters, gauges, timers, spans, exporters.

The paper's first future-work item (Section 7) asks for deeper
profiling — "how much the computation or communication is heavier than
the other".  The comm facade's barrier log
(:mod:`repro.runtime.tracing`) is where every backend's counters arrive
and the one time series of them; this registry is the export surface
around it:

- **counters** — monotonic totals, *mirrored absolutely* at barriers
  from the barrier log's running totals (message statistics, handler
  invocation counts, fault counters) rather than incremented on the hot
  path, so metrics-on adds no per-message work;
- **gauges** — last-write-wins floats (e.g. the sim cost model's
  decomposition, published as an *enrichment* when a real ledger is
  present);
- **timers / spans** — wall-clock phase timing via the :meth:`MetricsRegistry.span`
  context manager; every closed span accumulates a ``<name>.seconds``
  timer and appends a :class:`SpanRecord` to the structured timeline;
- **histograms** — power-of-two latency buckets fed by span durations
  and :meth:`MetricsRegistry.observe`.

Naming convention (see DESIGN.md §12): dotted lowercase paths —
``messages.sent.<type>``, ``bytes.sent``, ``phase.<name>.seconds``,
``executor.tasks``, ``heap.updates``, ``faults.<event>``.  Both
execution backends emit the *same names*; the cross-backend conformance
suite (``tests/integration/test_backend_conformance.py``) pins the
order-insensitive subset to identical values.

Two exporters:

- :meth:`MetricsRegistry.snapshot` — a JSON-serializable dict
  (``repro construct --metrics-out out.json``, pretty-printed by
  ``repro stats out.json``); its ``"barriers"`` list is the barrier log,
  one entry per superstep;
- :meth:`MetricsRegistry.to_chrome_trace` — Chrome trace-event format,
  loadable in ``chrome://tracing`` or https://ui.perfetto.dev
  (``repro construct --trace-out out.trace.json``); per-type message
  counters are sampled at every barrier of the log, so Figure 4's decay
  curve is a counter track.

Disabled runs use the module-level :data:`NULL_METRICS`
:class:`NullMetricsRegistry` singleton: every method is a no-op that
allocates nothing (``span`` returns one shared reusable context
manager), so ``DNNDConfig(metrics=False)`` costs a single attribute
check per call site.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from .instrumentation import FaultStats
from .tracing import BarrierLog

#: Version tag embedded in every snapshot so downstream consumers can
#: detect schema drift (bump when the snapshot layout changes).
SNAPSHOT_SCHEMA = "repro.metrics/1"

#: Histogram bucket upper bounds, seconds: 1 us .. 64 s in powers of two,
#: plus +Inf.  Fixed (not data-dependent) so snapshots from different
#: runs are comparable bucket-for-bucket.
HISTOGRAM_BUCKETS: Tuple[float, ...] = tuple(
    2.0 ** e for e in range(-20, 7)
)


@dataclass
class SpanRecord:
    """One closed span on the structured timeline.

    ``start`` / ``end`` are seconds since the registry's epoch (its
    creation time), so exported timestamps are small and runs are
    comparable; ``tid`` is a dense per-registry thread index so traces
    from threaded query engines lay concurrent spans on separate tracks.
    """

    name: str
    cat: str
    start: float
    end: float
    tid: int = 0
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Span:
    """Context-manager handle returned by :meth:`MetricsRegistry.span`."""

    __slots__ = ("_registry", "_name", "_cat", "_args", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str, cat: str,
                 args: Dict[str, Any]) -> None:
        self._registry = registry
        self._name = name
        self._cat = cat
        self._args = args
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = self._registry._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._registry._close_span(self._name, self._cat, self._args,
                                   self._start, self._registry._clock())


class _NullSpan:
    """Shared, reusable no-op context manager (zero allocation per use)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class MetricsRegistry:
    """Thread-safe metrics registry shared by one build or searcher.

    All mutation goes through one lock; the runtime only calls in at
    barrier/phase granularity (never per message), so the lock is far
    off every hot path — the thread-safety matters for threaded query
    engines.
    """

    #: Call sites branch on this to skip building metric values at all
    #: when handed the null registry.
    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._epoch = clock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        # name -> [count, total_seconds]
        self._timers: Dict[str, List[float]] = {}
        # name -> {bucket_index: count}; index len(HISTOGRAM_BUCKETS) = +Inf
        self._histograms: Dict[str, Dict[int, int]] = {}
        self._hist_sums: Dict[str, List[float]] = {}
        self.spans: List[SpanRecord] = []
        self._tids: Dict[int, int] = {}
        #: The barrier log of the comm facade publishing here (an empty
        #: one for a registry no build reports into).
        self.log = BarrierLog()

    def now(self) -> float:
        """Seconds since the registry's epoch, on the span clock."""
        return self._clock() - self._epoch

    # -- writers -------------------------------------------------------------

    def inc(self, name: str, value: int = 1) -> None:
        """Add ``value`` to counter ``name`` (creates at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def set_counter(self, name: str, value: int) -> None:
        """Set counter ``name`` to an absolute value.

        The runtime's barrier-time synchronization path: authoritative
        aggregates (message stats, handler counts) are mirrored into the
        registry by *assignment*, which is idempotent and order-free —
        re-publishing after every barrier converges to the same totals
        no matter how supersteps interleaved.
        """
        with self._lock:
            self._counters[name] = int(value)

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, seconds: float) -> None:
        """Record one latency observation into fixed power-of-two buckets."""
        idx = self._bucket_index(seconds)
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = {}
                self._hist_sums[name] = [0, 0.0]
            hist[idx] = hist.get(idx, 0) + 1
            acc = self._hist_sums[name]
            acc[0] += 1
            acc[1] += seconds

    def span(self, name: str, cat: str = "phase", **args: Any) -> _Span:
        """Wall-clock span context manager.

        On exit it appends a :class:`SpanRecord`, accumulates the
        ``<name>.seconds`` timer, and feeds the duration into the
        ``<cat>.latency`` histogram.
        """
        return _Span(self, name, cat, args)

    def _close_span(self, name: str, cat: str, args: Dict[str, Any],
                    start: float, end: float) -> None:
        duration = end - start
        ident = threading.get_ident()
        with self._lock:
            tid = self._tids.setdefault(ident, len(self._tids))
            self.spans.append(SpanRecord(
                name=name, cat=cat, start=start - self._epoch,
                end=end - self._epoch, tid=tid, args=args))
            timer = self._timers.get(name)
            if timer is None:
                timer = self._timers[name] = [0, 0.0]
            timer[0] += 1
            timer[1] += duration
        self.observe(f"{cat}.latency", duration)

    def reset(self) -> None:
        with self._lock:
            self._epoch = self._clock()
            self._counters.clear()
            self._gauges.clear()
            self._timers.clear()
            self._histograms.clear()
            self._hist_sums.clear()
            self.spans.clear()
            self._tids.clear()

    # -- readers -------------------------------------------------------------

    def counter(self, name: str, default: int = 0) -> int:
        with self._lock:
            return self._counters.get(name, default)

    def timer_seconds(self, name: str) -> float:
        with self._lock:
            timer = self._timers.get(name)
            return timer[1] if timer else 0.0

    def phase_names(self) -> List[str]:
        """Distinct span names with ``cat == "phase"`` in first-seen order."""
        with self._lock:
            out: List[str] = []
            for s in self.spans:
                if s.cat == "phase" and s.name not in out:
                    out.append(s.name)
            return out

    @staticmethod
    def _bucket_index(seconds: float) -> int:
        if seconds <= HISTOGRAM_BUCKETS[0]:
            return 0
        if seconds > HISTOGRAM_BUCKETS[-1] or math.isnan(seconds):
            return len(HISTOGRAM_BUCKETS)
        # Smallest power-of-two bound >= seconds.
        e = math.ceil(math.log2(seconds))
        return min(max(e + 20, 0), len(HISTOGRAM_BUCKETS) - 1)

    # -- exporters -----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable snapshot of everything in the registry."""
        with self._lock:
            hists = {}
            for name, buckets in sorted(self._histograms.items()):
                count, total = self._hist_sums[name]
                hists[name] = {
                    "buckets": {
                        ("+Inf" if i >= len(HISTOGRAM_BUCKETS)
                         else repr(HISTOGRAM_BUCKETS[i])): c
                        for i, c in sorted(buckets.items())
                    },
                    "count": int(count),
                    "sum_seconds": total,
                }
            return {
                "schema": SNAPSHOT_SCHEMA,
                "enabled": True,
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "timers": {
                    name: {"count": int(t[0]), "seconds": t[1]}
                    for name, t in sorted(self._timers.items())
                },
                "histograms": hists,
                "spans": [
                    {"name": s.name, "cat": s.cat, "start": s.start,
                     "end": s.end, "tid": s.tid, "args": dict(s.args)}
                    for s in self.spans
                ],
                "barriers": self.log.to_json(),
            }

    def to_chrome_trace(self, process_name: str = "repro") -> Dict[str, Any]:
        """Chrome trace-event JSON (the ``chrome://tracing`` / Perfetto
        format): one complete ("X") event per span, the running
        ``messages.sent.<type>`` counts as a "C" event at every barrier
        of the log, every other counter's total as a final "C" event;
        timestamps in microseconds since the registry epoch."""
        with self._lock:
            events: List[Dict[str, Any]] = [{
                "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
                "args": {"name": process_name},
            }]
            last_ts = 0.0
            for s in self.spans:
                ts = s.start * 1e6
                dur = (s.end - s.start) * 1e6
                last_ts = max(last_ts, ts + dur)
                events.append({
                    "name": s.name, "cat": s.cat, "ph": "X",
                    "ts": ts, "dur": dur, "pid": 0, "tid": s.tid,
                    "args": dict(s.args),
                })
            running: Dict[str, int] = {}
            for record in self.log.records:
                for t, stats in record.delta.messages.by_type.items():
                    running[t] = running.get(t, 0) + stats.count
                    events.append({
                        "name": f"messages.sent.{t}", "ph": "C",
                        "ts": record.time * 1e6, "pid": 0,
                        "args": {"value": running[t]},
                    })
            sampled = {f"messages.sent.{t}" for t in running}
            for name, value in sorted(self._counters.items()):
                if name not in sampled:
                    events.append({
                        "name": name, "ph": "C", "ts": last_ts, "pid": 0,
                        "args": {"value": value},
                    })
            return {"traceEvents": events, "displayTimeUnit": "ms"}


class NullMetricsRegistry(MetricsRegistry):
    """Metrics turned off: every operation is a zero-allocation no-op.

    Used as the process-wide :data:`NULL_METRICS` singleton — do not
    instantiate more (identity comparison against ``NULL_METRICS`` is
    how call sites detect the disabled state).
    """

    enabled = False

    def inc(self, name: str, value: int = 1) -> None:
        pass

    def set_counter(self, name: str, value: int) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, seconds: float) -> None:
        pass

    def span(self, name: str, cat: str = "phase", **args: Any) -> Any:
        return _NULL_SPAN

    def snapshot(self) -> Dict[str, Any]:
        return {"schema": SNAPSHOT_SCHEMA, "enabled": False,
                "counters": {}, "gauges": {}, "timers": {},
                "histograms": {}, "spans": [], "barriers": []}

    def to_chrome_trace(self, process_name: str = "repro") -> Dict[str, Any]:
        return {"traceEvents": [], "displayTimeUnit": "ms"}


#: Process-wide disabled registry.
NULL_METRICS = NullMetricsRegistry()


def deterministic_projection(snap: Dict[str, Any]) -> Dict[str, Any]:
    """The bit-for-bit reproducible part of a snapshot.

    Wall-clock quantities (span times, timer seconds, histograms) vary
    run to run; everything else — counters, the span *name sequence*,
    per-timer invocation counts, and gauges under the ``sim.`` prefix
    (published from the deterministic cost model) — must be identical
    for identical sim-backend builds.  The golden-trace regression test
    compares this projection against a checked-in snapshot.
    """
    return {
        "schema": snap.get("schema"),
        "counters": dict(snap.get("counters", {})),
        "span_names": [s["name"] for s in snap.get("spans", [])],
        "timer_counts": {
            name: t["count"] for name, t in snap.get("timers", {}).items()
        },
        "sim_gauges": {
            k: v for k, v in snap.get("gauges", {}).items()
            if k.startswith("sim.")
        },
    }


#: World-level counters of a barrier log's totals, mirrored under the
#: same names — zeros too, so fault-free runs and backends without an
#: injector emit the same metric names.
_WORLD_COUNTERS = ("executor.tasks", "comm.flushes", "comm.local_deliveries",
                   *FaultStats().counts())


def publish_comm_metrics(world, pending_delayed: int | None) -> None:
    """Mirror a comm facade's barrier-log totals into its metrics
    registry — the one publisher behind every backend's barrier
    (``YGMWorld`` and the process backend's ``ProcessWorld`` expose the
    attributes read here), under the backend-agnostic naming convention
    (DESIGN.md §12): ``messages.sent.<type>`` / ``messages.bytes.<type>``
    per type, the ``messages.sent`` / ``bytes.sent`` and off-node
    aggregates, and the world-level counters.

    All values are *assigned* as absolute totals — re-publishing is
    idempotent, and both backends emit the exact same metric names (the
    cross-backend conformance contract).  ``pending_delayed`` is the
    number of messages a fault plan is holding back (``None`` without a
    plan: the gauge is then not published).
    """
    m = world.metrics
    if not m.enabled:
        return
    m.log = world.log
    cluster = world.cluster
    totals = world.log.totals
    sent = totals.messages
    for t, s in sent.by_type.items():
        m.set_counter(f"messages.sent.{t}", s.count)
        m.set_counter(f"messages.bytes.{t}", s.bytes)
    m.set_counter("messages.sent", sent.total_count())
    m.set_counter("bytes.sent", sent.total_bytes())
    m.set_counter("messages.offnode.sent", sent.offnode_count())
    m.set_counter("messages.offnode.bytes", sent.offnode_bytes())
    # Locality split: self-sends (which never touch the wire or the
    # message stats) vs wire messages — what makes the partition
    # layer's effect measurable.
    m.set_counter("comm.remote_deliveries", sent.total_count())
    for name in _WORLD_COUNTERS:
        m.set_counter(name, totals.counts[name])
    if pending_delayed is not None:
        m.set_gauge("faults.pending_delayed", float(pending_delayed))
    m.set_counter("comm.barriers", cluster.ledger.barriers)
    m.set_counter("transport.collectives", cluster.collectives)
    # Sections broadcast to worker processes; a world that runs its
    # rank sections inline reports none.
    m.set_counter("executor.dispatches", world.dispatches)
    # Ranks currently excluded from the build (0 outside degraded mode).
    m.set_gauge("degraded.ranks", float(len(world.excluded_ranks)))
