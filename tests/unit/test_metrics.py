"""Metrics registry: thread safety, no-op mode, exporter schemas."""

from __future__ import annotations

import json
import math
import threading

import pytest

from repro.runtime.metrics import (
    HISTOGRAM_BUCKETS,
    MetricsRegistry,
    NULL_METRICS,
    NullMetricsRegistry,
    SNAPSHOT_SCHEMA,
    SpanRecord,
    deterministic_projection,
)


class TestCounters:
    def test_inc_and_read(self):
        m = MetricsRegistry()
        m.inc("a")
        m.inc("a", 4)
        assert m.counter("a") == 5
        assert m.counter("missing") == 0
        assert m.counter("missing", default=-1) == -1

    def test_set_counter_is_absolute_and_idempotent(self):
        m = MetricsRegistry()
        m.inc("x", 100)
        m.set_counter("x", 7)
        m.set_counter("x", 7)
        assert m.counter("x") == 7

    def test_gauges_last_write_wins(self):
        m = MetricsRegistry()
        m.set_gauge("sim.seconds", 1.5)
        m.set_gauge("sim.seconds", 2.5)
        assert m.snapshot()["gauges"]["sim.seconds"] == 2.5

    def test_reset_clears_everything(self):
        m = MetricsRegistry()
        m.inc("a")
        m.set_gauge("g", 1.0)
        with m.span("p"):
            pass
        m.reset()
        snap = m.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["timers"] == {}
        assert snap["spans"] == []


class TestThreadSafety:
    """Satellite: concurrent increments must sum exactly (no lost
    updates) — what threaded query engines rely on."""

    def test_concurrent_inc_sums_exactly(self):
        m = MetricsRegistry()
        n_threads, per_thread = 16, 500

        def section(rank: int) -> None:
            for _ in range(per_thread):
                m.inc("hammer")
                m.inc(f"rank.{rank}")

        threads = [threading.Thread(target=section, args=(rank,))
                   for rank in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert m.counter("hammer") == n_threads * per_thread
        for rank in range(n_threads):
            assert m.counter(f"rank.{rank}") == per_thread

    def test_concurrent_spans_and_observations(self):
        m = MetricsRegistry()
        n_threads, per_thread = 8, 200

        def work():
            for i in range(per_thread):
                with m.span("work", cat="test", i=i):
                    pass
                m.observe("lat", 1e-6 * (i + 1))

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = m.snapshot()
        assert snap["timers"]["work"]["count"] == n_threads * per_thread
        assert len(snap["spans"]) == n_threads * per_thread
        assert snap["histograms"]["lat"]["count"] == n_threads * per_thread
        # Dense per-registry thread ids, one per participating thread.
        tids = {s["tid"] for s in snap["spans"]}
        assert tids == set(range(len(tids)))
        assert len(tids) <= n_threads


class TestNullRegistry:
    """Satellite: the disabled mode allocates nothing and stays empty."""

    def test_singleton_disabled(self):
        assert NULL_METRICS.enabled is False
        assert isinstance(NULL_METRICS, NullMetricsRegistry)

    def test_span_returns_shared_object(self):
        # Zero allocation per use: every call hands back the same
        # reusable no-op context manager.
        s1 = NULL_METRICS.span("a", cat="phase", x=1)
        s2 = NULL_METRICS.span("b", cat="io")
        assert s1 is s2
        with s1:
            pass

    def test_all_writers_are_noops(self):
        NULL_METRICS.inc("a", 5)
        NULL_METRICS.set_counter("b", 9)
        NULL_METRICS.set_gauge("g", 1.0)
        NULL_METRICS.observe("h", 0.5)
        with NULL_METRICS.span("p"):
            pass
        snap = NULL_METRICS.snapshot()
        assert snap["enabled"] is False
        assert snap["counters"] == {}
        assert snap["spans"] == []
        assert NULL_METRICS.counter("a") == 0
        assert NULL_METRICS.to_chrome_trace()["traceEvents"] == []


class TestHistogram:
    def test_bucket_index_monotone(self):
        m = MetricsRegistry()
        idx = [m._bucket_index(s) for s in
               (0.0, 1e-7, 1e-6, 1e-3, 1.0, 63.9, 65.0, float("inf"))]
        assert idx == sorted(idx)
        assert idx[0] == 0
        assert idx[-1] == len(HISTOGRAM_BUCKETS)

    def test_bucket_bound_covers_observation(self):
        m = MetricsRegistry()
        for s in (3e-6, 0.02, 1.7, 42.0):
            i = m._bucket_index(s)
            assert s <= HISTOGRAM_BUCKETS[i]
            if i > 0:
                assert s > HISTOGRAM_BUCKETS[i - 1]

    def test_observe_accumulates(self):
        m = MetricsRegistry()
        m.observe("x", 0.5)
        m.observe("x", 0.25)
        h = m.snapshot()["histograms"]["x"]
        assert h["count"] == 2
        assert h["sum_seconds"] == pytest.approx(0.75)
        assert sum(h["buckets"].values()) == 2


class TestSpans:
    def test_span_records_and_timer(self):
        clock_value = [0.0]

        def clock():
            clock_value[0] += 0.25
            return clock_value[0]

        m = MetricsRegistry(clock=clock)
        with m.span("phase.init", iteration=0):
            pass
        assert m.timer_seconds("phase.init") == pytest.approx(0.25)
        (rec,) = m.spans
        assert isinstance(rec, SpanRecord)
        assert rec.name == "phase.init"
        assert rec.cat == "phase"
        assert rec.args == {"iteration": 0}
        assert rec.duration == pytest.approx(0.25)
        assert rec.start >= 0.0

    def test_phase_names_first_seen_order(self):
        m = MetricsRegistry()
        for name in ("init", "sample", "init", "gather"):
            with m.span(name):
                pass
        with m.span("checkpoint.write", cat="io"):
            pass
        assert m.phase_names() == ["init", "sample", "gather"]


class TestExporterSchemas:
    """Satellite: snapshot and Chrome-trace exports validate against
    their documented shapes and survive a JSON round trip."""

    @staticmethod
    def _populated() -> MetricsRegistry:
        m = MetricsRegistry()
        m.inc("messages.sent.type1", 10)
        m.set_counter("bytes.sent", 640)
        m.set_gauge("sim.seconds", 0.125)
        m.observe("lat", 0.001)
        with m.span("phase.init"):
            with m.span("checkpoint.write", cat="io", iteration=1):
                pass
        return m

    def test_snapshot_schema(self):
        snap = self._populated().snapshot()
        assert snap["schema"] == SNAPSHOT_SCHEMA
        assert snap["enabled"] is True
        assert set(snap) == {"schema", "enabled", "counters", "gauges",
                             "timers", "histograms", "spans", "barriers"}
        assert all(isinstance(v, int) for v in snap["counters"].values())
        assert all(isinstance(v, float) for v in snap["gauges"].values())
        for t in snap["timers"].values():
            assert set(t) == {"count", "seconds"}
        for h in snap["histograms"].values():
            assert set(h) == {"buckets", "count", "sum_seconds"}
            assert sum(h["buckets"].values()) == h["count"]
        for s in snap["spans"]:
            assert set(s) == {"name", "cat", "start", "end", "tid", "args"}
            assert s["end"] >= s["start"] >= 0.0
        # Round trip: everything is plain JSON.
        assert json.loads(json.dumps(snap)) == snap

    def test_chrome_trace_schema(self):
        trace = self._populated().to_chrome_trace(process_name="unit")
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        phases = {e["ph"] for e in events}
        assert phases <= {"X", "M", "C"}
        meta = [e for e in events if e["ph"] == "M"]
        assert meta[0]["args"]["name"] == "unit"
        for e in events:
            if e["ph"] == "X":
                assert e["ts"] >= 0.0 and e["dur"] >= 0.0
            if e["ph"] == "C":
                assert isinstance(e["args"]["value"], int)
        assert json.loads(json.dumps(trace)) == trace

    def test_deterministic_projection_drops_wall_clock(self):
        snap = self._populated().snapshot()
        proj = deterministic_projection(snap)
        assert set(proj) == {"schema", "counters", "span_names",
                             "timer_counts", "sim_gauges"}
        assert proj["span_names"] == ["checkpoint.write", "phase.init"]
        assert proj["timer_counts"] == {"checkpoint.write": 1,
                                        "phase.init": 1}
        assert proj["sim_gauges"] == {"sim.seconds": 0.125}
        flat = json.dumps(proj)
        assert "seconds\":" not in flat.replace("sim.seconds", "")

    def test_bucket_labels_are_powers_of_two(self):
        m = MetricsRegistry()
        m.observe("x", 0.02)
        labels = list(m.snapshot()["histograms"]["x"]["buckets"])
        for label in labels:
            if label != "+Inf":
                assert math.log2(float(label)) == int(math.log2(float(label)))
