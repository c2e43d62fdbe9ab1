"""Per-layer metrics: which callables are traced, how spans and the
program's own counters become the numbers in ``BENCHMARK.json``'s
``per_layer`` list, and the isolated micro rows that sit next to them.

Times come from the tracer (measured from outside, in the traced pass);
counts come from what the program publishes in
``result.metrics.snapshot()``, which is exact on the sim backend.  On
the process backend the wrappers see only the driver process, so ygm,
handler, heap and distance *times* read 0 there (the work happens in the
workers) while the counts, folded from the workers by the program, are
still right.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import repro

from pipeline import L
from tracer import NOT_MEASURED, Target, Tracer

clock = time.perf_counter

_PROCESS = "repro.runtime.transports.process."

TARGETS = (
    [Target(f"repro.DNND.{m}", "core.dnnd")
     for m in ("__init__", "build", "optimize", "close")]
    + [Target(f"repro.YGMWorld.{m}", "runtime.ygm")
       for m in ("async_call", "async_call_block", "emit_run", "flush_all",
                 "barrier", "run_on_all")]
    + [Target(f"repro.CountingMetric.{m}", "distances")
       for m in ("distances_to", "block", "rowwise", "rowwise_raw")]
    + [Target("repro.CountingMetric.__call__", "distances", spans=False)]
    + [Target(f"repro.NeighborHeap.{m}", "core.heap", spans=False)
       for m in ("checked_push", "checked_push_batch", "mark_old_many",
                 "sorted_arrays")]
    + [Target("repro.HashPartitioner.owner", "runtime.partition", spans=False),
       Target("repro.HashPartitioner.owner_array", "runtime.partition")]
    + [Target(f"repro.MetallStore.{m}", "runtime.metall")
       for m in ("create", "open", "open_read_only", "__setitem__",
                 "__getitem__", "close")]
    + [Target("repro.optimize_from_store", "core.optimization"),
       Target("repro.make_rp_forest", "core.search"),
       Target("repro.KNNGraphSearcher.__init__", "core.search"),
       Target("repro.KNNGraphSearcher.query", "core.search")]
    + [Target(_PROCESS + "ProcessTransport.start", "runtime.transports"),
       Target(_PROCESS + "ProcessTransport.shutdown", "runtime.transports"),
       Target(_PROCESS + "ProcessWorld.barrier", "runtime.transports"),
       Target(_PROCESS + "ProcessWorld.run_section", "runtime.transports"),
       Target(_PROCESS + "ProcessWorld.command", "runtime.transports")]
)

HANDLERS = ("check_opt", "feature_opt", "distance_reply", "init_req",
            "rev_new", "rev_old")
"""The six handlers that cost most in a default (optimized-pattern)
build; each gets its own ``handlers.<name>_s`` metric."""

PHASES = ("init", "sample", "reverse", "union", "neighbor_check", "gather")


def install(tracer: Tracer) -> None:
    tracer.install(TARGETS)
    tracer.install_registrar("repro.YGMWorld.register_handler",
                             "core.dnnd_phases", "")
    tracer.install_registrar("repro.YGMWorld.register_batch_handler",
                             "core.dnnd_phases", ".batch")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced, build_s: float) -> dict:
    """Metrics of the traced pass ``traced`` (a ``PassResult``).
    ``build_s`` is the untraced build time the rates are relative to."""
    snap = traced.result.metrics.snapshot()
    counters, gauges, timers = snap["counters"], snap["gauges"], snap["timers"]

    def c(name):
        return float(counters.get(name, NOT_MEASURED))

    def self_s(stage, *prefixes):
        if any(tracer.is_missing(p) for p in prefixes):
            return NOT_MEASURED
        return sum(tracer.self_time(stage, p) for p in prefixes)

    def handler_s(prefix):
        if tracer.is_missing("repro.YGMWorld.register_"):
            return NOT_MEASURED
        return tracer.self_time("build", prefix)

    def total_s(stage, prefix):
        if tracer.is_missing(prefix):
            return NOT_MEASURED
        return tracer.total_time(stage, prefix)

    dist_calls = tracer.calls("build", "repro.CountingMetric.")
    delivered = c("comm.local_deliveries") + c("comm.remote_deliveries")
    m = {
        "distances.busy_s": self_s("build", "repro.CountingMetric."),
        "distances.query_busy_s": self_s("query", "repro.CountingMetric."),
        "distances.calls": float(dist_calls),
        "distances.evals": c("distance.evals"),
        "distances.evals_per_call": _ratio(c("distance.evals"), dist_calls),
        "distances.tile_flops": c("kernel.tile_flops"),
        "heap.busy_s": self_s("build", "repro.NeighborHeap."),
        "heap.pushes": c("heap.updates"),
        "heap.accept_ratio": _ratio(c("heap.updates.accepted"), c("heap.updates")),
        "handlers.busy_s": handler_s("handler."),
        "handlers.invocations": delivered,
        "dnnd.construct_s": total_s("build", "repro.DNND.__init__"),
        "dnnd.close_s": total_s("build", "repro.DNND.close"),
        # Rank sections are driver code that run_on_all merely iterates.
        "dnnd.driver_self_s": self_s("build", "repro.DNND.",
                                     "repro.YGMWorld.run_on_all"),
        "dnnd.iterations": float(traced.result.iterations),
        "dnnd.updates_total": float(sum(traced.result.update_counts)),
        "ygm.emit_self_s": self_s("build", "repro.YGMWorld.emit_run",
                                  "repro.YGMWorld.async_call"),
        "ygm.barrier_self_s": self_s("build", "repro.YGMWorld.barrier",
                                     "repro.YGMWorld.flush_all"),
        "ygm.messages": c("messages.sent"),
        "ygm.bytes": c("bytes.sent"),
        "ygm.bytes_per_msg": _ratio(c("bytes.sent"), c("messages.sent")),
        "ygm.flushes": c("comm.flushes"),
        "ygm.barriers": c("comm.barriers"),
        "ygm.remote_fraction": _ratio(c("comm.remote_deliveries"), delivered),
        "ygm.msgs_per_s": _ratio(c("messages.sent"), build_s),
        "transport.spawn_s": total_s("build", _PROCESS + "ProcessTransport.start"),
        "transport.barrier_wait_s": total_s("build", _PROCESS + "ProcessWorld.barrier"),
        "transport.executor_tasks": c("executor.tasks"),
        "transport.collectives": c("transport.collectives"),
        "transport.backend_fallbacks": c("backend.fallbacks"),
        "partition.busy_s": self_s("build", "repro.HashPartitioner."),
        "partition.owner_calls": float(tracer.calls("build", "repro.HashPartitioner.")),
        "partition.imbalance": float(gauges.get("partition.imbalance", NOT_MEASURED)),
        "partition.edge_cut": float(gauges.get("partition.edge_cut", NOT_MEASURED)),
        "metall.persist_s": self_s("build", "repro.MetallStore."),
        "metall.reopen_s": self_s("finish", "repro.MetallStore."),
        "metall.store_bytes": float(traced.store_bytes),
        "optimization.optimize_s": self_s("finish", "repro.optimize_from_store"),
        "optimization.edges": float(traced.edges),
        "optimization.max_degree": float(traced.max_degree),
        "search.construct_s": self_s("finish", "repro.KNNGraphSearcher.__init__",
                                     "repro.make_rp_forest"),
        "search.evals_per_query": traced.evals_per_query,
        "search.visited_per_query": traced.visited_per_query,
    }
    for name in HANDLERS:
        m[f"handlers.{name}_s"] = handler_s(f"handler.{name}")
    for phase in PHASES:
        m[f"dnnd.phase.{phase}_s"] = float(
            timers.get(f"phase.{phase}", {}).get("seconds", NOT_MEASURED))
    attributed = sum(tracer.layer_self_times("build").values())
    m["trace.overhead"] = traced.build_s / build_s - 1.0
    m["trace.coverage"] = _ratio(attributed, traced.build_s)
    return m


def query_latency(searcher, queries, epsilon: float) -> dict:
    """Untraced one-at-a-time loop; p99 keeps ten samples beyond it when
    there are 1000 queries or more."""
    took = []
    for q in queries:
        t0 = clock()
        searcher.query(q, l=L, epsilon=epsilon)
        took.append((clock() - t0) * 1e3)
    cuts = statistics.quantiles(took, n=100)
    return {"search.query_p50_ms": cuts[49], "search.query_p99_ms": cuts[98]}


def _best(fn, reps: int = 5) -> float:
    """Fastest of ``reps`` timings of ``fn()``, in seconds."""
    best = float("inf")
    for _ in range(reps):
        t0 = clock()
        fn()
        best = min(best, clock() - t0)
    return best


def _micro_distances(train, metric: str) -> dict:
    rows = np.ascontiguousarray(np.resize(train, (4096, train.shape[1])))
    other = rows[::-1].copy()
    rowwise = repro.CountingMetric(metric, kernel="rowwise")
    per_eval = _best(lambda: rowwise.rowwise(rows, other)) / len(rows)
    a, b = rows[:512], other[:512]
    flops = 2.0 * len(a) * len(b) * a.shape[1]
    blocked = repro.CountingMetric(metric, kernel="blocked")
    blocked_rate = flops / _best(lambda: blocked.block(a, b)) / 1e9
    peak = flops / _best(lambda: a @ b.T) / 1e9
    return {"micro.distances.rowwise_ns_per_eval": per_eval * 1e9,
            "micro.distances.blocked_gflops": blocked_rate,
            "micro.distances.gemm_peak_gflops": peak,
            "micro.distances.roofline_fraction": blocked_rate / peak}


def _micro_heap() -> dict:
    rng = np.random.default_rng(0)
    ids = rng.permutation(20000).astype(np.int64).reshape(-1, 40)
    dists = rng.random(ids.shape)

    def push_all():
        heap = repro.NeighborHeap(10)
        for row_ids, row_dists in zip(ids, dists):
            heap.checked_push_batch(row_ids, row_dists)

    return {"micro.heap.push_batch_ns_per_push": _best(push_all) / ids.size * 1e9}


def _micro_ygm() -> dict:
    count = 20000

    def round_trip():
        world = repro.YGMWorld(repro.SimCluster(repro.ClusterConfig(4, 2)))
        world.register_handler("noop", lambda ctx, value: None)
        size = world.world_size
        for i in range(count):
            world.async_call(i % size, (i + 1) % size, "noop", i, nbytes=8)
        world.barrier()

    return {"micro.ygm.roundtrip_us_per_msg": _best(round_trip, 3) / count * 1e6}


def _micro_partition() -> dict:
    ids = np.arange(1_000_000, dtype=np.int64)
    part = repro.HashPartitioner(len(ids), 8)
    return {"micro.partition.owner_array_ns_per_id":
            _best(lambda: part.owner_array(ids)) / len(ids) * 1e9}


MICRO_NAMES = (
    "micro.distances.rowwise_ns_per_eval", "micro.distances.blocked_gflops",
    "micro.distances.gemm_peak_gflops", "micro.distances.roofline_fraction",
    "micro.heap.push_batch_ns_per_push", "micro.ygm.roundtrip_us_per_msg",
    "micro.partition.owner_array_ns_per_id")


def micro_rows(train, metric: str, missing: list) -> dict:
    """Each layer's isolated number, on this workload's rows.  A row
    whose symbols are gone or changed shape reads ``NOT_MEASURED`` and
    is named in ``missing``; it must not take the benchmark down."""
    rows = dict.fromkeys(MICRO_NAMES, NOT_MEASURED)
    for make in (lambda: _micro_distances(train, metric), _micro_heap,
                 _micro_ygm, _micro_partition):
        try:
            rows.update(make())
        except (AttributeError, TypeError, repro.ReproError) as exc:
            missing.append(f"micro row: {exc!r}")
    return rows
