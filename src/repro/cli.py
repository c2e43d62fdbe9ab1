"""Command-line interface mirroring the paper's executables.

Section 5.1.3: "There are two DNND execution files: one for k-NNG
construction and the other for graph optimization."  Plus the query
program of Section 5.3.1.  This CLI exposes the same three stages —
each persisting through / reading from the Metall-style store — and two
introspection helpers:

- ``repro construct`` — build a k-NNG with DNND on a simulated cluster
  and persist graph + dataset,
- ``repro repartition`` — build, then re-home rows with the post-build
  locality pass (explicit assignment from the graph) and report the
  edge-cut improvement,
- ``repro optimize``  — reopen a store, apply the Section 4.5
  optimizations, persist the searchable graph,
- ``repro query``     — reopen a store and run queries (epsilon dial,
  optional threads),
- ``repro datasets``  — list the Table 1 stand-ins,
- ``repro experiments`` — list the reproduced tables/figures and their
  benchmark targets,
- ``repro stats``     — pretty-print a metrics snapshot written by
  ``construct --metrics-out``, its per-iteration table included.

Observability: ``construct`` (and ``resume``) accept ``--metrics-out
out.json`` to dump the backend-agnostic metrics snapshot and
``--trace-out out.trace.json`` to dump a Chrome trace-event file
loadable in ``ui.perfetto.dev`` / ``chrome://tracing``.

Example session::

    repro construct --dataset deep1b --n 2000 --k 10 --nodes 4 \
        --store /tmp/idx
    repro optimize --store /tmp/idx --pruning-factor 1.5
    repro query --store /tmp/idx --n-queries 100 --epsilon 0.2
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .config import (BACKENDS, ClusterConfig, CommOptConfig, DNNDConfig,
                     NNDescentConfig, check_backend)
from .core.dnnd import DNND, optimize_from_store
from .core.graph import AdjacencyGraph
from .core.search import KNNGraphSearcher
from .datasets.ann_benchmarks import PAPER_DATASETS, load_dataset
from .errors import ReproError
from .eval.experiments import EXPERIMENTS
from .eval.parallel_query import ParallelQueryEngine
from .eval.tables import ascii_table
from .runtime.faults import FaultPlan
from .runtime.metall import MetallStore
from .runtime.partition import PARTITIONER_NAMES, make_partitioner
from .runtime.tracing import BarrierLog, BarrierRecord
from .utils.timing import format_duration


def _backend_arg(value: str) -> str:
    """``--backend`` value; a removed or unknown name is an argparse
    error carrying :func:`~repro.config.check_backend`'s message."""
    try:
        check_backend(value)
    except ReproError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DNND: distributed NN-Descent (SC-W 2023 reproduction)",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a k-NNG with DNND (executable 1)")
    p.add_argument("--dataset", default="deep1b",
                   choices=sorted(PAPER_DATASETS))
    p.add_argument("--n", type=int, default=2000, help="stand-in size")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--rho", type=float, default=0.8)
    p.add_argument("--delta", type=float, default=0.001)
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--procs-per-node", type=int, default=2)
    p.add_argument("--batch-size", type=int, default=1 << 13,
                   help="Section 4.4 global requests per barrier (0=off)")
    p.add_argument("--unoptimized-comm", action="store_true",
                   help="use the Figure 1a message pattern")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--partitioner", choices=PARTITIONER_NAMES,
                   default="hash",
                   help="row placement policy: splitmix64 hashing "
                        "(hash, default, bit-identical with earlier "
                        "releases), contiguous blocks (block), or "
                        "locality-aware rp-tree leaf packing (rptree)")
    p.add_argument("--store", required=True, help="datastore directory")
    p.add_argument("--checkpoint", default=None,
                   help="checkpoint store path (enables crash recovery)")
    p.add_argument("--checkpoint-every", type=int, default=0,
                   help="iterations between checkpoints (0 = off)")
    p.add_argument("--fault-drop-rate", type=float, default=0.0,
                   help="inject: fraction of flushed remote buffers "
                        "dropped (every message in one is lost)")
    p.add_argument("--fault-dup-rate", type=float, default=0.0,
                   help="inject: fraction of flushed remote buffers "
                        "delivered twice")
    p.add_argument("--fault-reorder-rate", type=float, default=0.0,
                   help="inject: fraction of flushes whose entries are "
                        "delivered out of order")
    p.add_argument("--fault-delay-rate", type=float, default=0.0,
                   help="inject: fraction of flushed remote buffers "
                        "delayed")
    p.add_argument("--fault-stall-rate", type=float, default=0.0,
                   help="inject: fraction of flushes hit by a rank stall")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed for the deterministic fault plan")
    p.add_argument("--fault-crash", action="append", default=[],
                   metavar="RANK:ITERATION",
                   help="crash RANK at ITERATION (repeatable); requires "
                        "--checkpoint for recovery")
    p.add_argument("--reliable", action="store_true",
                   help="ack/retransmit delivery of flushed buffers "
                        "(masks drop/dup/delay/reorder faults; either "
                        "backend)")
    p.add_argument("--max-retries", type=int, default=32,
                   help="retransmit budget per flushed buffer in "
                        "--reliable mode")
    p.add_argument("--failure-timeout", type=int, default=256,
                   help="heartbeat threshold in delivery rounds before a "
                        "silent rank is declared failed (--reliable mode; "
                        "0 disables detection-by-timeout)")
    p.add_argument("--degraded", action="store_true",
                   help="on rank failure, continue the build without the "
                        "dead ranks and repair their neighborhoods when "
                        "they are re-admitted (instead of checkpoint "
                        "rollback)")
    p.add_argument("--max-recovery-attempts", type=int, default=8,
                   help="consecutive recovery cycles tolerated before the "
                        "failure propagates")
    p.add_argument("--backend", type=_backend_arg, choices=BACKENDS,
                   default=None,
                   help="execution backend: deterministic cost-modeled "
                        "simulation (sim, default) or multi-process "
                        "workers over the driver's dataset (process); "
                        "fault plans, reliable delivery, recovery and "
                        "the sanitizer work on both, only the cost "
                        "model is sim-only; default honours "
                        "REPRO_BACKEND")
    p.add_argument("--kernel", choices=("rowwise", "blocked"),
                   default=None,
                   help="batched distance-kernel implementation: "
                        "bit-exact per-row kernels (rowwise, default) "
                        "or tiled-GEMM kernels (blocked; recall-parity "
                        "gated for metrics that reassociate reductions); "
                        "default honours REPRO_KERNEL")
    p.add_argument("--workers", type=int, default=0,
                   help="process count (--backend process); 0 = auto: "
                        "REPRO_WORKERS or the core count")
    p.add_argument("--sanitize", action="store_true",
                   help="run under the runtime ownership sanitizer "
                        "(repro.analysis): cross-rank state access raises")
    p.add_argument("--metrics-out", default=None, metavar="FILE",
                   help="write the metrics snapshot (JSON) here; view "
                        "with `repro stats FILE`")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="write a Chrome trace-event file here (load in "
                        "ui.perfetto.dev)")
    p.add_argument("--no-metrics", action="store_true",
                   help="disable the metrics registry (a shared no-op "
                        "registry is used instead)")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("resume",
                       help="resume an interrupted construct from a checkpoint")
    p.add_argument("--dataset", default="deep1b",
                   choices=sorted(PAPER_DATASETS))
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0,
                   help="must match the interrupted run's dataset seed")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--procs-per-node", type=int, default=2)
    p.add_argument("--partitioner", choices=PARTITIONER_NAMES,
                   default=None,
                   help="assert the checkpoint was built with this "
                        "partitioner (a mismatch aborts instead of "
                        "silently re-homing rows)")
    p.add_argument("--store", default=None,
                   help="persist the finished graph here")
    p.add_argument("--backend", type=_backend_arg, choices=BACKENDS,
                   default=None,
                   help="execution backend for the resumed build")
    p.add_argument("--workers", type=int, default=0,
                   help="process count (--backend process); 0 = auto")
    p.add_argument("--metrics-out", default=None, metavar="FILE",
                   help="write the metrics snapshot (JSON) here")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="write a Chrome trace-event file here")
    p.set_defaults(func=cmd_resume)

    p = sub.add_parser(
        "repartition",
        help="build a k-NNG, then re-home rows for graph locality")
    p.add_argument("--dataset", default="deep1b",
                   choices=sorted(PAPER_DATASETS))
    p.add_argument("--n", type=int, default=2000, help="stand-in size")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--rho", type=float, default=0.8)
    p.add_argument("--delta", type=float, default=0.001)
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--procs-per-node", type=int, default=2)
    p.add_argument("--batch-size", type=int, default=1 << 13)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--partitioner", choices=PARTITIONER_NAMES,
                   default="hash",
                   help="initial placement for the build phase; the "
                        "repartition pass then computes an explicit "
                        "locality assignment from the built graph")
    p.add_argument("--store", default=None,
                   help="persist the re-homed graph + dataset here")
    p.add_argument("--backend", type=_backend_arg, choices=BACKENDS,
                   default=None,
                   help="execution backend (default honours REPRO_BACKEND)")
    p.add_argument("--workers", type=int, default=0,
                   help="process count (--backend process); 0 = auto")
    p.add_argument("--metrics-out", default=None, metavar="FILE",
                   help="write the metrics snapshot (JSON) here")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="write a Chrome trace-event file here")
    p.set_defaults(func=cmd_repartition)

    p = sub.add_parser("optimize", help="Section 4.5 optimizations (executable 2)")
    p.add_argument("--store", required=True)
    p.add_argument("--pruning-factor", type=float, default=1.5,
                   help="m: per-vertex degree cap is k*m")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("query", help="run ANN queries against a store")
    p.add_argument("--store", required=True)
    p.add_argument("--n-queries", type=int, default=100)
    p.add_argument("--l", type=int, default=10)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("stats",
                       help="pretty-print a --metrics-out snapshot")
    p.add_argument("metrics_file", help="JSON file written by "
                                        "`repro construct --metrics-out`")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("datasets", help="list the Table 1 dataset stand-ins")
    p.set_defaults(func=cmd_datasets)

    p = sub.add_parser("experiments",
                       help="list reproduced tables/figures and benchmarks")
    p.set_defaults(func=cmd_experiments)

    return parser


def _fault_plan_from_args(args: argparse.Namespace) -> Optional[FaultPlan]:
    crashes = []
    for spec in args.fault_crash:
        try:
            rank_s, iter_s = spec.split(":", 1)
            crashes.append((int(iter_s), int(rank_s)))
        except ValueError:
            raise ReproError(
                f"--fault-crash wants RANK:ITERATION, got {spec!r}") from None
    plan = FaultPlan(
        seed=args.fault_seed,
        drop_rate=args.fault_drop_rate,
        dup_rate=args.fault_dup_rate,
        reorder_rate=args.fault_reorder_rate,
        delay_rate=args.fault_delay_rate,
        stall_rate=args.fault_stall_rate,
        crashes=tuple(crashes),
    )
    return None if plan.is_null else plan


def _export_observability(result, metrics_out: Optional[str],
                          trace_out: Optional[str]) -> None:
    """Write the run's metrics snapshot / Chrome trace where asked."""
    import json

    if metrics_out:
        with open(metrics_out, "w", encoding="utf-8") as f:
            json.dump(result.metrics.snapshot(), f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"metrics snapshot written to {metrics_out} "
              f"(pretty-print with `repro stats {metrics_out}`)")
    if trace_out:
        with open(trace_out, "w", encoding="utf-8") as f:
            json.dump(result.metrics.to_chrome_trace(), f)
            f.write("\n")
        print(f"chrome trace written to {trace_out} "
              f"(load in ui.perfetto.dev)")


def _partitioner_from_args(args: argparse.Namespace, data,
                           cluster: ClusterConfig):
    """``--partitioner`` → a Partitioner, or None for the hash default.

    Returning None for ``hash`` keeps the construct path byte-identical
    with releases that predate the flag (DNND builds its own
    HashPartitioner).
    """
    if args.partitioner == "hash":
        return None
    return make_partitioner(args.partitioner, len(data),
                            cluster.world_size, data=np.asarray(data),
                            seed=args.seed)


def cmd_construct(args: argparse.Namespace) -> int:
    data, spec = load_dataset(args.dataset, n=args.n, seed=args.seed)
    comm = (CommOptConfig.unoptimized() if args.unoptimized_comm
            else CommOptConfig.optimized())
    cfg = DNNDConfig(
        nnd=NNDescentConfig(k=args.k, rho=args.rho, delta=args.delta,
                            metric=spec.metric, seed=args.seed),
        comm_opts=comm,
        batch_size=args.batch_size,
        backend=args.backend,
        kernel=args.kernel,
        workers=args.workers,
        metrics=not args.no_metrics,
    )
    if args.no_metrics and (args.metrics_out or args.trace_out):
        raise ReproError("--metrics-out/--trace-out require metrics; "
                         "drop --no-metrics")
    fault_plan = _fault_plan_from_args(args)
    cluster = ClusterConfig(nodes=args.nodes,
                            procs_per_node=args.procs_per_node)
    dnnd = DNND(data, cfg, cluster=cluster,
        partitioner=_partitioner_from_args(args, data, cluster),
        fault_plan=fault_plan, reliable=args.reliable,
        max_retries=args.max_retries,
        failure_timeout=args.failure_timeout or None,
        sanitize=True if args.sanitize else None)
    result = dnnd.build(store_path=args.store,
                        checkpoint_path=args.checkpoint,
                        checkpoint_every=args.checkpoint_every,
                        degraded=args.degraded,
                        max_recovery_attempts=args.max_recovery_attempts)
    print(f"constructed {args.dataset} k={args.k}: "
          f"{result.iterations} iterations, converged={result.converged}")
    print(f"simulated time: {format_duration(result.sim_seconds)} "
          f"on {result.world_size} ranks")
    print(result.message_stats.format_table("messages"))
    if result.fault_stats.any_faults() or result.recoveries:
        print(result.fault_stats.format_line())
        print(f"crash recoveries: {result.recoveries}")
    if result.degraded_ranks:
        print("degraded ranks (excluded, then repaired): "
              f"{list(result.degraded_ranks)}")
    _export_observability(result, args.metrics_out, args.trace_out)
    print(f"store written to {args.store}")
    return 0


def cmd_resume(args: argparse.Namespace) -> int:
    data, _spec = load_dataset(args.dataset, n=args.n, seed=args.seed)
    result = DNND.resume(
        data, args.checkpoint,
        cluster=ClusterConfig(nodes=args.nodes,
                              procs_per_node=args.procs_per_node),
        store_path=args.store,
        backend=args.backend, workers=args.workers,
        partitioner=args.partitioner)
    print(f"resumed build finished: {result.iterations} total iterations, "
          f"converged={result.converged}")
    _export_observability(result, args.metrics_out, args.trace_out)
    if args.store:
        print(f"store written to {args.store}")
    return 0


def cmd_repartition(args: argparse.Namespace) -> int:
    data, spec = load_dataset(args.dataset, n=args.n, seed=args.seed)
    cfg = DNNDConfig(
        nnd=NNDescentConfig(k=args.k, rho=args.rho, delta=args.delta,
                            metric=spec.metric, seed=args.seed),
        batch_size=args.batch_size,
        backend=args.backend,
        workers=args.workers,
    )
    cluster = ClusterConfig(nodes=args.nodes,
                            procs_per_node=args.procs_per_node)
    dnnd = DNND(data, cfg, cluster=cluster,
                partitioner=_partitioner_from_args(args, data, cluster))
    result = dnnd.build()
    built_under = dnnd.partitioner.kind
    before = dnnd.metrics.snapshot()["gauges"].get("partition.edge_cut")
    dnnd.repartition()
    after = dnnd.metrics.snapshot()["gauges"].get("partition.edge_cut")
    print(f"built {args.dataset} k={args.k} under {built_under}: "
          f"{result.iterations} iterations, converged={result.converged}")
    if before is not None and after is not None:
        print(f"edge cut: {before:.4f} -> {after:.4f} "
              f"({dnnd.partitioner.kind}/{dnnd.partitioner.source} "
              f"assignment, imbalance "
              f"{dnnd.partitioner.max_imbalance():.3f})")
    if args.store:
        dnnd._persist(args.store, result)
        print(f"store written to {args.store}")
    _export_observability(result, args.metrics_out, args.trace_out)
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    adjacency = optimize_from_store(args.store,
                                    pruning_factor=args.pruning_factor)
    print(f"optimized graph: {adjacency.n_edges:,} edges, "
          f"max degree {int(adjacency.degrees().max())}")
    print(f"store updated at {args.store}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    with MetallStore.open_read_only(args.store) as store:
        if "optimized_graph" in store:
            graph = AdjacencyGraph.from_arrays(store["optimized_graph"])
        else:
            from .core.graph import KNNGraph
            graph = KNNGraph.from_arrays(store["graph"]).to_adjacency()
            print("note: store has no optimized graph; run `repro optimize`")
        dataset = store["dataset"]
        if isinstance(dataset, np.memmap) or isinstance(dataset, np.ndarray):
            dataset = np.asarray(dataset)
        metric = store["meta"]["metric"]

    rng = np.random.default_rng(args.seed)
    idx = rng.choice(len(dataset), size=min(args.n_queries, len(dataset)),
                     replace=False)
    if isinstance(dataset, np.ndarray):
        queries = dataset[idx]
    else:
        queries = [dataset[int(i)] for i in idx]

    searcher = KNNGraphSearcher(graph, dataset, metric=metric, seed=args.seed)
    engine = ParallelQueryEngine(searcher, n_threads=args.threads)
    import time
    start = time.perf_counter()
    ids, _dists, stats = engine.query_batch(queries, l=args.l,
                                            epsilon=args.epsilon)
    elapsed = time.perf_counter() - start
    # Self-queries should return themselves first: a cheap sanity recall.
    self_hits = sum(1 for row, q in zip(ids, idx) if int(q) in row)
    print(f"{stats['n_queries']} queries, epsilon={args.epsilon}, "
          f"threads={stats['n_threads']}")
    print(f"throughput: {stats['n_queries'] / max(elapsed, 1e-9):.0f} qps, "
          f"{stats['mean_distance_evals']:.0f} distance evals/query")
    print(f"self-recall: {self_hits}/{len(idx)}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Pretty-print a metrics snapshot (``--metrics-out`` JSON)."""
    import json

    try:
        with open(args.metrics_file, encoding="utf-8") as f:
            snap = json.load(f)
    except (OSError, ValueError) as exc:
        raise ReproError(f"cannot read metrics file: {exc}") from None
    schema = snap.get("schema")
    if schema != "repro.metrics/1":
        raise ReproError(
            f"{args.metrics_file} is not a repro metrics snapshot "
            f"(schema={schema!r})")
    if not snap.get("enabled", False):
        print("metrics were disabled for this run (empty snapshot)")
        return 0

    counters = snap.get("counters", {})
    gauges = snap.get("gauges", {})
    timers = snap.get("timers", {})

    phase_rows = []
    for name in sorted(timers):
        if not name.startswith("phase."):
            continue
        phase = name[len("phase."):]
        t = timers[name]
        sim = gauges.get(f"sim.phase.{phase}.seconds")
        phase_rows.append([phase, t["count"], f"{t['seconds']:.6f}",
                           f"{sim:.6f}" if sim is not None else "-"])
    if phase_rows:
        print(ascii_table(["phase", "spans", "wall seconds", "sim seconds"],
                          phase_rows, title="phase timers"))
        print()

    msg_rows = [[t, f"{counters[f'messages.sent.{t}']:,}",
                 f"{counters.get(f'messages.bytes.{t}', 0):,}"]
                for t in sorted(c[len("messages.sent."):] for c in counters
                                if c.startswith("messages.sent."))]
    if msg_rows:
        print(ascii_table(["type", "messages", "bytes"], msg_rows,
                          title="messages by type"))
        print()

    skip = ("messages.sent.", "messages.bytes.")
    other_rows = [[name, f"{counters[name]:,}"]
                  for name in sorted(counters)
                  if not name.startswith(skip)
                  and not (name.startswith("faults.") and counters[name] == 0)]
    if other_rows:
        print(ascii_table(["counter", "value"], other_rows,
                          title="runtime counters"))
        print()

    gauge_rows = [[name, f"{gauges[name]:.6f}"] for name in sorted(gauges)
                  if not name.startswith("sim.phase.")]
    if gauge_rows:
        print(ascii_table(["gauge", "value"], gauge_rows, title="gauges"))

    log = BarrierLog(map(BarrierRecord.from_json, snap.get("barriers", [])))
    if log.iterations():
        print()
        print(log.iteration_report(gauges.get("convergence.threshold")))
    return 0


def cmd_datasets(args: argparse.Namespace) -> int:
    rows = [[s.name, s.dim, f"{s.paper_entries:,}", s.metric, s.default_n]
            for s in PAPER_DATASETS.values()]
    print(ascii_table(
        ["dataset", "paper dim", "paper entries", "metric", "stand-in n"],
        rows, title="Table 1 datasets and their stand-ins"))
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    rows = [[e.exp_id, e.paper_ref, e.bench] for e in EXPERIMENTS.values()]
    print(ascii_table(["id", "paper artifact", "benchmark"], rows,
                      title="reproduced experiments"))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
