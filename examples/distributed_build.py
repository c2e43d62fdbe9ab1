#!/usr/bin/env python
"""DNND on a simulated cluster: the paper's headline workflow.

Builds the same k-NN graph with the *unoptimized* and the *optimized*
neighbor-check communication patterns (Section 4.3 / Figure 1) on a
simulated 8-node cluster, and prints:

- per-message-type traffic statistics (the Figure 4 measurement),
- the modeled construction time and its per-phase breakdown,
- graph quality vs brute force,
- host wall-clock of the sim vs the multi-process execution backend
  for the same seed.

Run:  python examples/distributed_build.py
      python examples/distributed_build.py --backend process --workers 4
"""

import argparse
import time

from repro import (
    DNND,
    ClusterConfig,
    CommOptConfig,
    DNNDConfig,
    NNDescentConfig,
    brute_force_knn_graph,
    graph_recall,
)
from repro.datasets import gaussian_mixture
from repro.utils.timing import format_duration

CHECK_TYPES = ("type1", "type2", "type2+", "type3")


def build(data, comm_opts, label):
    cfg = DNNDConfig(
        nnd=NNDescentConfig(k=10, metric="sqeuclidean", seed=7),
        comm_opts=comm_opts,
        batch_size=1 << 13,           # Section 4.4 batched communication
    )
    cluster = ClusterConfig(nodes=8, procs_per_node=2)
    dnnd = DNND(data, cfg, cluster=cluster)
    result = dnnd.build()
    dnnd.optimize()

    print(f"\n--- {label} ---")
    print(f"iterations: {result.iterations}  converged: {result.converged}")
    print(f"simulated construction time: "
          f"{format_duration(result.sim_seconds)} "
          f"({result.world_size} ranks)")
    for phase, secs in sorted(result.phase_seconds.items(),
                              key=lambda t: -t[1]):
        print(f"  {phase:<16s} {format_duration(secs)}")
    print(result.phase_stats["neighbor_check"].format_table(
        "neighbor-check messages"))
    return result


def timed_build(data, backend, workers, truth):
    """Host wall-clock of one batched build under an execution backend."""
    cfg = DNNDConfig(
        nnd=NNDescentConfig(k=10, metric="sqeuclidean", seed=7),
        comm_opts=CommOptConfig.optimized(),
        batch_size=1 << 13,
        backend=backend,
        workers=workers,
    )
    dnnd = DNND(data, cfg, cluster=ClusterConfig(nodes=8, procs_per_node=2))
    t0 = time.perf_counter()
    try:
        result = dnnd.build()
    finally:
        dnnd.close()
    wall = time.perf_counter() - t0
    w = f" workers={workers}" if backend == "process" else ""
    print(f"  {backend:<8s}{w:<11s} {wall:6.2f}s wall   "
          f"recall {graph_recall(result.graph, truth):.4f}")
    return wall


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--backend", choices=["sim", "process", "both"],
                    default="both",
                    help="execution backend(s) for the wall-clock section")
    ap.add_argument("--workers", type=int, default=4,
                    help="worker count for the process backend")
    args = ap.parse_args()

    data = gaussian_mixture(1200, 32, n_clusters=16, cluster_std=0.2, seed=7)
    print(f"dataset: {data.shape[0]} points x {data.shape[1]} dims, "
          f"simulated cluster: 8 nodes x 2 ranks")

    unopt = build(data, CommOptConfig.unoptimized(), "unoptimized (Figure 1a)")
    opt = build(data, CommOptConfig.optimized(), "optimized (Figure 1b)")

    u_cnt = unopt.phase_stats["neighbor_check"].total_count(CHECK_TYPES)
    o_cnt = opt.phase_stats["neighbor_check"].total_count(CHECK_TYPES)
    u_b = unopt.phase_stats["neighbor_check"].total_bytes(CHECK_TYPES)
    o_b = opt.phase_stats["neighbor_check"].total_bytes(CHECK_TYPES)
    print("\n--- communication savings (paper Figure 4: ~50%) ---")
    print(f"messages: {1 - o_cnt / u_cnt:.1%} fewer")
    print(f"bytes:    {1 - o_b / u_b:.1%} fewer")

    truth = brute_force_knn_graph(data, k=10)
    print("\n--- quality (identical algorithm, different wire protocol) ---")
    print(f"unoptimized recall: {graph_recall(unopt.graph, truth):.4f}")
    print(f"optimized recall:   {graph_recall(opt.graph, truth):.4f}")

    print("\n--- execution backends (same seed, host wall-clock) ---")
    walls = {}
    if args.backend in ("sim", "both"):
        walls["sim"] = timed_build(data, "sim", 0, truth)
    if args.backend in ("process", "both"):
        walls["process"] = timed_build(data, "process", args.workers, truth)
    if len(walls) == 2:
        print(f"  process speedup over sim: "
              f"{walls['sim'] / walls['process']:.2f}x")


if __name__ == "__main__":
    main()
