"""Wall-clock benchmark: backends, kernels, metrics overhead, scale.

Unlike the other benches (which report *simulated* cluster seconds from
the cost model), this one times the *host* wall clock of whole builds.
(The end-to-end and per-layer numbers a change is judged by come from
``benchmarks/perf``; this file keeps the axes that one does not have.)

Run directly::

    python benchmarks/bench_wallclock.py            # full run
    python benchmarks/bench_wallclock.py --quick    # CI smoke (small size)
    python benchmarks/bench_wallclock.py --backend process --workers 4

The bench times a build under each requested ``--backend`` and records
recall against brute force, so the JSON captures the execution-backend
trade-off: sim is deterministic and cost-modeled, process must keep
recall@k within +-0.01 (its speed is gated on the scale axis, where
the machine's core count decides).  A second section times metrics-on
vs metrics-off (``DNNDConfig.metrics``): the default-on observability layer must cost <2% wall clock (and zero
simulation divergence) because it only synchronizes counters at
barriers.

The **kernel axis** (``kernel_results``) compares the rowwise distance
kernels against the blocked tiled-GEMM kernels (DESIGN.md section 17)
on float32 data at the issue's acceptance instance n=2000 d=32 — run
even under ``--quick`` because perf-smoke CI gates blocked >= 1.0x on
the kernel-bound pairwise workload and recall parity within 0.005 on
the full build.

The **scale axis** (``--quick`` shrinks it, ``--xl`` extends it) is the
process backend's reason to exist: at n=50k+ worker processes scale
with the core count.  The record always includes ``cpu_count`` because
the result is machine-bound: on a single-core runner the process backend *cannot*
beat sim (IPC overhead, no parallelism to buy it back), so the
process-vs-sim perf gate only fails on machines with >=2 cores —
elsewhere the measurement is recorded and annotated, not asserted.

Writes ``BENCH_wallclock.json`` at the repository root.  Timing is
best-of-N (``--repeats``, default 3): the minimum over repeats is the
standard robust estimator for wall-clock comparisons on a noisy machine
— any one-off scheduler hiccup inflates a single run, never deflates it.
Exits non-zero when a gate fails (blocked kernel slower than rowwise or
off recall parity, process recall off sim's, metrics overhead above its
cap) — the CI perf-smoke contract.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro import DNND, ClusterConfig, CommOptConfig, DNNDConfig, NNDescentConfig
from repro.baselines.bruteforce import brute_force_neighbors
from repro.core.graph import KNNGraph
from repro.eval.recall import graph_recall

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
OUT_PATH = os.path.join(REPO_ROOT, "BENCH_wallclock.json")

#: (n, dim) instances; k / cluster shape / batch_size stay fixed.
FULL_SIZES = [(500, 16), (2000, 32)]
QUICK_SIZES = [(400, 16)]

#: Scale axis: the n=50k-500k range the process backend opens.  ``--quick`` runs a
#: small stand-in so CI exercises the code path; ``--xl`` extends the
#: sweep for real machines with cores + minutes to spend.
SCALE_SIZES = [(50_000, 16)]
SCALE_SIZES_QUICK = [(8_000, 16)]
SCALE_SIZES_XL = [(50_000, 16), (200_000, 16)]

#: Kernel axis (rowwise vs blocked, DESIGN.md section 17): the issue's
#: acceptance instance runs even under ``--quick`` because the CI
#: perf-smoke job gates blocked >= 1.0x at n=2000 d=32.  float32 is the
#: regime the blocked kernels exist for — native-dtype GEMM halves the
#: memory traffic the rowwise kernels spend upcasting to float64.
KERNEL_SIZES = [(2000, 32)]
K = 10
SEED = 0


def _build(data: np.ndarray, backend: str = "sim",
           workers: int = 0, metrics: bool = True,
           kernel: str | None = "rowwise"):
    cfg = DNNDConfig(
        nnd=NNDescentConfig(k=K, metric="sqeuclidean", seed=SEED),
        comm_opts=CommOptConfig.optimized(),
        batch_size=1 << 13,
        backend=backend,
        kernel=kernel,
        workers=workers,
        metrics=metrics,
    )
    dnnd = DNND(data, cfg, cluster=ClusterConfig(nodes=4, procs_per_node=2))
    try:
        return dnnd.build()
    finally:
        dnnd.close()


def _time_build(data: np.ndarray, repeats: int,
                backend: str = "sim", workers: int = 0,
                metrics: bool = True, kernel: str | None = "rowwise"):
    """(best wall seconds, last BuildResult)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = _build(data, backend, workers, metrics, kernel=kernel)
        best = min(best, time.perf_counter() - t0)
    return best, result


def run_backends(sizes, repeats: int, backends, workers: int):
    """Time a build per execution backend; recall vs brute
    force goes in the record because the process backend's contract is
    statistical (recall@k within +-0.01 of sim), not bit-identity."""
    rows = []
    for n, dim in sizes:
        rng = np.random.default_rng(7)
        data = rng.standard_normal((n, dim))
        ids, dists = brute_force_neighbors(data, data, K, exclude_self=True)
        truth = KNNGraph(ids, dists)
        per_backend = {}
        for backend in backends:
            w = workers if backend == "process" else 0
            secs, result = _time_build(data, repeats, backend, w)
            per_backend[backend] = {
                "seconds": round(secs, 4),
                "recall": round(graph_recall(result.graph, truth), 4),
            }
            print(f"n={n:5d} d={dim:3d}  backend={backend:8s} "
                  f"workers={w:2d}  {secs:7.2f}s  "
                  f"recall@{K} {per_backend[backend]['recall']:.4f}")
        row = {"n": n, "dim": dim, "k": K, "workers": workers,
               "backends": per_backend}
        if "sim" in per_backend and "process" in per_backend:
            row["process_speedup"] = round(
                per_backend["sim"]["seconds"]
                / per_backend["process"]["seconds"], 3)
            row["process_recall_delta"] = round(
                per_backend["process"]["recall"]
                - per_backend["sim"]["recall"], 4)
        rows.append(row)
    return rows


def run_scale(sizes, backends, workers: int):
    """The large-n axis: one timed build per backend
    (no repeats — a single n=50k build is minutes, and the comparison
    is between backends on the *same* machine in the same session).
    Recall against brute force is skipped: the O(n^2) ground truth at
    n=50k costs more than every build combined."""
    rows = []
    for n, dim in sizes:
        rng = np.random.default_rng(7)
        data = rng.standard_normal((n, dim)).astype(np.float64)
        per_backend = {}
        for backend in backends:
            w = workers if backend == "process" else 0
            secs, result = _time_build(data, 1, backend, w)
            per_backend[backend] = {
                "seconds": round(secs, 4),
                "iterations": result.iterations,
                "distance_evals": result.distance_evals,
            }
            print(f"n={n:6d} d={dim:3d}  backend={backend:8s} "
                  f"workers={w:2d}  {secs:8.2f}s  "
                  f"iters {result.iterations}")
        row = {"n": n, "dim": dim, "k": K, "workers": workers,
               "backends": per_backend}
        if "sim" in per_backend and "process" in per_backend:
            row["process_speedup"] = round(
                per_backend["sim"]["seconds"]
                / per_backend["process"]["seconds"], 3)
        rows.append(row)
    return rows


def run_kernels(repeats: int):
    """Kernel axis: rowwise vs blocked (DESIGN.md section 17).

    Two measurements per instance on float32 data:

    - the **gated** one is the kernel-bound workload — brute-force
      pairwise distances — where the blocked tiled GEMM is the whole
      story and must be at least as fast as the rowwise kernels;
    - the full DNND build is **recorded** alongside (its hot path is
      paired-rows distances with no matrix-product structure, so the
      kernel choice moves it little either way), with the recall delta
      between the two builds, which must sit inside the 0.005 parity
      gate the conformance suite pins.
    """
    rows = []
    for n, dim in KERNEL_SIZES:
        rng = np.random.default_rng(7)
        data = rng.standard_normal((n, dim)).astype(np.float32)
        ids, dists = brute_force_neighbors(data, data, K, exclude_self=True)
        truth = KNNGraph(ids, dists)
        per_kernel = {}
        for kernel in ("rowwise", "blocked"):
            best = float("inf")
            for _ in range(max(3, repeats)):
                t0 = time.perf_counter()
                brute_force_neighbors(data, data, K, exclude_self=True,
                                      kernel=kernel)
                best = min(best, time.perf_counter() - t0)
            t_build, r_build = _time_build(data, repeats, kernel=kernel)
            snap = r_build.metrics.snapshot()["counters"]
            per_kernel[kernel] = {
                "pairwise_seconds": round(best, 4),
                "build_seconds": round(t_build, 4),
                "recall": round(graph_recall(r_build.graph, truth), 4),
                "tile_flops": snap["kernel.tile_flops"],
                "kernel_fallbacks": snap["kernel.fallbacks"],
            }
            print(f"n={n:5d} d={dim:3d}  kernel={kernel:8s} "
                  f"pairwise {best:7.4f}s  build {t_build:7.2f}s  "
                  f"recall@{K} {per_kernel[kernel]['recall']:.4f}")
        row = {"n": n, "dim": dim, "k": K, "dtype": "float32",
               "kernels": per_kernel,
               "blocked_speedup": round(
                   per_kernel["rowwise"]["pairwise_seconds"]
                   / per_kernel["blocked"]["pairwise_seconds"], 3),
               "recall_delta": round(
                   per_kernel["blocked"]["recall"]
                   - per_kernel["rowwise"]["recall"], 4)}
        rows.append(row)
        print(f"n={n:5d} d={dim:3d}  blocked pairwise speedup "
              f"{row['blocked_speedup']:5.2f}x  recall delta "
              f"{row['recall_delta']:+.4f}")
    return rows


def run_metrics_overhead(sizes, repeats: int):
    """Metrics-on vs metrics-off: the observability layer's cost.

    The registry is synchronized at barrier granularity (never per
    message), so metrics-on must be free to within timing noise — the
    acceptance bar is <2% on a quiet machine (asserted by ``main`` for
    full runs; quick/CI runs use a looser noise margin because the
    builds are short enough for scheduler jitter to dominate).  The two
    builds must also produce bit-identical graphs: observation cannot
    perturb the simulation.
    """
    rows = []
    for n, dim in sizes:
        rng = np.random.default_rng(7)
        data = rng.standard_normal((n, dim))
        # Interleave the two arms and alternate which goes first: the
        # true cost (a ~1 ms counter sync per build) is far below
        # machine drift between two back-to-back timing blocks, so
        # block-then-block measurement would report pure noise.
        t_on = t_off = float("inf")
        r_on = r_off = None
        for i in range(max(2, repeats)):
            arms = [(True,), (False,)] if i % 2 == 0 else [(False,), (True,)]
            for (metrics_on,) in arms:
                t0 = time.perf_counter()
                result = _build(data, metrics=metrics_on)
                dt = time.perf_counter() - t0
                if metrics_on:
                    t_on, r_on = min(t_on, dt), result
                else:
                    t_off, r_off = min(t_off, dt), result
        if not (np.array_equal(r_on.graph.ids, r_off.graph.ids)
                and r_on.sim_seconds == r_off.sim_seconds):
            raise SystemExit(
                f"metrics-on build diverged from metrics-off at n={n}, d={dim}")
        overhead = t_on / t_off - 1.0
        rows.append({
            "n": n, "dim": dim, "k": K,
            "metrics_on_seconds": round(t_on, 4),
            "metrics_off_seconds": round(t_off, 4),
            "overhead": round(overhead, 4),
        })
        print(f"n={n:5d} d={dim:3d}  metrics on {t_on:7.2f}s  "
              f"off {t_off:7.2f}s  overhead {overhead:+7.2%}  "
              f"(bit-identical: yes)")
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small instance only (CI perf smoke)")
    ap.add_argument("--repeats", type=int, default=3,
                    help="timing repeats; best-of-N is reported")
    ap.add_argument("--backend", action="append",
                    choices=["sim", "process"],
                    help="execution backend(s) for the backend-comparison "
                         "and scale sections; repeatable (default: all)")
    ap.add_argument("--workers", type=int, default=4,
                    help="worker count for the process backend in the "
                         "small-axis comparison")
    ap.add_argument("--scale-workers", type=int, default=8,
                    help="worker count for the scale axis (the paper "
                         "regime: one worker process per core)")
    ap.add_argument("--xl", action="store_true",
                    help="extend the scale axis to n=200k (multi-core "
                         "machines with minutes to spend)")
    ap.add_argument("--no-scale", action="store_true",
                    help="skip the large-n scale axis entirely")
    args = ap.parse_args(argv)

    sizes = QUICK_SIZES if args.quick else FULL_SIZES
    backends = args.backend or ["sim", "process"]
    cpu_count = os.cpu_count() or 1
    backend_rows = run_backends(sizes, max(1, args.repeats), backends,
                                args.workers)
    kernel_rows = run_kernels(max(1, args.repeats))
    metrics_rows = run_metrics_overhead(sizes, max(1, args.repeats))
    scale_rows = []
    if not args.no_scale:
        scale_sizes = (SCALE_SIZES_QUICK if args.quick
                       else SCALE_SIZES_XL if args.xl else SCALE_SIZES)
        scale_rows = run_scale(scale_sizes, backends, args.scale_workers)
    payload = {
        "benchmark": "wallclock: backends, kernels, metrics overhead, scale",
        "repeats": max(1, args.repeats),
        "quick": bool(args.quick),
        "cpu_count": cpu_count,
        "backend_results": backend_rows,
        "kernel_results": kernel_rows,
        "metrics_overhead": metrics_rows,
        "scale_results": scale_rows,
    }
    with open(OUT_PATH, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {OUT_PATH}")

    # Kernel-axis gate (runs in quick mode too — this is the perf-smoke
    # contract): the blocked tiled GEMM must be at least as fast as the
    # rowwise kernels on the kernel-bound pairwise workload, and the
    # blocked build's recall must sit inside the 0.005 parity gate.
    for row in kernel_rows:
        if row["blocked_speedup"] < 1.0:
            print(f"FAIL: blocked kernel slower than rowwise at "
                  f"n={row['n']}, d={row['dim']} "
                  f"(speedup {row['blocked_speedup']}x)")
            return 1
        if abs(row["recall_delta"]) > 0.005:
            print(f"FAIL: blocked-kernel recall deviates from rowwise "
                  f"by {row['recall_delta']} at n={row['n']}")
            return 1
    if not args.quick and len(backend_rows) > 1:
        # The backend contract is asserted only at the largest instance:
        # small ones are dominated by fixed costs, not the message path.
        delta = backend_rows[-1].get("process_recall_delta", 0.0)
        if abs(delta) > 0.01:
            print(f"FAIL: process recall deviates from sim by {delta}")
            return 1
    if scale_rows:
        # Process-vs-sim perf gate, core-count-aware: worker processes
        # can only beat the inline sim when the machine has cores for
        # them — on a single-core runner the IPC tax buys nothing, so
        # the measurement is recorded but not asserted.
        last = scale_rows[-1]
        speedup = last.get("process_speedup")
        if speedup is not None:
            if not args.quick and cpu_count >= 2 and speedup < 1.0:
                print(f"FAIL: process backend slower than sim at "
                      f"n={last['n']} with {cpu_count} cores "
                      f"(speedup {speedup}x)")
                return 1
            if cpu_count < 2:
                print(f"note: single-core machine — process speedup "
                      f"{speedup}x recorded, gate not asserted")
    # Observability cost gate: <2% on full runs; quick/CI runs get a
    # noise margin because sub-second builds make relative timing
    # jitter-dominated on shared runners.
    overhead_cap = 0.15 if args.quick else 0.02
    costly = [r for r in metrics_rows if r["overhead"] > overhead_cap]
    if costly:
        print(f"FAIL: metrics overhead above {overhead_cap:.0%} at {costly}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
