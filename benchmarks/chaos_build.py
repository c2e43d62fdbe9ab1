"""Chaos harness: randomized fault plans against supervised recovery.

The fault-tolerance contract (DESIGN.md section 8) says a build under a
seeded chaos plan — drops, duplicates and delays of flushed buffers
(the fault unit: every delivery is one buffer envelope), plus a rank
crash — must either *complete through supervised recovery* with recall@k
within ``EPSILON`` of the fault-free build, or fail loudly.  This
harness checks that contract on **both** execution backends under the
same randomized plans and reliable delivery (under process every
worker's transport perturbs what it sends, and the planned crash
SIGKILLs the owning worker):

- run 0 per backend: drops/dups/delays + a mid-build rank crash,
  recovered from a checkpoint by the supervisor (retry-with-backoff,
  transport repair, checkpoint restore),
- run 1 per backend: the same fault families with a crash handled in
  **degraded mode** — the dead rank is excluded, the build continues,
  and the rank is re-admitted + its shard repaired before the gather.

Run directly::

    python benchmarks/chaos_build.py                 # default master seed
    python benchmarks/chaos_build.py --seed 1234     # another chaos draw
    python benchmarks/chaos_build.py --runs 3        # more runs per backend

Every fault plan is derived from the master seed (printed up front, so a
CI failure is reproducible locally with ``--seed``).  Exits non-zero if
any run aborts or its recall regresses more than ``EPSILON`` below the
fault-free reference.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro import (
    ClusterConfig,
    DNND,
    DNNDConfig,
    FaultPlan,
    NNDescentConfig,
    brute_force_knn_graph,
    graph_recall,
)

N = 500
DIM = 16
K = 10
NODES, PROCS = 2, 2
DATA_SEED = 11
#: Maximum tolerated recall@k drop vs the fault-free build for a
#: supervised-recovery run (checkpoint restore replays lost state, so
#: the result must be essentially equivalent).
EPSILON = 0.005
#: Degraded mode trades graph quality for availability: the dead rank's
#: shard restarts from keyed reinit + survivor donations and gets a
#: bounded number of repair rounds, so its envelope is looser.
EPSILON_DEGRADED = 0.05
BACKENDS = ("sim", "process")


def _config(backend: str) -> DNNDConfig:
    return DNNDConfig(nnd=NNDescentConfig(k=K, seed=DATA_SEED),
                      backend=backend, workers=4)


def draw_plan(rng: np.random.Generator, crash_rank: int,
              crash_iteration: int) -> FaultPlan:
    """One randomized chaos plan: one scheduled rank crash plus every
    network fault family — per flushed buffer — at a rate drawn from
    the master-seeded stream."""
    return FaultPlan(
        seed=int(rng.integers(1, 2**31)),
        drop_rate=float(rng.uniform(0.01, 0.08)),
        dup_rate=float(rng.uniform(0.0, 0.05)),
        delay_rate=float(rng.uniform(0.0, 0.10)),
        max_delay_ticks=int(rng.integers(1, 4)),
        crashes=((crash_iteration, crash_rank),),
    )


def chaos_run(data, backend: str, plan: FaultPlan, degraded: bool,
              workdir: str) -> "tuple":
    """Build under ``plan``; returns ``(result, recall)``."""
    dnnd = DNND(data, _config(backend),
                cluster=ClusterConfig(nodes=NODES, procs_per_node=PROCS),
                fault_plan=plan, reliable=True)
    ckpt = os.path.join(workdir, f"ckpt-{backend}-{plan.seed}")
    try:
        result = dnnd.build(checkpoint_path=None if degraded else ckpt,
                            checkpoint_every=0 if degraded else 1,
                            degraded=degraded)
    finally:
        dnnd.close()
    return result, result.graph


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=20230823,
                    help="master seed for the chaos draws (printed; rerun "
                         "with the printed value to reproduce a CI failure)")
    ap.add_argument("--runs", type=int, default=2,
                    help="chaos runs per backend (default 2: one supervised "
                         "recovery, one degraded; extra runs alternate)")
    args = ap.parse_args(argv)

    print(f"chaos master seed: {args.seed}")
    rng = np.random.default_rng(args.seed)
    data = rng.standard_normal((N, DIM)).astype(np.float32)
    truth = brute_force_knn_graph(data, k=K)
    world = NODES * PROCS

    # Fault-free reference (sim backend): the recall bar every chaos run
    # must clear to within EPSILON.
    ref = DNND(data, _config("sim"),
               cluster=ClusterConfig(nodes=NODES, procs_per_node=PROCS)).build()
    ref_recall = graph_recall(ref.graph, truth)
    print(f"fault-free reference recall@{K}: {ref_recall:.4f}")

    failures = []
    with tempfile.TemporaryDirectory(prefix="chaos-") as workdir:
        for backend in BACKENDS:
            for run in range(args.runs):
                degraded = run % 2 == 1
                mode = "degraded" if degraded else "recovery"
                crash_rank = int(rng.integers(0, world))
                crash_iteration = int(rng.integers(1, 3))
                plan = draw_plan(rng, crash_rank, crash_iteration)
                label = (f"{backend}/{mode} run {run}: crash rank "
                         f"{crash_rank} at iteration {crash_iteration}, "
                         f"drop={plan.drop_rate:.3f} dup={plan.dup_rate:.3f} "
                         f"delay={plan.delay_rate:.3f}")
                try:
                    result, graph = chaos_run(data, backend, plan, degraded,
                                              workdir)
                except Exception as exc:  # noqa: BLE001 - abort = failure
                    print(f"FAIL {label}: aborted: {exc!r}")
                    failures.append(label)
                    continue
                recall = graph_recall(graph, truth)
                counters = result.metrics.snapshot()["counters"]
                detected = counters.get("faults.detected")
                recovery = counters.get("recovery.attempts")
                detail = (f"recall@{K}={recall:.4f} "
                          f"detected={detected} recovery.attempts={recovery} "
                          f"recoveries={result.recoveries} "
                          f"degraded_ranks={list(result.degraded_ranks)}")
                eps = EPSILON_DEGRADED if degraded else EPSILON
                if recall < ref_recall - eps:
                    print(f"FAIL {label}: {detail} "
                          f"(regression > {eps} vs {ref_recall:.4f})")
                    failures.append(label)
                else:
                    print(f"ok   {label}: {detail}")

    if failures:
        print(f"\n{len(failures)} chaos run(s) failed "
              f"(master seed {args.seed})")
        return 1
    print("\nall chaos runs completed within the recall envelope")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
