"""The measured pipeline: inputs from a seed, one pass of build -> finish
-> query through the program's public API, and the checks on its output.

Imported by ``run.py`` only after the BLAS thread pins are in the
environment, because importing numpy reads them.  Everything the
untraced path touches is a name in ``repro.__all__``.
"""

from __future__ import annotations

import gc
import os
import platform
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import repro

from workloads import Workload

K = L = 10
CLUSTER = (4, 2)
CHUNK = 100
"""Queries per timed slice.  Slice i is identical work in every pass, so
the minimum over passes of each slice removes bursts shorter than a
stage, which a whole-stage minimum cannot."""
WARMUP_N = 512

clock = time.perf_counter


@dataclass
class Inputs:
    train: np.ndarray
    queries: np.ndarray
    gt_ids: np.ndarray
    exact: object
    """Exact k-NN graph over all of ``train`` (``repro.KNNGraph``)."""
    metric: str
    generate_s: float = 0.0
    ground_truth_s: float = 0.0


@dataclass
class PassResult:
    build_s: float = 0.0
    build_slices: list = field(default_factory=list)
    """``build_s`` cut at the program's own phase spans (plus what is
    left outside them): the same work, slice for slice, in every pass."""
    finish_s: float = 0.0
    chunk_s: list = field(default_factory=list)
    result: object = None
    """``repro.DNNDResult`` of the build."""
    searcher: object = None
    """Stays usable after the store is removed: the dataset is a memory
    map, which keeps the unlinked file alive."""
    found_ids: np.ndarray | None = None
    evals_per_query: float = 0.0
    visited_per_query: float = 0.0
    round_trip_ok: bool = False
    edges: int = 0
    max_degree: int = 0
    store_bytes: int = 0
    errors: list = field(default_factory=list)
    """Typed program errors raised by an operation (each a failed op)."""
    graph_recall: float = 0.0
    query_recall: float = 0.0

    @property
    def query_s(self) -> float:
        return sum(self.chunk_s)


def make_inputs(wl: Workload, seed: int) -> Inputs:
    """Train/query split with exact answers for both; same seed, same arrays."""
    t0 = clock()
    train, queries, gt_ids, spec = repro.make_benchmark_dataset(
        wl.dataset, wl.n, wl.nq, k_gt=L, seed=seed)
    t1 = clock()
    exact = repro.brute_force_knn_graph(train, K, metric=spec.metric)
    t2 = clock()
    return Inputs(train, queries, gt_ids, exact, spec.metric,
                  generate_s=t1 - t0, ground_truth_s=t2 - t1)


def build_config(wl: Workload, metric: str, seed: int):
    return repro.DNNDConfig(
        nnd=repro.NNDescentConfig(k=K, metric=metric, seed=seed,
                                  max_iters=wl.iterations, delta=0.0),
        backend=wl.backend, kernel=wl.kernel,
        workers=min(2, os.cpu_count() or 1) if wl.backend == "process" else 0)


def run_pass(wl: Workload, train, queries, metric: str, seed: int,
             store: Path, stage=lambda name: None) -> PassResult:
    """One pass on fresh objects and a fresh store at ``store`` (removed
    afterwards).  ``stage`` is called, outside the timed regions, when
    the build, finish and query stages begin and when the pass is idle
    again."""
    out = PassResult()
    try:
        # build: raw vectors -> persisted k-NN graph + dataset
        gc.collect()
        stage("build")
        t0 = clock()
        dnnd = repro.DNND(train, build_config(wl, metric, seed),
                          cluster=repro.ClusterConfig(*CLUSTER))
        try:
            out.result = dnnd.build(store_path=store)
        except repro.ReproError as exc:
            out.errors.append(f"build raised {exc!r}")
        finally:
            dnnd.close()
        out.build_s = clock() - t0
        if out.errors:
            return out
        phases = [s["end"] - s["start"]
                  for s in out.result.metrics.snapshot()["spans"]
                  if s["cat"] == "phase"]
        rest = out.build_s - sum(phases)
        out.build_slices = phases + [rest] if rest >= 0 else [out.build_s]

        # finish: optimise in the store, reopen it read-only, stand up a searcher
        gc.collect()
        stage("finish")
        t0 = clock()
        repro.optimize_from_store(store)
        with repro.MetallStore.open_read_only(store) as opened:
            adjacency = repro.AdjacencyGraph.from_arrays(opened["optimized_graph"])
            data = opened["dataset"]
        forest = (repro.make_rp_forest(data, seed=seed)
                  if wl.forest_entry else None)
        searcher = repro.KNNGraphSearcher(adjacency, data, metric=metric,
                                          entry_forest=forest, kernel=wl.kernel)
        out.finish_s = clock() - t0
        out.searcher = searcher
        out.round_trip_ok = bool(np.array_equal(data, train))
        out.edges = int(adjacency.n_edges)
        out.max_degree = int(adjacency.degrees().max())
        out.store_bytes = sum(f.stat().st_size for f in Path(store).iterdir())

        # query: closed loop, one client, fixed slices of CHUNK queries
        gc.collect()
        stage("query")
        out.found_ids = np.full((len(queries), L), -1, dtype=np.int64)
        evals = visited = 0.0
        for lo in range(0, len(queries), CHUNK):
            chunk = queries[lo:lo + CHUNK]
            t0 = clock()
            try:
                ids, _, stats = searcher.query_batch(chunk, l=L,
                                                     epsilon=wl.epsilon)
            except repro.ReproError as exc:
                out.errors.append(f"queries {lo}-{lo + len(chunk)} raised {exc!r}")
                ids, stats = out.found_ids[lo:lo + len(chunk)], {}
            out.chunk_s.append(clock() - t0)
            out.found_ids[lo:lo + len(chunk)] = ids
            evals += stats.get("mean_distance_evals", 0.0) * len(chunk)
            visited += stats.get("mean_visited", 0.0) * len(chunk)
        stage("idle")
        out.evals_per_query = evals / len(queries)
        out.visited_per_query = visited / len(queries)
        return out
    finally:
        shutil.rmtree(store, ignore_errors=True)


def warm_up(wl: Workload, inputs: Inputs, seed: int, store: Path) -> PassResult:
    """One small full pass on the workload's backend and kernel: BLAS
    initialisation, norm caches, worker-spawn machinery."""
    n = min(WARMUP_N, len(inputs.train))
    small = replace(wl, n=n, nq=min(CHUNK, len(inputs.queries)))
    return run_pass(small, inputs.train[:n], inputs.queries[:small.nq],
                    inputs.metric, seed, store)


def check_pass(wl: Workload, inputs: Inputs, p: PassResult,
               first: PassResult | None) -> list:
    """Fill in the pass's recalls and return its failed operations, one
    entry each.  ``first`` is pass 1, which a sim pass must reproduce."""
    failures = list(p.errors)
    if p.result is None:
        return failures
    graph = p.result.graph
    p.graph_recall = repro.graph_recall(graph, inputs.exact)
    if p.graph_recall < wl.graph_floor:
        failures.append(f"graph recall {p.graph_recall:.4f} under the floor "
                        f"{wl.graph_floor}")
    if not p.round_trip_ok:
        failures.append("dataset read back from the store differs from the input")
    if wl.backend == "sim" and first is not None and first.result is not None:
        if not (np.array_equal(graph.ids, first.result.graph.ids)
                and p.result.distance_evals == first.result.distance_evals):
            failures.append("sim pass is not bit-identical to pass 1")
    valid = ((p.found_ids >= 0) & (p.found_ids < len(inputs.train))).all(axis=1)
    failures += [f"query {i} returned fewer than {L} valid ids"
                 for i in np.flatnonzero(~valid)]
    p.query_recall = repro.recall_at_k(p.found_ids, inputs.gt_ids)
    if p.query_recall < wl.query_floor:
        failures.append(f"recall@{L} {p.query_recall:.4f} under the floor "
                        f"{wl.query_floor}")
    return failures


def calibrate(samples: int = 3) -> list:
    """Milliseconds for each of ``samples`` back-to-back runs of a fixed
    interpreter + numpy loop (``run.CALIBRATION_REF_MS`` each on the
    sizing host when it is quiet).  Taken around every build and query stage:
    the loop does not touch the program, so what moves it is the host."""
    a = np.linspace(0.0, 1.0, 96 * 96).reshape(96, 96)
    out = []
    for _ in range(samples):
        t0 = clock()
        acc = 0
        for i in range(1000):
            acc += len(str(i * i)) + int((a @ a)[0, 0] > 0)
            for j in range(60):
                acc ^= j
        out.append((clock() - t0) * 1e3)
    return out


def host_record() -> dict:
    """What the numbers were measured on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "repro": repro.__version__,
        "thread_pins": {k: v for k, v in os.environ.items()
                        if k.endswith("_NUM_THREADS")},
        "loadavg": os.getloadavg(),
    }
