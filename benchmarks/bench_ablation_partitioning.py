"""Ablation D — vertex partitioning: hash vs block vs rptree, plus the
post-build repartition pass.

Section 4: DNND distributes vertices "based on the hash values of the
vertex IDs".  This ablation compares that choice against contiguous
block partitioning on a *cluster-sorted* dataset (ids grouped by
cluster, the common layout of dumped corpora) and against the
locality-aware rp-tree placement, then re-homes the hash build with
``DNND.repartition()``.  The measured trade-off:

- block partitioning exploits id locality: cluster neighbors are
  co-located, so a large share of neighbor-check traffic never leaves
  the rank (lower off-node fraction, slightly lower modeled time),
- rptree partitioning gets the same locality *without* depending on id
  order — leaves of a random-projection tree hold likely neighbors
  whatever the ids look like,
- hash partitioning forgoes locality but is *distribution
  independent*: its balance never depends on how ids were assigned,
  and vertices added later (the Metall/Section 7 dynamic scenario)
  land uniformly without repartitioning — the property the paper's
  design optimizes for,
- the repartition pass recovers locality after the fact: one
  capacity-bounded BFS over the built graph, rows re-homed in place.

All variants must construct graphs of identical quality; the measured
difference is purely where the traffic flows.  Per-variant rows (edge
cut, local/remote deliveries, wall-clock, recall) are persisted to
``BENCH_partitioning.json`` at the repository root.
"""

import json
import os
import time

import numpy as np

from _common import report, scaled
from repro import (
    DNND,
    ClusterConfig,
    DNNDConfig,
    NNDescentConfig,
    brute_force_knn_graph,
    graph_recall,
)
from repro.datasets.synthetic import gaussian_mixture
from repro.eval.tables import ascii_table
from repro.runtime.partition import make_partitioner

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
OUT_PATH = os.path.join(REPO_ROOT, "BENCH_partitioning.json")

_cache = {}


def cluster_sorted_dataset(n: int, seed: int) -> np.ndarray:
    """Clustered data with ids sorted so cluster members are adjacent."""
    data = gaussian_mixture(n, 24, n_clusters=8, cluster_std=0.15, seed=seed)
    order = np.lexsort((data[:, 2], data[:, 1], data[:, 0]))
    return np.ascontiguousarray(data[order])


def _measure(label, dnnd, result, truth, wall_seconds, repartition=False):
    if repartition:
        t0 = time.perf_counter()
        graph = dnnd.repartition()
        wall_seconds += time.perf_counter() - t0
    else:
        graph = result.graph
    snap = dnnd.metrics.snapshot()
    # Distance evaluations per rank, as the barrier log tallies them.
    tallies = dnnd.world.log.live().ranks
    per_rank = [tallies.get(r, {}).get("distance.evals", 0)
                for r in range(dnnd.world.world_size)]
    mean = np.mean(per_rank)
    return {
        "label": label,
        "sim_seconds": result.sim_seconds,
        "wall_seconds": wall_seconds,
        "eval_imbalance": float(max(per_rank) / mean) if mean else 1.0,
        "partition_imbalance": snap["gauges"]["partition.imbalance"],
        "edge_cut": snap["gauges"]["partition.edge_cut"],
        "local_deliveries": snap["counters"]["comm.local_deliveries"],
        "remote_deliveries": snap["counters"]["comm.remote_deliveries"],
        "remote_msgs": result.message_stats.total_count(),
        "remote_bytes": result.message_stats.total_bytes(),
        "recall": graph_recall(graph, truth),
    }


def run_all():
    if _cache:
        return _cache
    n = scaled(800)
    data = cluster_sorted_dataset(n, seed=12)
    truth = brute_force_knn_graph(data, k=8)
    rows = []
    for label, name in (("hash (paper)", "hash"), ("block", "block"),
                        ("rptree", "rptree")):
        cfg = DNNDConfig(nnd=NNDescentConfig(k=8, seed=12), batch_size=1 << 13)
        cluster = ClusterConfig(nodes=8, procs_per_node=1)
        part = make_partitioner(name, n, cluster.world_size, data=data,
                                seed=12)
        dnnd = DNND(data, cfg, cluster=cluster, partitioner=part)
        t0 = time.perf_counter()
        res = dnnd.build()
        wall = time.perf_counter() - t0
        rows.append(_measure(label, dnnd, res, truth, wall))
        if name == "hash":
            # Re-home the finished hash build: same graph, new owners.
            rows.append(_measure("hash + repartition", dnnd, res, truth,
                                 wall, repartition=True))
    _cache["rows"] = rows
    with open(OUT_PATH, "w") as fh:
        json.dump({"n": n, "k": 8, "world_size": 8, "rows": rows}, fh,
                  indent=2, sort_keys=True)
        fh.write("\n")
    return _cache


def _row(out, label):
    return next(r for r in out["rows"] if r["label"] == label)


def test_block_exploits_sorted_locality(benchmark):
    """On cluster-sorted ids, block keeps more traffic on-rank — the
    locality hash partitioning deliberately gives up."""
    out = benchmark.pedantic(run_all, rounds=1, iterations=1)
    assert (_row(out, "block")["remote_msgs"]
            < _row(out, "hash (paper)")["remote_msgs"])


def test_rptree_cuts_remote_traffic_and_edge_cut(benchmark):
    """The locality partitioner's contract on clustered data: fewer
    remote deliveries and a lower edge cut than hashing."""
    out = benchmark.pedantic(run_all, rounds=1, iterations=1)
    hash_row, rp_row = _row(out, "hash (paper)"), _row(out, "rptree")
    assert rp_row["remote_deliveries"] < hash_row["remote_deliveries"]
    assert rp_row["edge_cut"] < hash_row["edge_cut"]
    assert rp_row["local_deliveries"] > hash_row["local_deliveries"]


def test_repartition_reduces_edge_cut(benchmark):
    """Re-homing the finished hash build must beat every static
    placement on edge cut — it sees the actual graph."""
    out = benchmark.pedantic(run_all, rounds=1, iterations=1)
    re_row = _row(out, "hash + repartition")
    assert re_row["edge_cut"] < _row(out, "hash (paper)")["edge_cut"]
    assert re_row["edge_cut"] < _row(out, "rptree")["edge_cut"]


def test_quality_independent_of_partitioning(benchmark):
    out = benchmark.pedantic(run_all, rounds=1, iterations=1)
    recalls = {r["label"]: r["recall"] for r in out["rows"]}
    assert min(recalls.values()) > 0.9
    ref = recalls["hash (paper)"]
    for label, recall in recalls.items():
        assert abs(recall - ref) <= 0.005, (label, recall, ref)


def test_hash_balance_is_distribution_independent(benchmark):
    """The reason the paper hashes: balance must not depend on the id
    layout.  Hash's compute imbalance on sorted data stays within a
    modest bound of block's (whose balance here is an artifact of the
    synthetic layout, not a guarantee)."""
    out = benchmark.pedantic(run_all, rounds=1, iterations=1)
    assert _row(out, "hash (paper)")["eval_imbalance"] < 1.3


def test_bench_record_written(benchmark):
    benchmark.pedantic(run_all, rounds=1, iterations=1)
    with open(OUT_PATH) as fh:
        record = json.load(fh)
    assert {r["label"] for r in record["rows"]} == {
        "hash (paper)", "block", "rptree", "hash + repartition"}


def test_print_partitioning(benchmark):
    out = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [[r["label"], f"{r['sim_seconds']:.5f}",
             f"{r['wall_seconds']:.2f}", f"{r['eval_imbalance']:.2f}",
             f"{r['edge_cut']:.4f}", f"{r['local_deliveries']:,}",
             f"{r['remote_deliveries']:,}", round(r["recall"], 4)]
            for r in out["rows"]]
    report("ablation_partitioning", ascii_table(
        ["partitioner", "sim seconds", "wall seconds",
         "compute imbalance", "edge cut", "local deliveries",
         "remote deliveries", "recall"],
        rows,
        title=("Ablation: vertex partitioning on cluster-sorted ids — "
               "locality placement (block/rptree/repartition) vs the "
               "paper's distribution-independent hash (Section 4)"),
    ))
