"""Smoke the full pipeline on every Table 1 stand-in.

Build (DNND) -> optimize -> (dense only) search, at tiny sizes: every
dataset's dtype/metric/raggedness must flow through the whole stack,
and the build must find its neighbors under whichever distance kernel
``REPRO_KERNEL`` selects: the recall floor sits below the lowest
measured recall (0.813, kosarak) on either kernel, far above what a
kernel that computes garbage on one dtype reaches (0.021 on bigann's
uint8 once did).
"""

import pytest

from repro import (
    DNND,
    ClusterConfig,
    DNNDConfig,
    KNNGraphSearcher,
    NNDescentConfig,
    graph_recall,
)
from repro.baselines.bruteforce import brute_force_knn_graph
from repro.datasets.ann_benchmarks import PAPER_DATASETS, load_dataset


@pytest.mark.parametrize("name", sorted(PAPER_DATASETS))
def test_pipeline(name):
    data, spec = load_dataset(name, n=150, seed=3)
    cfg = DNNDConfig(nnd=NNDescentConfig(k=5, metric=spec.metric, seed=3))
    dnnd = DNND(data, cfg, cluster=ClusterConfig(nodes=2, procs_per_node=2))
    result = dnnd.build()
    result.graph.validate()
    truth = brute_force_knn_graph(data, k=5, metric=spec.metric,
                                  kernel="rowwise")
    assert graph_recall(result.graph, truth) >= 0.75
    adjacency = dnnd.optimize()
    adjacency.validate()
    searcher = KNNGraphSearcher(adjacency, data, metric=spec.metric, seed=0)
    q = data[0]
    res = searcher.query(q, l=5, epsilon=0.2)
    assert len(res.ids) == 5
    # Self-distance zero for every metric on its own representation.
    assert 0 in res.ids or res.dists[0] >= 0.0
    # Messages were priced (non-zero traffic on a 4-rank cluster).
    assert result.message_stats.total_count() > 0
