"""Distributed vs shared-memory NN-Descent agreement.

The two implementations use different RNG streams so graphs are not
bit-identical, but both must converge to near-exact graphs of the same
quality on the same data — the core correctness claim for the
distributed port.
"""

import pytest

from repro import (
    DNND,
    ClusterConfig,
    DNNDConfig,
    NNDescent,
    NNDescentConfig,
    brute_force_knn_graph,
    graph_recall,
    optimize_graph,
)
from repro.core.optimization import optimize_graph as shared_optimize


@pytest.fixture(scope="module")
def results(small_dense):
    nnd_cfg = NNDescentConfig(k=6, seed=17)
    shared = NNDescent(small_dense, nnd_cfg).build()
    dnnd = DNND(small_dense, DNNDConfig(nnd=nnd_cfg),
                cluster=ClusterConfig(nodes=2, procs_per_node=2))
    dist = dnnd.build()
    truth = brute_force_knn_graph(small_dense, k=6)
    return shared, dist, truth, dnnd


class TestQualityAgreement:
    def test_both_high_recall(self, results):
        shared, dist, truth, _ = results
        r_shared = graph_recall(shared.graph, truth)
        r_dist = graph_recall(dist.graph, truth)
        assert r_shared > 0.93
        assert r_dist > 0.93

    def test_recall_gap_small(self, results):
        shared, dist, truth, _ = results
        gap = abs(graph_recall(shared.graph, truth) - graph_recall(dist.graph, truth))
        assert gap < 0.05

    def test_iteration_counts_similar(self, results):
        shared, dist, _, _ = results
        assert abs(shared.iterations - dist.iterations) <= 3

    def test_edge_overlap_substantial(self, results):
        shared, dist, _, _ = results
        e_shared = shared.graph.edge_set()
        e_dist = dist.graph.edge_set()
        overlap = len(e_shared & e_dist) / len(e_shared)
        assert overlap > 0.85


class TestOptimizeAgreement:
    @pytest.mark.parametrize("backend", ["sim", "process"])
    def test_distributed_optimize_matches_shared_reference(
            self, results, small_dense, backend):
        """The distributed reverse-merge + prune — pruned edge columns
        from every rank host, assembled into one CSR by the driver — must
        produce exactly the same adjacency as the shared-memory per-edge
        reference applied to the same input graph, whoever hosts the
        ranks."""
        _, dist, _, dnnd = results
        if backend == "sim":
            distributed_adj = dnnd.optimize()
        else:
            dnnd = DNND(small_dense,
                        DNNDConfig(nnd=NNDescentConfig(k=6, seed=17),
                                   backend="process", workers=2),
                        cluster=ClusterConfig(nodes=2, procs_per_node=2))
            try:
                dist = dnnd.build()
                distributed_adj = dnnd.optimize()
            finally:
                dnnd.close()
        reference_adj = shared_optimize(dist.graph, pruning_factor=1.5)
        assert distributed_adj.edge_set() == reference_adj.edge_set()
        import numpy as np
        np.testing.assert_array_equal(distributed_adj.indptr, reference_adj.indptr)
        np.testing.assert_array_equal(distributed_adj.indices, reference_adj.indices)
        np.testing.assert_allclose(distributed_adj.dists, reference_adj.dists)

    def test_optimized_degree_cap(self, results):
        _, _, _, dnnd = results
        adj = dnnd._last_result.adjacency
        assert adj is not None
        assert adj.degrees().max() <= int(6 * 1.5)
