"""DNND end-to-end builds on the simulated cluster."""

import numpy as np
import pytest

from repro import (
    DNND,
    ClusterConfig,
    CommOptConfig,
    DNNDConfig,
    NNDescentConfig,
    brute_force_knn_graph,
    graph_recall,
)
from repro.errors import ConfigError, RuntimeStateError
from repro.runtime.partition import BlockPartitioner


def build(data, k=6, nodes=2, ppn=2, seed=13, **cfg_kw):
    cfg = DNNDConfig(nnd=NNDescentConfig(k=k, seed=seed), **cfg_kw)
    dnnd = DNND(data, cfg, cluster=ClusterConfig(nodes=nodes, procs_per_node=ppn))
    return dnnd, dnnd.build()


class TestBuildQuality:
    def test_high_recall(self, small_dense):
        _, res = build(small_dense)
        truth = brute_force_knn_graph(small_dense, k=6)
        assert graph_recall(res.graph, truth) > 0.9

    def test_graph_valid(self, small_dense):
        _, res = build(small_dense)
        res.graph.validate()

    def test_converges(self, small_dense):
        _, res = build(small_dense)
        assert res.converged

    def test_all_rows_full(self, small_dense):
        _, res = build(small_dense)
        from repro.core.graph import EMPTY
        assert (res.graph.ids != EMPTY).all()

    def test_graph_identical_across_rank_counts(self, small_dense):
        """Section 5.3.3: "DNND was able to produce the same quality
        graphs regardless of the number of compute nodes used."

        Every draw is a hash of what it is drawn for, so the candidates
        are the same on every shape.  Under the *order-invariant*
        envelope (the unoptimized pattern: no check reads row state at
        delivery time) that makes the graph bit-identical, for every
        seed.  Under the default pattern the Section 4.3.2 redundancy
        check reads rows as deliveries find them, so the graph follows
        the schedule: same quality — recall within 0.005, iterations
        within one — not the same bits."""
        shapes = ((1, 2), (2, 2), (4, 2))
        for seed in range(13, 18):
            ids = [build(small_dense, nodes=nodes, ppn=ppn, seed=seed,
                         comm_opts=CommOptConfig.unoptimized())[1].graph.ids
                   for nodes, ppn in shapes]
            for other in ids[1:]:
                np.testing.assert_array_equal(ids[0], other)
        truth = brute_force_knn_graph(small_dense, k=6)
        results = [build(small_dense, nodes=nodes, ppn=ppn)[1]
                   for nodes, ppn in shapes]
        recalls = [graph_recall(res.graph, truth) for res in results]
        assert min(recalls) > 0.9
        assert max(recalls) - min(recalls) <= 0.005
        iterations = [res.iterations for res in results]
        assert max(iterations) - min(iterations) <= 1

    def test_single_rank_cluster(self, tiny_dense):
        _, res = build(tiny_dense, k=4, nodes=1, ppn=1)
        res.graph.validate()
        # A single rank sends no remote messages.
        assert res.message_stats.total_count() == 0

    def test_cosine_metric(self, small_dense):
        cfg = DNNDConfig(nnd=NNDescentConfig(k=6, metric="cosine", seed=13))
        dnnd = DNND(small_dense, cfg, cluster=ClusterConfig(nodes=2, procs_per_node=2))
        res = dnnd.build()
        truth = brute_force_knn_graph(small_dense, k=6, metric="cosine")
        assert graph_recall(res.graph, truth) > 0.85

    def test_jaccard_sparse(self, sparse_sets):
        cfg = DNNDConfig(nnd=NNDescentConfig(k=5, metric="jaccard", seed=13))
        dnnd = DNND(sparse_sets, cfg, cluster=ClusterConfig(nodes=2, procs_per_node=2))
        res = dnnd.build()
        truth = brute_force_knn_graph(sparse_sets, k=5, metric="jaccard")
        assert graph_recall(res.graph, truth) > 0.7

    def test_uint8_features(self):
        from repro.datasets.ann_benchmarks import load_dataset
        data, _ = load_dataset("bigann", n=200, seed=0)
        cfg = DNNDConfig(nnd=NNDescentConfig(k=5, seed=0))
        dnnd = DNND(data, cfg, cluster=ClusterConfig(nodes=2, procs_per_node=2))
        res = dnnd.build()
        res.graph.validate()
        # uint8 feature payloads: 128 bytes each, not 512.
        t2 = res.message_stats.get("type2+")
        if t2.count:
            assert t2.bytes / t2.count < 200


class TestDeterminism:
    def test_same_seed_same_graph(self, tiny_dense):
        _, a = build(tiny_dense, k=4, seed=7)
        _, b = build(tiny_dense, k=4, seed=7)
        np.testing.assert_array_equal(a.graph.ids, b.graph.ids)
        assert a.message_stats.snapshot() == b.message_stats.snapshot()

    def test_different_seed_different_graph(self, tiny_dense):
        _, a = build(tiny_dense, k=4, seed=1)
        _, b = build(tiny_dense, k=4, seed=2)
        assert not np.array_equal(a.graph.ids, b.graph.ids)

    def test_sim_time_deterministic(self, tiny_dense):
        _, a = build(tiny_dense, k=4, seed=7)
        _, b = build(tiny_dense, k=4, seed=7)
        assert a.sim_seconds == pytest.approx(b.sim_seconds)


class TestResultMetadata:
    def test_update_counts_per_iteration(self, small_dense):
        _, res = build(small_dense)
        assert len(res.update_counts) == res.iterations
        assert res.update_counts[0] > res.update_counts[-1]

    def test_phase_stats_present(self, small_dense):
        _, res = build(small_dense)
        for phase in ("init", "reverse", "neighbor_check"):
            assert phase in res.phase_stats

    def test_phase_seconds_present(self, small_dense):
        _, res = build(small_dense)
        assert res.phase_seconds
        assert res.sim_seconds > 0

    def test_distance_evals_positive(self, small_dense):
        _, res = build(small_dense)
        n = len(small_dense)
        assert res.distance_evals > n  # at least the init comparisons

    def test_per_iteration_messages(self, small_dense):
        _, res = build(small_dense)
        assert len(res.per_iteration_messages) == res.iterations
        first = res.per_iteration_messages[0]
        assert first.get("type1", (0, 0))[0] > 0

    def test_world_size_recorded(self, small_dense):
        _, res = build(small_dense, nodes=2, ppn=2)
        assert res.world_size == 4


class TestLifecycleErrors:
    def test_double_build_rejected(self, tiny_dense):
        dnnd, _ = build(tiny_dense, k=4)
        with pytest.raises(RuntimeStateError):
            dnnd.build()

    def test_optimize_before_build_rejected(self, tiny_dense):
        cfg = DNNDConfig(nnd=NNDescentConfig(k=4))
        dnnd = DNND(tiny_dense, cfg, cluster=ClusterConfig(nodes=1, procs_per_node=2))
        with pytest.raises(RuntimeStateError):
            dnnd.optimize()

    def test_k_too_large(self, tiny_dense):
        cfg = DNNDConfig(nnd=NNDescentConfig(k=len(tiny_dense)))
        with pytest.raises(ConfigError):
            DNND(tiny_dense, cfg)


class TestPartitionerOverride:
    def test_block_partitioner(self, small_dense):
        cfg = DNNDConfig(nnd=NNDescentConfig(k=6, seed=13))
        part = BlockPartitioner(len(small_dense), 4)
        dnnd = DNND(small_dense, cfg,
                    cluster=ClusterConfig(nodes=2, procs_per_node=2),
                    partitioner=part)
        res = dnnd.build()
        truth = brute_force_knn_graph(small_dense, k=6)
        assert graph_recall(res.graph, truth) > 0.9
