"""Distributed ANN search over a sharded graph."""

import numpy as np
import pytest

from repro import ClusterConfig, brute_force_knn_graph, brute_force_neighbors
from repro.core.dist_search import DistributedKNNGraphSearcher
from repro.core.optimization import optimize_graph
from repro.core.search import KNNGraphSearcher
from repro.datasets.synthetic import gaussian_mixture
from repro.errors import SearchError
from repro.eval.recall import recall_at_k


@pytest.fixture(scope="module")
def setup():
    data = gaussian_mixture(250, 10, n_clusters=5, cluster_std=0.45, seed=61)
    adj = optimize_graph(brute_force_knn_graph(data, k=8), 1.5)
    assert adj.connected_fraction() == 1.0
    return data, adj


@pytest.fixture(scope="module")
def dist_searcher(setup):
    data, adj = setup
    return DistributedKNNGraphSearcher(
        adj, data, cluster=ClusterConfig(nodes=2, procs_per_node=2), seed=0)


class TestCorrectness:
    def test_distances_exact(self, setup, dist_searcher):
        data, _ = setup
        res = dist_searcher.query(data[3], l=5, epsilon=0.2)
        from repro.distances.dense import sqeuclidean
        for vid, d in zip(res.ids, res.dists):
            assert d == pytest.approx(sqeuclidean(data[3], data[int(vid)]))

    def test_results_sorted_distinct(self, setup, dist_searcher):
        data, _ = setup
        res = dist_searcher.query(data[0], l=8, epsilon=0.2)
        assert (np.diff(res.dists) >= 0).all()
        assert len(set(res.ids.tolist())) == len(res.ids)

    def test_self_query(self, setup, dist_searcher):
        data, _ = setup
        res = dist_searcher.query(data[17], l=5, epsilon=0.3)
        assert 17 in res.ids

    def test_recall_comparable_to_shared_memory(self, setup):
        data, adj = setup
        gt_ids, _ = brute_force_neighbors(data, data[:25], k=5)
        shared = KNNGraphSearcher(adj, data, seed=0)
        s_ids, _, _ = shared.query_batch(data[:25], l=5, epsilon=0.3)
        dist = DistributedKNNGraphSearcher(
            adj, data, cluster=ClusterConfig(nodes=2, procs_per_node=2), seed=0)
        d_ids, _, d_stats = dist.query_batch(data[:25], l=5, epsilon=0.3)
        r_shared = recall_at_k(s_ids, gt_ids)
        r_dist = recall_at_k(d_ids, gt_ids)
        assert r_dist > 0.7
        assert r_dist > r_shared - 0.2

    def test_external_query(self, setup, dist_searcher):
        data, _ = setup
        q = data[5] + 0.01
        res = dist_searcher.query(q, l=5, epsilon=0.3)
        assert 5 in res.ids


class TestCommunication:
    def test_messages_instrumented(self, setup):
        data, adj = setup
        s = DistributedKNNGraphSearcher(
            adj, data, cluster=ClusterConfig(nodes=2, procs_per_node=2), seed=1)
        s.query(data[0], l=5, epsilon=0.1)
        stats = s.message_stats
        # expand traffic only for off-rank owners; replies mirror them.
        assert stats.get("expand").count > 0
        assert stats.get("expand_reply").count > 0

    def test_features_never_leave_owner(self, setup):
        """The reply carries ids+distances only, so its per-message size
        must be far below a feature-vector message."""
        data, adj = setup
        s = DistributedKNNGraphSearcher(
            adj, data, cluster=ClusterConfig(nodes=2, procs_per_node=2), seed=2)
        s.query(data[0], l=5, epsilon=0.1)
        reply = s.message_stats.get("expand_reply")
        if reply.count:
            per_msg = reply.bytes / reply.count
            feature_bytes = data.shape[1] * data.dtype.itemsize
            assert per_msg < feature_bytes + 100

    def test_sim_time_advances(self, setup, dist_searcher):
        data, _ = setup
        before = dist_searcher.sim_seconds
        dist_searcher.query(data[1], l=5, epsilon=0.1)
        assert dist_searcher.sim_seconds > before

    def test_visited_bounded(self, setup, dist_searcher):
        data, _ = setup
        res = dist_searcher.query(data[2], l=5, epsilon=0.1)
        assert res.n_visited <= len(data)
        assert res.n_distance_evals > 0


class TestValidation:
    def test_is_sim_only_and_ignores_backend_env(self, setup, monkeypatch):
        """The searcher always runs on the simulated cluster: it takes
        no backend and never reads REPRO_BACKEND."""
        data, adj = setup
        monkeypatch.setenv("REPRO_BACKEND", "mpi")
        s = DistributedKNNGraphSearcher(adj, data, seed=1)
        assert 0 in s.query(data[0], l=5, epsilon=0.3).ids
        with pytest.raises(TypeError):
            DistributedKNNGraphSearcher(adj, data, backend="sim")

    def test_size_mismatch(self, setup):
        data, adj = setup
        with pytest.raises(SearchError):
            DistributedKNNGraphSearcher(adj, data[:10])

    def test_bad_l(self, setup, dist_searcher):
        data, _ = setup
        with pytest.raises(SearchError):
            dist_searcher.query(data[0], l=0)

    def test_bad_epsilon(self, setup, dist_searcher):
        data, _ = setup
        with pytest.raises(SearchError):
            dist_searcher.query(data[0], l=5, epsilon=-1)

    def test_bad_coordinator(self, setup):
        data, adj = setup
        with pytest.raises(SearchError):
            DistributedKNNGraphSearcher(
                adj, data, cluster=ClusterConfig(nodes=1, procs_per_node=2),
                coordinator=5)
