"""Section 3.3 greedy search with epsilon."""

import numpy as np
import pytest

from repro.baselines.bruteforce import brute_force_knn_graph, brute_force_neighbors
from repro.core.optimization import optimize_graph
from repro.core.rptree import make_rp_forest
from repro.core.search import KNNGraphSearcher
from repro.errors import SearchError
from repro.eval.recall import recall_at_k


@pytest.fixture(scope="module")
def searchable(request):
    # Overlapping clusters: the exact k-NN graph must be *connected* so
    # greedy search exactness is well-defined (tight separated clusters
    # give a disconnected graph where no graph search can cross).
    from repro.datasets.synthetic import gaussian_mixture
    data = gaussian_mixture(300, 12, n_clusters=6, cluster_std=0.45, seed=7)
    graph = brute_force_knn_graph(data, k=10)
    adj = optimize_graph(graph, pruning_factor=1.5)
    assert adj.connected_fraction() == 1.0
    return data, adj


class TestQueryBasics:
    def test_self_query_finds_self(self, searchable):
        data, adj = searchable
        s = KNNGraphSearcher(adj, data, seed=0)
        res = s.query(data[5], l=5)
        assert res.ids[0] == 5
        assert res.dists[0] == 0.0

    def test_result_sorted(self, searchable):
        data, adj = searchable
        s = KNNGraphSearcher(adj, data, seed=0)
        res = s.query(data[0], l=10)
        assert (np.diff(res.dists) >= 0).all()

    def test_result_size(self, searchable):
        data, adj = searchable
        s = KNNGraphSearcher(adj, data, seed=0)
        assert len(s.query(data[0], l=7).ids) == 7

    def test_l_larger_than_k_supported(self, searchable):
        # Section 3.3: l may exceed the graph's k.
        data, adj = searchable
        s = KNNGraphSearcher(adj, data, seed=0)
        res = s.query(data[0], l=25)
        assert len(res.ids) == 25

    def test_l_capped_at_n(self, searchable):
        data, adj = searchable
        s = KNNGraphSearcher(adj, data, seed=0)
        res = s.query(data[0], l=10_000)
        assert len(res.ids) == len(data)

    def test_external_query_point(self, searchable):
        # The query need not be in the dataset.
        data, adj = searchable
        s = KNNGraphSearcher(adj, data, seed=0)
        q = data[3] + 0.01
        res = s.query(q, l=5)
        assert 3 in res.ids

    def test_visits_fraction_of_graph(self, searchable):
        # The greedy search must touch far fewer than n points.
        data, adj = searchable
        s = KNNGraphSearcher(adj, data, seed=0)
        res = s.query(data[0], l=5)
        assert res.n_visited < len(data) * 0.5

    def test_accepts_raw_knn_graph(self, searchable):
        data, _ = searchable
        graph = brute_force_knn_graph(data, k=8)
        s = KNNGraphSearcher(graph, data, seed=0)
        res = s.query(data[1], l=5)
        assert res.ids[0] == 1

    def test_counts_are_positive(self, searchable):
        data, adj = searchable
        res = KNNGraphSearcher(adj, data, seed=0).query(data[0], l=5)
        assert res.n_distance_evals > 0
        assert res.n_visited >= len(res.ids)


class TestEpsilon:
    def test_epsilon_increases_work(self, searchable):
        data, adj = searchable
        s = KNNGraphSearcher(adj, data, seed=0)
        lo = s.query(data[10], l=10, epsilon=0.0)
        hi = s.query(data[10], l=10, epsilon=0.4)
        assert hi.n_distance_evals >= lo.n_distance_evals

    def test_epsilon_improves_or_preserves_recall(self, searchable):
        data, adj = searchable
        gt_ids, _ = brute_force_neighbors(data, data[:40], k=10)
        def recall(eps):
            s = KNNGraphSearcher(adj, data, seed=0)
            ids, _, _ = s.query_batch(data[:40], l=10, epsilon=eps)
            return recall_at_k(ids, gt_ids)
        assert recall(0.4) >= recall(0.0) - 0.02

    def test_negative_epsilon_rejected(self, searchable):
        data, adj = searchable
        with pytest.raises(SearchError):
            KNNGraphSearcher(adj, data).query(data[0], l=5, epsilon=-0.1)


class TestValidation:
    def test_dim_mismatch(self, searchable):
        data, adj = searchable
        s = KNNGraphSearcher(adj, data)
        with pytest.raises(SearchError):
            s.query(np.zeros(5), l=3)

    def test_bad_l(self, searchable):
        data, adj = searchable
        with pytest.raises(SearchError):
            KNNGraphSearcher(adj, data).query(data[0], l=0)

    def test_graph_data_mismatch(self, searchable):
        data, adj = searchable
        with pytest.raises(SearchError):
            KNNGraphSearcher(adj, data[:10])

    def test_2d_query_rejected(self, searchable):
        data, adj = searchable
        with pytest.raises(SearchError):
            KNNGraphSearcher(adj, data).query(data[:2], l=3)

    def test_unsupported_graph_type(self, searchable):
        data, _ = searchable
        with pytest.raises(SearchError):
            KNNGraphSearcher("not a graph", data)


class TestBatch:
    def test_batch_shapes(self, searchable):
        data, adj = searchable
        s = KNNGraphSearcher(adj, data, seed=0)
        ids, dists, stats = s.query_batch(data[:15], l=8)
        assert ids.shape == (15, 8) and dists.shape == (15, 8)
        assert stats["n_queries"] == 15
        assert stats["mean_distance_evals"] > 0

    def test_batch_recall_high_on_exact_graph(self, searchable):
        data, adj = searchable
        gt_ids, _ = brute_force_neighbors(data, data[:30], k=10)
        s = KNNGraphSearcher(adj, data, seed=0)
        ids, _, _ = s.query_batch(data[:30], l=10, epsilon=0.2)
        assert recall_at_k(ids, gt_ids) > 0.9


class TestFrontierArms:
    """The frontier expansion has two arms chosen from the input, not
    by an option: one rowwise kernel call per expansion for a dense
    2-D array, the per-neighbor scalar loop otherwise."""

    def test_scalar_and_batch_arms_agree_bit_for_bit(self, searchable):
        data, adj = searchable
        batch = KNNGraphSearcher(adj, data, seed=4)
        # A non-array view of the same rows forces the scalar arm.
        scalar = KNNGraphSearcher(adj, list(data), seed=4)
        assert batch._use_batch and not scalar._use_batch
        assert not scalar.clone(seed=9)._use_batch
        for q in data[:40] + 0.01:
            a = batch.query(q, l=12, epsilon=0.2)
            b = scalar.query(q, l=12, epsilon=0.2)
            assert np.array_equal(a.ids, b.ids)
            assert a.dists.tobytes() == b.dists.tobytes()
            assert (a.n_distance_evals, a.n_visited) == (
                b.n_distance_evals, b.n_visited)

    def test_arm_is_not_an_option(self, searchable):
        data, adj = searchable
        with pytest.raises(TypeError, match="batch_exec"):
            KNNGraphSearcher(adj, data, batch_exec=False)


class TestEntryForest:
    def test_forest_entry_points(self, searchable):
        data, adj = searchable
        forest = make_rp_forest(np.asarray(data), n_trees=2, leaf_size=20, seed=0)
        s = KNNGraphSearcher(adj, data, entry_forest=forest, seed=0)
        res = s.query(data[0], l=5)
        assert res.ids[0] == 0

    def test_forest_reduces_work_on_average(self, searchable):
        data, adj = searchable
        forest = make_rp_forest(np.asarray(data), n_trees=2, leaf_size=20, seed=0)
        with_f = KNNGraphSearcher(adj, data, entry_forest=forest, seed=0)
        without = KNNGraphSearcher(adj, data, seed=0)
        evals_f = sum(with_f.query(data[i], l=5).n_distance_evals for i in range(20))
        evals_r = sum(without.query(data[i], l=5).n_distance_evals for i in range(20))
        # RP entry points should not be much worse than random ones.
        assert evals_f <= evals_r * 1.5
