"""Thread-parallel batch query engine."""

import numpy as np
import pytest

from repro.baselines.bruteforce import brute_force_knn_graph, brute_force_neighbors
from repro.core.optimization import optimize_graph
from repro.core.search import KNNGraphSearcher
from repro.datasets.synthetic import gaussian_mixture
from repro.errors import ConfigError
from repro.eval.parallel_query import ParallelQueryEngine
from repro.eval.recall import recall_at_k
from repro.utils.rng import derive_seed


@pytest.fixture(scope="module")
def setup():
    data = gaussian_mixture(300, 12, n_clusters=5, cluster_std=0.45, seed=41)
    adj = optimize_graph(brute_force_knn_graph(data, k=10), 1.5)
    searcher = KNNGraphSearcher(adj, data, seed=0)
    return data, searcher


class TestParallelEngine:
    def test_results_shape(self, setup):
        data, searcher = setup
        engine = ParallelQueryEngine(searcher, n_threads=4)
        ids, dists, stats = engine.query_batch(data[:50], l=8, epsilon=0.1)
        assert ids.shape == (50, 8)
        assert stats["n_threads"] == 4
        assert stats["mean_distance_evals"] > 0

    def test_recall_matches_serial(self, setup):
        data, searcher = setup
        gt_ids, _ = brute_force_neighbors(data, data[:60], k=8)
        serial_ids, _, _ = searcher.query_batch(data[:60], l=8, epsilon=0.2)
        engine = ParallelQueryEngine(searcher, n_threads=4)
        par_ids, _, _ = engine.query_batch(data[:60], l=8, epsilon=0.2)
        r_serial = recall_at_k(serial_ids, gt_ids)
        r_par = recall_at_k(par_ids, gt_ids)
        # Different entry-point RNG streams, same quality band.
        assert abs(r_serial - r_par) < 0.1

    def test_single_thread_path(self, setup):
        data, searcher = setup
        engine = ParallelQueryEngine(searcher, n_threads=1)
        ids, _, stats = engine.query_batch(data[:10], l=5)
        assert stats["n_threads"] == 1
        assert (ids[:, 0] >= 0).all()

    def test_deterministic_per_chunk_layout(self, setup):
        # Same thread count -> same spans and per-span seeds -> same
        # results.
        data, searcher = setup
        engine = ParallelQueryEngine(searcher, n_threads=3)
        a, _, _ = engine.query_batch(data[:40], l=5, epsilon=0.1)
        b, _, _ = engine.query_batch(data[:40], l=5, epsilon=0.1)
        np.testing.assert_array_equal(a, b)

    def test_threads_do_not_change_answers(self, setup):
        """Span ``i`` is ``searcher.clone(seed=derive_seed(searcher.seed,
        i)).query_batch`` over the ``i``-th of ``n_threads`` contiguous
        near-equal spans — one lock-step block a thread, whether the
        threads run it or one loop does."""
        data, searcher = setup
        queries = data[:70] + np.float32(0.01)
        for n_threads in (1, 4):
            engine = ParallelQueryEngine(searcher, n_threads=n_threads)
            ids, dists, stats = engine.query_batch(queries, l=6,
                                                   epsilon=0.2)
            spans = [searcher.clone(
                seed=derive_seed(searcher.seed, i)).query_batch(
                queries[span], l=6, epsilon=0.2) for i, span in
                enumerate(np.array_split(np.arange(70), n_threads))]
            want_ids = np.concatenate([s[0] for s in spans])
            want_dists = np.concatenate([s[1] for s in spans])
            evals = sum(s[2]["mean_distance_evals"] * s[2]["n_queries"]
                        for s in spans)
            assert np.array_equal(ids, want_ids)
            assert dists.tobytes() == want_dists.tobytes()
            assert stats["mean_distance_evals"] == pytest.approx(evals / 70)
            assert stats["mean_visited"] == stats["mean_distance_evals"]

    def test_searcher_seed_picks_the_entry_points(self, setup):
        """The wrapped searcher's seed reaches every span: seeds 1 and 2
        start from other entry points, the same seed twice repeats."""
        data, searcher = setup
        queries = data[:60] + np.float32(0.01)

        def run(seed):
            engine = ParallelQueryEngine(searcher.clone(seed=seed),
                                         n_threads=3)
            return engine.query_batch(queries, l=6, epsilon=0.0)

        one, again, two = run(1), run(1), run(2)
        assert np.array_equal(one[0], again[0])
        assert one[1].tobytes() == again[1].tobytes()
        assert one[2] == again[2]
        assert (not np.array_equal(one[0], two[0])
                or one[2]["mean_distance_evals"]
                != two[2]["mean_distance_evals"])

    def test_one_thread_makes_one_query_batch_call(self, setup,
                                                   monkeypatch):
        data, searcher = setup
        calls = []
        query_batch = KNNGraphSearcher.query_batch

        def counted(self, queries, **kw):
            calls.append(len(queries))
            return query_batch(self, queries, **kw)

        monkeypatch.setattr(KNNGraphSearcher, "query_batch", counted)
        ParallelQueryEngine(searcher, n_threads=1).query_batch(data[:70])
        assert calls == [70]
        calls.clear()
        ParallelQueryEngine(searcher, n_threads=3).query_batch(data[:70])
        assert sorted(calls) == [23, 23, 24]

    def test_empty_batch(self, setup):
        data, searcher = setup
        engine = ParallelQueryEngine(searcher, n_threads=2)
        ids, dists, stats = engine.query_batch(data[:0], l=5)
        assert ids.shape == (0, 5)
        assert stats["mean_distance_evals"] == 0.0

    def test_worker_exception_propagates(self, setup):
        data, searcher = setup
        engine = ParallelQueryEngine(searcher, n_threads=2)
        bad = np.zeros((10, 5), dtype=np.float32)  # wrong dim
        with pytest.raises(Exception):
            engine.query_batch(bad, l=5)

    def test_invalid_config(self, setup):
        _, searcher = setup
        with pytest.raises(ConfigError):
            ParallelQueryEngine(searcher, n_threads=0)


class TestSearcherClone:
    def test_clone_shares_graph(self, setup):
        _, searcher = setup
        clone = searcher.clone(seed=7)
        assert clone.graph is searcher.graph
        assert clone.data is searcher.data
        assert clone.metric.name == searcher.metric.name

    def test_clone_rng_independent(self, setup):
        data, searcher = setup
        clone = searcher.clone(seed=7)
        a = clone._rng.random(4)
        b = searcher._rng.random(4)
        assert not np.array_equal(a, b)
