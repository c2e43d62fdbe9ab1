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

    ARM_CASES = [
        ("sqeuclidean", np.float64),
        # float32 under a dot-product metric: the arm used to hand the
        # kernel a stride-0 broadcast of q, whose float64 copy came out
        # Fortran-ordered and reduced 1 ulp away from the scalar metric.
        ("cosine", np.float32),
        ("inner_product", np.float32),
    ]

    def test_scalar_and_batch_arms_agree_bit_for_bit(self, searchable):
        # One test over ARM_CASES rather than a parametrized one: the
        # suite's id for it stays what it was.
        for metric, dtype in self.ARM_CASES:
            self._check_arms_agree(*searchable, metric, dtype)

    def _check_arms_agree(self, data, adj, metric, dtype):
        data = data.astype(dtype)
        # Bit-exactness is the rowwise kernel's contract (the blocked
        # one is recall-gated), so pin it against REPRO_KERNEL.
        batch = KNNGraphSearcher(adj, data, metric=metric, seed=4,
                                 kernel="rowwise")
        # A non-array view of the same rows forces the scalar arm.
        scalar = KNNGraphSearcher(adj, list(data), metric=metric, seed=4,
                                  kernel="rowwise")
        assert batch._use_batch and not scalar._use_batch
        assert not scalar.clone(seed=9)._use_batch
        for q in data[:40] + dtype(0.01):
            a = batch.query(q, l=12, epsilon=0.2)
            b = scalar.query(q, l=12, epsilon=0.2)
            assert np.array_equal(a.ids, b.ids), (metric, dtype)
            assert a.dists.tobytes() == b.dists.tobytes(), (metric, dtype)
            assert (a.n_distance_evals, a.n_visited) == (
                b.n_distance_evals, b.n_visited)
            radius = abs(float(a.dists[5]))
            ra = batch.query_radius(q, radius=radius)
            rb = scalar.query_radius(q, radius=radius)
            assert np.array_equal(ra.ids, rb.ids), (metric, dtype)
            assert ra.dists.tobytes() == rb.dists.tobytes(), (metric, dtype)

    def test_arm_is_not_an_option(self, searchable):
        data, adj = searchable
        with pytest.raises(TypeError, match="batch_exec"):
            KNNGraphSearcher(adj, data, batch_exec=False)


def _per_query(searcher, queries, l, epsilon):
    """The oracle: ``query`` one at a time, in ``query_batch``'s layout."""
    ids = np.full((len(queries), l), -1, dtype=np.int64)
    dists = np.full((len(queries), l), np.inf)
    evals, visited = [], []
    for i, q in enumerate(queries):
        res = searcher.query(q, l=l, epsilon=epsilon)
        ids[i, :len(res.ids)] = res.ids
        dists[i, :len(res.ids)] = res.dists
        evals.append(res.n_distance_evals)
        visited.append(res.n_visited)
    return ids, dists, evals, visited


def assert_batch_is_per_query(make_searcher, queries, l, epsilon):
    """``query_batch(Q)`` on one searcher and ``query`` per row on a
    same-seed one: equal ids, distance bytes and work counters."""
    ids, dists, stats = make_searcher().query_batch(queries, l=l,
                                                    epsilon=epsilon)
    want_ids, want_dists, evals, visited = _per_query(
        make_searcher(), queries, l, epsilon)
    assert np.array_equal(ids, want_ids)
    assert dists.tobytes() == want_dists.tobytes()
    assert stats["n_queries"] == len(queries)
    assert stats["mean_distance_evals"] == sum(evals) / len(queries)
    assert stats["mean_visited"] == sum(visited) / len(queries)
    return ids, dists


def assert_rows_well_formed(ids, dists, n):
    """Distinct ids, ascending by ``(dist, id)``, ``-1``/``inf`` padded."""
    for row_i, row_d in zip(ids, dists):
        found = int((row_i >= 0).sum())
        assert (row_i[found:] == -1).all() and np.isinf(row_d[found:]).all()
        assert (row_i[:found] < n).all()
        assert len(set(row_i[:found].tolist())) == found
        pairs = list(zip(row_d[:found].tolist(), row_i[:found].tolist()))
        assert pairs == sorted(pairs)


DENSE_METRICS = ["sqeuclidean", "euclidean", "cosine", "inner_product",
                 "manhattan", "chebyshev", "canberra"]


class TestLockStep:
    """``query_batch`` on a dense array walks its queries in lock step;
    ``query`` is the oracle it must reproduce byte for byte — under the
    ``rowwise`` kernel, which the identity tests pin (CI also runs this
    file with ``REPRO_KERNEL=blocked``)."""

    @pytest.fixture(scope="class")
    def small(self):
        from repro.datasets.synthetic import gaussian_mixture
        data = gaussian_mixture(160, 9, n_clusters=4, cluster_std=0.5, seed=3)
        graph = brute_force_knn_graph(data, k=8)
        queries = gaussian_mixture(24, 9, n_clusters=4, cluster_std=0.5,
                                   seed=4)
        return data, graph, optimize_graph(graph, pruning_factor=1.5), queries

    @pytest.mark.parametrize("epsilon", [0.0, 0.2])
    @pytest.mark.parametrize("l", [1, 8, 20, 500])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("metric", DENSE_METRICS)
    def test_identical_to_per_query(self, small, metric, dtype, l, epsilon):
        data, _, adj, queries = small
        data, queries = data.astype(dtype), queries.astype(dtype)
        ids, dists = assert_batch_is_per_query(
            lambda: KNNGraphSearcher(adj, data, metric=metric, seed=11,
                                     kernel="rowwise"),
            queries, l, epsilon)
        assert_rows_well_formed(ids, dists, len(data))
        assert (ids[:, :min(l, len(data))] >= 0).all()

    def test_hamming_on_integer_codes(self, small):
        data, _, adj, queries = small
        codes = (data > 0.5).astype(np.uint8)
        assert_batch_is_per_query(
            lambda: KNNGraphSearcher(adj, codes, metric="hamming", seed=2,
                                     kernel="rowwise"),
            (queries > 0.5).astype(np.uint8), 6, 0.2)

    @pytest.mark.parametrize("forest_entries", [False, True])
    @pytest.mark.parametrize("kind", ["adjacency", "knn", "store"])
    def test_graph_forms_and_entry_points(self, small, tmp_path, kind,
                                          forest_entries):
        from repro.core.graph import AdjacencyGraph
        from repro.runtime.metall import MetallStore
        data, graph, adj, queries = small
        forest = (make_rp_forest(data, n_trees=2, leaf_size=12, seed=0)
                  if forest_entries else None)
        store = None
        if kind == "knn":
            adj = graph
        elif kind == "store":
            with MetallStore.create(tmp_path / "s") as created:
                created["optimized_graph"] = adj.to_arrays()
                created["dataset"] = data
            store = MetallStore.open_read_only(tmp_path / "s")
            adj = AdjacencyGraph.from_arrays(store["optimized_graph"])
            data = store["dataset"]
            assert isinstance(data, np.memmap)
        try:
            assert_batch_is_per_query(
                lambda: KNNGraphSearcher(adj, data, entry_forest=forest,
                                         seed=5, kernel="rowwise"),
                queries, 10, 0.2)
        finally:
            if store is not None:
                store.close()

    def test_answers_do_not_depend_on_how_the_batch_is_cut(self, searchable):
        data, adj = searchable
        queries = data[:300] + np.float32(0.02)
        def make():
            return KNNGraphSearcher(adj, data, seed=8, kernel="rowwise")

        whole = make().query_batch(queries, l=10, epsilon=0.1)
        for cut in (100, 1):
            s = make()
            parts = [s.query_batch(queries[lo:lo + cut], l=10, epsilon=0.1)
                     for lo in range(0, 300, cut)]
            assert np.array_equal(np.concatenate([p[0] for p in parts]),
                                  whole[0])
            assert (np.concatenate([p[1] for p in parts]).tobytes()
                    == whole[1].tobytes())
            assert (sum(p[2]["mean_distance_evals"] * p[2]["n_queries"]
                        for p in parts)
                    == pytest.approx(whole[2]["mean_distance_evals"] * 300))

    def test_internal_block_cut_is_invisible(self, searchable, monkeypatch):
        from repro.core import search
        data, adj = searchable
        queries = data[:90] + np.float32(0.02)
        def make():
            return KNNGraphSearcher(adj, data, seed=8, kernel="rowwise")

        whole = make().query_batch(queries, l=7)
        monkeypatch.setattr(search, "_BLOCK_BYTES", 1 << 16)
        assert 1 < make()._block_rows(7) < 30  # several blocks, few rows
        cut = make().query_batch(queries, l=7)
        assert np.array_equal(cut[0], whole[0])
        assert cut[1].tobytes() == whole[1].tobytes()
        assert cut[2] == whole[2]

    def test_repeated_ids_are_evaluated_once(self, small):
        """A CSR run or an entry list may name a vertex twice; it is
        marked, evaluated and counted once, as in the scalar loop."""
        from repro.core.graph import AdjacencyGraph
        data, graph, _, queries = small
        doubled = AdjacencyGraph.from_edge_lists([
            [(int(u), float(d)) for u, d in zip(*graph.neighbors(v))] * 2
            for v in range(graph.n)])

        class RepeatingForest:
            def candidates(self, Q):
                return [np.array([3, 3, 7, 3, 7, 150, 150], dtype=np.int64)
                        for _ in Q]

        plain = KNNGraphSearcher(graph, data, seed=1, kernel="rowwise",
                                 entry_forest=RepeatingForest())
        ids, dists = assert_batch_is_per_query(
            lambda: KNNGraphSearcher(doubled, data, seed=1, kernel="rowwise",
                                     entry_forest=RepeatingForest()),
            queries, 5, 0.2)
        want = plain.query_batch(queries, l=5, epsilon=0.2)
        assert np.array_equal(ids, want[0])
        assert_rows_well_formed(ids, dists, len(data))

    def test_dead_ends_and_graphs_smaller_than_l(self):
        from repro.core.graph import AdjacencyGraph
        rng = np.random.default_rng(0)
        data = rng.standard_normal((6, 3))
        # Vertex 2 has no out-edges, vertex 5 no in-edges.
        graph = AdjacencyGraph.from_edge_lists([
            [(1, 0.0), (2, 0.0)], [(0, 0.0), (3, 0.0)], [],
            [(4, 0.0), (2, 0.0)], [(0, 0.0)], [(1, 0.0)]])
        queries = rng.standard_normal((9, 3))
        for l in (2, 6, 10):
            ids, dists = assert_batch_is_per_query(
                lambda: KNNGraphSearcher(graph, data, seed=3,
                                         kernel="rowwise"),
                queries, l, 0.3)
            assert ids.shape == (9, l)
            assert_rows_well_formed(ids, dists, 6)
        # l >= n seeds every vertex, so every vertex is found.
        assert (np.sort(ids[:, :6], axis=1) == np.arange(6)).all()
        assert (ids[:, 6:] == -1).all()

    def test_blocked_kernel_keeps_recall_and_row_shape(self, searchable):
        # Tiled sums depend on the shape of the batch, so no byte
        # identity under the blocked kernel: recall parity instead.
        data, adj = searchable
        queries = data[:120] + np.float32(0.02)
        gt_ids, _ = brute_force_neighbors(data, queries, k=10)
        recalls = {}
        for kernel in ("rowwise", "blocked"):
            s = KNNGraphSearcher(adj, data, seed=6, kernel=kernel)
            ids, dists, _ = s.query_batch(queries, l=10, epsilon=0.2)
            assert_rows_well_formed(ids, dists, len(data))
            recalls[kernel] = recall_at_k(ids, gt_ids)
            per_query, _, _, _ = _per_query(
                KNNGraphSearcher(adj, data, seed=6, kernel=kernel),
                queries, 10, 0.2)
            assert abs(recall_at_k(per_query, gt_ids)
                       - recalls[kernel]) <= 0.005
        assert abs(recalls["blocked"] - recalls["rowwise"]) <= 0.005

    @pytest.mark.parametrize("kwargs,queries", [
        ({"l": 0}, "ok"),
        ({"l": 3, "epsilon": -0.1}, "ok"),
        ({"l": 3}, "wrong-dim"),
        ({"l": 3}, "one-vector"),
        ({"l": 3}, "three-d"),
    ])
    def test_errors_match_per_query_and_precede_any_work(self, searchable,
                                                          kwargs, queries):
        data, adj = searchable
        queries = {"ok": data[:4], "wrong-dim": np.zeros((4, 5)),
                   "one-vector": data[0],
                   "three-d": data[:8].reshape(2, 4, -1)}[queries]
        s = KNNGraphSearcher(adj, data, seed=0)
        with pytest.raises(SearchError) as batch_err:
            s.query_batch(queries, **kwargs)
        with pytest.raises(SearchError) as query_err:
            s.query(queries[0], **kwargs)
        assert str(batch_err.value) == str(query_err.value)
        assert s.metric.count == 0
        # No entry point was drawn either: the stream is where a fresh
        # searcher's is.
        fresh = KNNGraphSearcher(adj, data, seed=0)
        assert s._rng.random() == fresh._rng.random()

    def test_no_queries(self, searchable):
        data, adj = searchable
        for rows in (data, list(data)):
            ids, dists, stats = KNNGraphSearcher(adj, rows).query_batch(
                data[:0], l=4)
            assert ids.shape == dists.shape == (0, 4)
            assert stats == {"n_queries": 0, "mean_distance_evals": 0.0,
                             "mean_visited": 0.0}

    def test_publishes_the_per_query_totals(self, searchable, monkeypatch):
        from repro.core import search
        from repro.runtime.metrics import MetricsRegistry
        data, adj = searchable
        queries = data[:30] + np.float32(0.02)
        loop, batch = MetricsRegistry(), MetricsRegistry()
        def make(registry):
            return KNNGraphSearcher(adj, data, seed=2, metrics=registry,
                                    kernel="rowwise")

        _per_query(make(loop), queries, 10, 0.1)
        monkeypatch.setattr(search, "_BLOCK_BYTES", 1 << 16)
        rows = make(batch)._block_rows(10)
        blocks = [min(rows, 30 - lo) for lo in range(0, 30, rows)]
        assert len(blocks) > 2
        make(batch).query_batch(queries, l=10, epsilon=0.1)
        want, got = loop.snapshot(), batch.snapshot()
        assert got["counters"] == want["counters"]
        assert got["counters"]["search.queries"] == 30
        assert [s["name"] for s in want["spans"]] == ["query"] * 30
        # One span per block instead of one per query.
        assert [(s["name"], s["args"]["n"]) for s in got["spans"]] == [
            ("query_batch", n) for n in blocks]

    def test_visited_block_obeys_the_byte_budget(self):
        """n and nq large enough that one (nq, n) visited array would be
        six times the budget: the walker's peak stays near the budget,
        and the cut does not change answers."""
        import tracemalloc
        from repro.core import search
        from repro.core.graph import AdjacencyGraph
        n, nq, l = 1 << 18, 1536, 4
        assert nq * n >= 6 * search._BLOCK_BYTES
        # A ring: vertex v at angle 2*pi*v/n, linked to v +- 1 and v +- 64.
        angle = 2 * np.pi * np.arange(n) / n
        data = np.stack([np.cos(angle), np.sin(angle)], axis=1)
        steps = np.array([-64, -1, 1, 64])
        graph = AdjacencyGraph(np.arange(n + 1) * 4,
                               ((np.arange(n)[:, None] + steps) % n).ravel(),
                               np.zeros(4 * n))
        queries = data[np.random.default_rng(0).integers(0, n, nq)]
        # Start next to the answer, so the walk itself is short.
        class NearbyForest:
            def candidates(self, Q):
                at = np.rint(np.arctan2(Q[:, 1], Q[:, 0]) / (2 * np.pi) * n)
                return list((at.astype(np.int64)[:, None]
                             + np.arange(5, 5 + l)) % n)

        def make():
            return KNNGraphSearcher(graph, data, seed=0, kernel="rowwise",
                                    entry_forest=NearbyForest())

        tracemalloc.start()
        try:
            ids, dists, _ = make().query_batch(queries, l=l)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Budget, plus the (nq, l) outputs and per-row state of one
        # block — O(m * (l + F)) — with room to spare.
        assert peak < search._BLOCK_BYTES + (8 << 20)
        m = search._BLOCK_BYTES // n + 3  # reaches into the second block
        want = np.array([make().query(q, l=l).ids for q in queries[:m]])
        assert np.array_equal(ids[:m], want)
        assert (dists[:, 0] == 0.0).all()

    def test_step_temporaries_obey_the_byte_budget(self, monkeypatch):
        """Wide vectors: the gathered rows of one step over all queries
        at once (600 x 12 pairs x 256 coordinates, several float64
        copies) would be many times the budget."""
        import tracemalloc
        from repro.core import search
        rng = np.random.default_rng(1)
        data = rng.standard_normal((500, 256)).astype(np.float32)
        adj = optimize_graph(brute_force_knn_graph(data, k=8), 1.5)
        queries = rng.standard_normal((600, 256)).astype(np.float32)
        monkeypatch.setattr(search, "_BLOCK_BYTES", 8 << 20)
        s = KNNGraphSearcher(adj, data, seed=0)
        assert 1 < s._block_rows(8) < 100
        tracemalloc.start()
        try:
            s.query_batch(queries, l=8, epsilon=0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (8 << 20) + (4 << 20)


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
