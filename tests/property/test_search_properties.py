"""Search invariants over random datasets and graphs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bruteforce import brute_force_knn_graph, brute_force_neighbors
from repro.core.optimization import optimize_graph
from repro.core.search import KNNGraphSearcher


@st.composite
def search_setups(draw):
    n = draw(st.integers(20, 80))
    dim = draw(st.integers(2, 8))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    data = rng.random((n, dim)).astype(np.float32)
    k = draw(st.integers(2, min(8, n - 1)))
    graph = brute_force_knn_graph(data, k=k)
    adj = optimize_graph(graph, pruning_factor=1.5)
    return data, adj, seed


@given(setup=search_setups(), l=st.integers(1, 12),
       eps=st.floats(0.0, 0.5))
@settings(max_examples=40, deadline=None)
def test_results_sorted_and_distinct(setup, l, eps):
    data, adj, seed = setup
    s = KNNGraphSearcher(adj, data, seed=seed)
    res = s.query(data[0], l=l, epsilon=eps)
    assert len(res.ids) == min(l, len(data))
    assert len(set(res.ids.tolist())) == len(res.ids)
    assert (np.diff(res.dists) >= 0).all()


@given(setup=search_setups(), l=st.integers(1, 10))
@settings(max_examples=40, deadline=None)
def test_distances_are_true_distances(setup, l):
    data, adj, seed = setup
    # Exactness claims are the rowwise kernel's (pinned: CI also runs
    # this file with REPRO_KERNEL=blocked, which is recall-gated).
    s = KNNGraphSearcher(adj, data, seed=seed, kernel="rowwise")
    q = data[1]
    res = s.query(q, l=l, epsilon=0.2)
    from repro.distances.dense import sqeuclidean
    for vid, d in zip(res.ids, res.dists):
        assert d == pytest.approx(sqeuclidean(q, data[int(vid)]), rel=1e-5)


@given(setup=search_setups())
@settings(max_examples=30, deadline=None)
def test_result_never_better_than_exact(setup):
    """Approximate results are a subset of the dataset, so their
    distances are >= the true k-NN distances, pointwise."""
    data, adj, seed = setup
    s = KNNGraphSearcher(adj, data, seed=seed, kernel="rowwise")
    q = data[2]
    res = s.query(q, l=5, epsilon=0.3)
    _, true_d = brute_force_neighbors(data, q.reshape(1, -1), k=5,
                                      kernel="rowwise")
    got = np.sort(res.dists)[:5]
    want = np.sort(true_d[0])
    for g, w in zip(got, want):
        assert g >= w - 1e-9


@given(setup=search_setups())
@settings(max_examples=25, deadline=None)
def test_visited_counts_bounded(setup):
    data, adj, seed = setup
    s = KNNGraphSearcher(adj, data, seed=seed)
    res = s.query(data[0], l=5, epsilon=0.1)
    assert res.n_visited <= len(data)
    assert res.n_distance_evals <= len(data)
    assert res.n_distance_evals >= len(res.ids)


@st.composite
def arbitrary_graphs(draw):
    """Any CSR the searcher accepts, not only k-NN graphs: rows may be
    empty, repeat an id or name the vertex itself; coordinates come
    from a small grid, so equal distances are common."""
    from repro.core.graph import AdjacencyGraph
    n = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    data = rng.integers(0, 3, (n, dim)).astype(
        draw(st.sampled_from([np.float32, np.float64])))
    degrees = rng.integers(0, 7, n)
    indptr = np.concatenate(([0], np.cumsum(degrees)))
    indices = rng.integers(0, n, int(indptr[-1]))
    graph = AdjacencyGraph(indptr, indices, np.zeros(len(indices)))
    queries = rng.integers(0, 3, (draw(st.integers(1, 12)), dim)).astype(
        data.dtype)
    return data, graph, queries


@given(setup=arbitrary_graphs(), l=st.integers(1, 50),
       eps=st.sampled_from([0.0, 0.2, 1.0]),
       metric=st.sampled_from(["sqeuclidean", "cosine", "manhattan"]),
       seed=st.integers(0, 5), cut=st.integers(1, 12))
@settings(max_examples=120, deadline=None)
def test_lock_step_batch_is_the_per_query_walk(setup, l, eps, metric, seed,
                                               cut):
    """``query_batch`` (lock-step walker) against ``query`` (heap walk)
    on same-seed searchers: same ids, distance bytes and counters, for
    any cut of the batch, ties and degenerate graphs included."""
    data, graph, queries = setup
    n = len(data)

    def make():
        return KNNGraphSearcher(graph, data, metric=metric, seed=seed,
                                kernel="rowwise")

    ids, dists, stats = make().query_batch(queries, l=l, epsilon=eps)
    oracle = make()
    want = [oracle.query(q, l=l, epsilon=eps) for q in queries]
    for row_i, row_d, res in zip(ids, dists, want):
        found = len(res.ids)
        assert found == min(l, n) or res.n_visited < n
        assert np.array_equal(row_i[:found], res.ids)
        assert row_d[:found].tobytes() == res.dists.tobytes()
        assert (row_i[found:] == -1).all() and np.isinf(row_d[found:]).all()
        assert len(set(res.ids.tolist())) == found
        pairs = list(zip(res.dists.tolist(), res.ids.tolist()))
        assert pairs == sorted(pairs)
    assert stats["mean_distance_evals"] == (
        sum(r.n_distance_evals for r in want) / len(queries))
    assert stats["mean_visited"] == (
        sum(r.n_visited for r in want) / len(queries))

    pieces = make()
    parts = [pieces.query_batch(queries[lo:lo + cut], l=l, epsilon=eps)
             for lo in range(0, len(queries), cut)]
    assert np.array_equal(np.concatenate([p[0] for p in parts]), ids)
    assert np.concatenate([p[1] for p in parts]).tobytes() == dists.tobytes()
