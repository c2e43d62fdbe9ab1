"""Forest entry points in both walkers.

``query_batch`` routes a whole block through the RP forest at once;
``query`` routes its one query through the same trees.  Same seed, same
answers, byte for byte, under the ``rowwise`` kernel — on data whose
trees split identical points (zero normals), trees that are one leaf,
integer data and ``l`` beyond a leaf's size.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bruteforce import brute_force_knn_graph, brute_force_neighbors
from repro.core.graph import AdjacencyGraph
from repro.core.optimization import optimize_graph
from repro.core.rptree import make_rp_forest
from repro.core.search import KNNGraphSearcher
from repro.datasets.synthetic import gaussian_mixture
from repro.eval.recall import recall_at_k


@st.composite
def forest_setups(draw):
    n = draw(st.integers(1, 60))
    dim = draw(st.integers(1, 6))
    dtype = draw(st.sampled_from([np.float32, np.float64, np.uint8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    # A small grid makes duplicate points (zero-normal splits) common.
    top = draw(st.sampled_from([2, 4, 200]))
    data = rng.integers(0, top, (n, dim)).astype(dtype)
    queries = rng.integers(0, top, (draw(st.integers(1, 12)), dim)).astype(
        dtype)
    degrees = rng.integers(0, 7, n)
    indptr = np.concatenate(([0], np.cumsum(degrees)))
    graph = AdjacencyGraph(indptr, rng.integers(0, n, int(indptr[-1])),
                           np.zeros(int(indptr[-1])))
    # leaf_size >= n: every tree is a single leaf.
    forest = make_rp_forest(data, n_trees=draw(st.integers(1, 3)),
                            leaf_size=draw(st.integers(2, 70)),
                            seed=draw(st.integers(0, 9)))
    return data, graph, queries, forest


@given(setup=forest_setups(), l=st.integers(1, 80),
       eps=st.sampled_from([0.0, 0.3]),
       metric=st.sampled_from(["sqeuclidean", "cosine", "manhattan"]),
       seed=st.integers(0, 5))
@settings(max_examples=100, deadline=None)
def test_batch_with_forest_is_the_per_query_walk(setup, l, eps, metric, seed):
    data, graph, queries, forest = setup

    def make():
        return KNNGraphSearcher(graph, data, metric=metric, seed=seed,
                                entry_forest=forest, kernel="rowwise")

    ids, dists, stats = make().query_batch(queries, l=l, epsilon=eps)
    oracle = make()
    want = [oracle.query(q, l=l, epsilon=eps) for q in queries]
    for row_i, row_d, res in zip(ids, dists, want):
        found = len(res.ids)
        assert np.array_equal(row_i[:found], res.ids)
        assert row_d[:found].tobytes() == res.dists.tobytes()
        assert (row_i[found:] == -1).all()
    assert stats["mean_distance_evals"] == (
        sum(r.n_distance_evals for r in want) / len(queries))


@given(setup=forest_setups())
@settings(max_examples=60, deadline=None)
def test_candidates_are_the_union_of_routed_leaves(setup):
    """``candidates(Q)`` row ``i`` is the sorted union of the leaves
    ``Q[i]`` routes to; ``candidates_for`` is its one-row case."""
    data, _, queries, forest = setup
    rows = forest.candidates(queries)
    assert len(rows) == len(queries)
    for q, row in zip(queries, rows):
        want = np.unique(np.concatenate(
            [tree.leaf(tree.route(q[None])[0]) for tree in forest.trees]))
        assert np.array_equal(row, want)
        assert np.array_equal(forest.candidates_for(q), want)


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_blocked_kernel_keeps_recall_with_forest_entries(metric):
    """Under ``blocked`` the walkers' contract is recall parity: the
    same forest entries reach the rowwise recall within 0.005."""
    data = gaussian_mixture(900, 24, n_clusters=8, cluster_std=0.5, seed=3)
    queries = data[:300] + np.float32(0.05)
    adj = optimize_graph(brute_force_knn_graph(data, k=10, metric=metric),
                         1.5)
    forest = make_rp_forest(data, seed=1)
    truth, _ = brute_force_neighbors(data, queries, k=10, metric=metric,
                                     kernel="rowwise")
    recall = {}
    for kernel in ("rowwise", "blocked"):
        s = KNNGraphSearcher(adj, data, metric=metric, entry_forest=forest,
                             seed=0, kernel=kernel)
        ids, _, _ = s.query_batch(queries, l=10, epsilon=0.1)
        recall[kernel] = recall_at_k(ids, truth)
    assert recall["rowwise"] > 0.9
    assert abs(recall["blocked"] - recall["rowwise"]) <= 0.005
