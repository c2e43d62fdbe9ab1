"""Random-projection trees."""

import numpy as np
import pytest

from repro.core.rptree import RPTree, RPTreeForest, make_rp_forest
from repro.errors import ConfigError
from repro.utils.rng import derive_rng


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    return rng.normal(size=(200, 8)).astype(np.float32)


class TestRPTree:
    def test_leaves_partition_dataset(self, data):
        tree = RPTree(data, leaf_size=16, rng=derive_rng(1))
        members = np.concatenate(list(tree.leaves()))
        assert sorted(members.tolist()) == list(range(200))

    def test_leaf_size_respected(self, data):
        tree = RPTree(data, leaf_size=16, rng=derive_rng(1))
        for leaf in tree.leaves():
            assert len(leaf) <= 16

    def test_leaf_for_routes_to_existing_leaf(self, data):
        tree = RPTree(data, leaf_size=16, rng=derive_rng(2))
        leaf = tree.leaf_for(data[17])
        all_leaves = [frozenset(l.tolist()) for l in tree.leaves()]
        assert frozenset(leaf.tolist()) in all_leaves

    def test_duplicate_points_handled(self):
        dup = np.ones((50, 4), dtype=np.float32)
        tree = RPTree(dup, leaf_size=8, rng=derive_rng(3))
        members = np.concatenate(list(tree.leaves()))
        assert sorted(members.tolist()) == list(range(50))

    def test_small_dataset_single_leaf(self):
        small = np.random.default_rng(1).normal(size=(5, 3))
        tree = RPTree(small, leaf_size=8, rng=derive_rng(4))
        leaves = list(tree.leaves())
        assert len(leaves) == 1

    def test_bad_leaf_size(self, data):
        with pytest.raises(ConfigError):
            RPTree(data, leaf_size=1, rng=derive_rng(5))

    def test_depth_positive_for_split_tree(self, data):
        tree = RPTree(data, leaf_size=16, rng=derive_rng(6))
        assert tree.depth() >= 1

    def test_deterministic_given_rng(self, data):
        t1 = RPTree(data, leaf_size=16, rng=derive_rng(7))
        t2 = RPTree(data, leaf_size=16, rng=derive_rng(7))
        l1 = [l.tolist() for l in t1.leaves()]
        l2 = [l.tolist() for l in t2.leaves()]
        assert l1 == l2


class TestForest:
    def test_make_forest(self, data):
        forest = make_rp_forest(data, n_trees=3, leaf_size=20, seed=0)
        assert len(forest) == 3

    def test_candidates_union(self, data):
        forest = make_rp_forest(data, n_trees=3, leaf_size=20, seed=0)
        cand = forest.candidates_for(data[0])
        assert len(np.unique(cand)) == len(cand)
        # The query's own leaf should contain nearby points; at minimum
        # candidates exist.
        assert len(cand) >= 1

    def test_empty_forest_rejected(self):
        with pytest.raises(ConfigError):
            RPTreeForest([])

    def test_bad_n_trees(self, data):
        with pytest.raises(ConfigError):
            make_rp_forest(data, n_trees=0)

    def test_leaf_locality(self, data):
        # Points in the same leaf should on average be closer than random
        # pairs — the property that makes rp-init useful.
        forest = make_rp_forest(data, n_trees=1, leaf_size=20, seed=1)
        rng = np.random.default_rng(0)
        leaf_d, rand_d = [], []
        for leaf in forest.leaves():
            if len(leaf) < 2:
                continue
            a, b = leaf[0], leaf[1]
            leaf_d.append(np.linalg.norm(data[a] - data[b]))
            i, j = rng.integers(0, len(data), 2)
            rand_d.append(np.linalg.norm(data[i] - data[j]))
        assert np.mean(leaf_d) < np.mean(rand_d)


def _with_duplicates():
    """600 points in 6-D with every seventh a copy of point 3: splits of
    identical points take the zero-normal branch."""
    data = np.random.default_rng(2023).normal(size=(600, 6)).astype(np.float32)
    data[::7] = data[3]
    return data


def _digest(ids) -> str:
    import hashlib
    return hashlib.sha256(np.asarray(ids, dtype=np.int64).tobytes()).hexdigest()


def _scalar_leaf(tree, q):
    """Per-query descent over the flat arrays, one scalar dot per level;
    also the smallest |side| met on the way."""
    node, margin = tree.root, np.inf
    q = np.asarray(q, dtype=np.float64)
    while node >= 0:
        side = float(q @ tree.normals[node]) - tree.offsets[node]
        margin = min(margin, abs(side))
        node = tree.children[node, 0 if side <= 0 else 1]
    return ~node, margin


class TestPinnedOrder:
    """Digests recorded with the node-object trees these flat arrays
    replaced: the flattening moved no split, leaf or rank."""

    def test_leaves_order_is_right_subtree_first(self):
        tree = RPTree(_with_duplicates(), leaf_size=16, rng=derive_rng(1))
        assert _digest(np.concatenate(list(tree.leaves()))) == (
            "385e246c49941d04e0291e7f3e0f7219c3ffb491f899a31c586a0e22b2ccc484")
        # Right subtree first: the last leaf built is the first yielded.
        first = next(iter(tree.leaves()))
        assert np.array_equal(first, tree.leaf(len(tree.leaf_ptr) - 2))

    def test_rptree_partitioner_assignment(self):
        from repro.runtime.partition import RPTreePartitioner
        p = RPTreePartitioner(_with_duplicates(), 4, seed=3)
        assert _digest(p.assignment) == (
            "2d102a41a2224f4fa79dc8dcb1813af8df33e516c30ebd5a26044383be8a0cc9")

    def test_forest_leaves_and_candidates(self):
        data = _with_duplicates()
        forest = make_rp_forest(data, n_trees=3, leaf_size=20, seed=4)
        assert _digest(np.concatenate(list(forest.leaves()))) == (
            "a5f33f8c70388a212da072128168f03d19d330a3eb13df589b9ab930e8093853")
        cands = forest.candidates(data[:50] + np.float32(0.01))
        assert _digest(np.concatenate(cands)) == (
            "d715037c5df56ebd3c4048971f73f9df3c986e45ce3c693c97c87de0782432e9")


class TestRoute:
    def test_batch_route_is_the_scalar_descent(self, data):
        tree = RPTree(data, leaf_size=16, rng=derive_rng(8))
        queries = np.random.default_rng(9).normal(size=(300, 8))
        got = tree.route(queries)
        checked = 0
        for q, leaf in zip(queries, got):
            want, margin = _scalar_leaf(tree, q)
            if margin > 1e-9:  # away from every split plane on its path
                assert leaf == want
                checked += 1
        assert checked > 250

    def test_route_does_not_depend_on_the_block(self, data):
        tree = RPTree(data, leaf_size=16, rng=derive_rng(8))
        queries = np.random.default_rng(10).normal(size=(40, 8))
        whole = tree.route(queries)
        assert [tree.route(q[None])[0] for q in queries] == whole.tolist()
        assert tree.route(queries[:0]).shape == (0,)

    def test_leaf_for_is_the_one_row_route(self, data):
        tree = RPTree(data, leaf_size=16, rng=derive_rng(8))
        q = data[5] + np.float32(0.5)
        assert np.array_equal(tree.leaf_for(q),
                              tree.leaf(tree.route(q[None])[0]))

    def test_nan_goes_right_and_zero_normal_goes_left(self):
        """``side <= 0`` goes left: a NaN side is not, so it goes right
        at every split; a zero normal gives side 0 for a finite query."""
        dup = np.ones((50, 4), dtype=np.float32)
        tree = RPTree(dup, leaf_size=8, rng=derive_rng(3))
        assert not tree.normals.any()
        node = tree.root
        while node >= 0:
            node = tree.children[node, 0]
        assert tree.route(np.full((1, 4), 7.0))[0] == ~node
        node = tree.root
        while node >= 0:
            node = tree.children[node, 1]
        assert tree.route(np.full((1, 4), np.nan))[0] == ~node

        tree = RPTree(np.random.default_rng(0).normal(size=(100, 3)),
                      leaf_size=8, rng=derive_rng(4))
        want, _ = _scalar_leaf(tree, np.full(3, np.nan))
        assert tree.route(np.full((2, 3), np.nan)).tolist() == [want, want]

    def test_single_leaf_tree(self):
        tree = RPTree(np.zeros((5, 3)), leaf_size=8, rng=derive_rng(4))
        assert tree.root == ~0 and len(tree.children) == 0
        assert tree.route(np.ones((3, 3))).tolist() == [0, 0, 0]
        assert tree.leaf_for(np.ones(3)).tolist() == list(range(5))


class TestForestMemory:
    def test_forest_keeps_no_copy_of_the_data(self):
        """The trees are normals, offsets, children and members: far
        less than one float64 copy of the data (each tree used to keep
        its own)."""
        import gc
        import tracemalloc
        n, d = 2000, 64
        data = np.random.default_rng(0).normal(size=(n, d)).astype(np.float32)
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            forest = make_rp_forest(data, n_trees=4, leaf_size=30, seed=0)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(forest) == 4
        assert kept < n * d * 8
