"""Micro-benchmarks of the substrates (true pytest-benchmark timings).

These are the classic repeated-measurement benches: distance kernels,
heap updates, YGM message round-trips, partition hashing, and search.
They catch performance regressions in the hot paths that every
experiment above depends on.
"""

import numpy as np
import pytest

from repro.baselines.bruteforce import brute_force_knn_graph
from repro.config import ClusterConfig
from repro.core.heap import NeighborHeap
from repro.core.optimization import optimize_graph
from repro.core.search import KNNGraphSearcher
from repro.distances import dense, sparse
from repro.runtime.partition import HashPartitioner
from repro.runtime.transports import SimCluster
from repro.runtime.ygm import YGMWorld

rng = np.random.default_rng(0)


class TestDistanceKernels:
    a96 = rng.random(96)
    b96 = rng.random(96)
    X = rng.random((1000, 96))

    def test_sqeuclidean_scalar(self, benchmark):
        benchmark(dense.sqeuclidean, self.a96, self.b96)

    def test_cosine_scalar(self, benchmark):
        benchmark(dense.cosine, self.a96, self.b96)

    def test_sqeuclidean_one_to_many_1000(self, benchmark):
        benchmark(dense.sqeuclidean_one_to_many, self.a96, self.X)

    def test_pairwise_block_100x1000(self, benchmark):
        A = self.X[:100]
        benchmark(dense.sqeuclidean_pairwise, A, self.X)

    def test_jaccard_scalar(self, benchmark):
        sa = sparse.as_sorted_set(rng.integers(0, 1000, 30))
        sb = sparse.as_sorted_set(rng.integers(0, 1000, 30))
        benchmark(sparse.jaccard, sa, sb)


class TestHeap:
    def test_checked_push_stream(self, benchmark):
        ids = rng.integers(0, 200, 1000)
        dists = rng.random(1000)

        def run():
            heap = NeighborHeap(20)
            for vid, d in zip(ids, dists):
                heap.checked_push(int(vid), float(d))
            return heap

        benchmark(run)

    def test_sorted_arrays(self, benchmark):
        heap = NeighborHeap(30)
        for vid, d in zip(rng.integers(0, 500, 300), rng.random(300)):
            heap.checked_push(int(vid), float(d))
        benchmark(heap.sorted_arrays)


class TestYGM:
    def test_async_roundtrip_1000(self, benchmark):
        def run():
            cluster = SimCluster(ClusterConfig(nodes=2, procs_per_node=2))
            world = YGMWorld(cluster, flush_threshold=256)
            world.register_handler("noop", lambda ctx, x: None)
            for i in range(1000):
                world.async_call(i % 4, (i * 3) % 4, "noop", i, nbytes=8)
            world.barrier()
            return world.handler_invocations

        assert benchmark(run) == 1000


class TestPartition:
    def test_owner_array_100k(self, benchmark):
        part = HashPartitioner(100_000, 64)
        ids = np.arange(100_000)
        benchmark(part.owner_array, ids)


class TestSearch:
    data = rng.random((500, 16)).astype(np.float32)

    @pytest.fixture(scope="class")
    def searcher(self):
        adj = optimize_graph(brute_force_knn_graph(self.data, k=10), 1.5)
        return KNNGraphSearcher(adj, self.data, seed=0)

    def test_single_query(self, benchmark, searcher):
        benchmark(searcher.query, self.data[0], 10, 0.1)


class TestTaxonomyBaselines:
    data = rng.random((500, 16)).astype(np.float32)

    def test_kdtree_query(self, benchmark):
        from repro.baselines.kdtree import KDTree
        tree = KDTree(self.data, leaf_size=16)
        benchmark(tree.query, self.data[0], 10)

    def test_lsh_query(self, benchmark):
        from repro.baselines.lsh import LSHIndex
        index = LSHIndex(self.data, metric="sqeuclidean", n_tables=8,
                         n_bits=4, seed=0)
        benchmark(index.query, self.data[0], 10)

    def test_pq_query(self, benchmark):
        from repro.baselines.pq import PQIndex
        index = PQIndex(self.data, m=4, n_centroids=32, seed=0)
        benchmark(index.query, self.data[0], 10, 50)
