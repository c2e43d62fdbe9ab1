"""DNND driver internals: distribution, fingerprinting, gather."""

import numpy as np
import pytest

from repro import ClusterConfig, DNND, DNNDConfig, NNDescentConfig
from repro.core.dnnd import _fingerprint
from repro.core.dnnd_phases import shard_of
from repro.core.executor import resolve_backend


@pytest.fixture()
def dnnd(tiny_dense):
    cfg = DNNDConfig(nnd=NNDescentConfig(k=4, seed=99))
    if resolve_backend(cfg.backend) == "process":
        pytest.skip("white-box shard introspection needs driver-resident "
                    "rank state; the process backend keeps it in workers")
    d = DNND(tiny_dense, cfg,
             cluster=ClusterConfig(nodes=2, procs_per_node=2))
    yield d
    d.close()


class TestFingerprint:
    def test_deterministic(self, tiny_dense):
        assert _fingerprint(tiny_dense) == _fingerprint(tiny_dense)

    def test_sensitive_to_values(self, tiny_dense):
        other = tiny_dense.copy()
        other[0, 0] += 1.0
        assert _fingerprint(other) != _fingerprint(tiny_dense)

    def test_sensitive_to_row_order(self, tiny_dense):
        permuted = tiny_dense[::-1].copy()
        assert _fingerprint(permuted) != _fingerprint(tiny_dense)

    def test_sparse_records_supported(self, sparse_sets):
        assert _fingerprint(sparse_sets) == _fingerprint(sparse_sets)


class TestDistribution:
    def test_shards_partition_dataset(self, dnnd, tiny_dense):
        gids = np.concatenate([shard_of(ctx).global_ids
                               for ctx in dnnd.world.ranks])
        assert sorted(gids.tolist()) == list(range(len(tiny_dense)))

    def test_features_colocated_with_ids(self, dnnd, tiny_dense):
        for ctx in dnnd.world.ranks:
            shard = shard_of(ctx)
            for li, gid in enumerate(shard.global_ids):
                np.testing.assert_array_equal(shard.features[li],
                                              tiny_dense[int(gid)])

    def test_heap_per_vertex(self, dnnd):
        for ctx in dnnd.world.ranks:
            shard = shard_of(ctx)
            assert shard.ids.shape == (shard.n_local, 4)
            assert all(shard.heap(gid).k == 4
                       for gid in shard.global_ids.tolist())

    def test_heaps_are_views_of_the_shard_matrices(self, dnnd):
        """One home of neighbor state: a push through a row view lands
        in the matrices, a bulk merge on the matrices shows in the view."""
        from repro.core.heap import merge_rows

        shard = shard_of(dnnd.world.ranks[0])
        assert shard.ids.shape == (shard.n_local, 4)
        heap = shard.heap(int(shard.global_ids[1]))
        assert heap.checked_push(7, 0.5) == 1
        assert shard.ids[1].tolist().count(7) == 1
        merge_rows(shard.ids, shard.dists, shard.flags,
                   np.array([1, 1]), np.array([9, 3]), np.array([0.25, 0.75]))
        assert sorted(heap.entries()) == [(3, 0.75, True), (7, 0.5, True),
                                          (9, 0.25, True)]
        # Views are made on demand and hold no state of their own.
        again = shard.heap(int(shard.global_ids[1]))
        assert again is not heap
        assert sorted(again.entries()) == sorted(heap.entries())


class TestGather:
    def test_gathered_graph_matches_shards(self, dnnd, tiny_dense):
        result = dnnd.build()
        for ctx in dnnd.world.ranks:
            shard = shard_of(ctx)
            for li, gid in enumerate(shard.global_ids):
                ids, dists, _ = shard.heap(int(gid)).sorted_arrays()
                np.testing.assert_array_equal(result.graph.ids[int(gid)], ids)
