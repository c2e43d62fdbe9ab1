"""DNND driver internals: distribution, fingerprinting, gather."""

import multiprocessing

import numpy as np
import pytest

from repro import ClusterConfig, DNND, DNNDConfig, NNDescentConfig
from repro.core.dnnd import _fingerprint
from repro.core.dnnd_phases import block_of
from repro.core.executor import resolve_backend
from repro.core.heap import NeighborHeap
from repro.errors import DatasetError


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


def _row_view(block, row):
    return NeighborHeap.view(block.ids[row], block.dists[row],
                             block.flags[row])


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
        block = block_of(dnnd.world)
        gids = np.concatenate([block.global_ids[lo:hi]
                               for _, lo, hi in block.slices()])
        assert sorted(gids.tolist()) == list(range(len(tiny_dense)))

    def test_features_colocated_with_ids(self, dnnd, tiny_dense):
        """The rows a shard resolves for its own ids are its vertices'
        features — read from the one view every shard of the world
        shares, not from a per-shard copy."""
        block = block_of(dnnd.world)
        assert block.data is dnnd._rows
        for _, lo, hi in block.slices():
            gids = block.global_ids[lo:hi]
            np.testing.assert_array_equal(block.features(gids),
                                          tiny_dense[gids])

    def test_heap_per_vertex(self, dnnd):
        block = block_of(dnnd.world)
        for _, lo, hi in block.slices():
            assert block.ids[lo:hi].shape == (hi - lo, 4)
            assert all(_row_view(block, row).k == 4 for row in range(lo, hi))

    def test_heaps_are_views_of_the_shard_matrices(self, dnnd):
        """One home of neighbor state: a push through a row view lands
        in the matrices, a bulk merge on the matrices shows in the view."""
        from repro.core.heap import merge_rows

        block = block_of(dnnd.world)
        lo, hi = block.starts[0], block.starts[1]      # rank 0's rows
        ids, dists, flags = block.ids[lo:hi], block.dists[lo:hi], block.flags[lo:hi]
        assert ids.shape == (hi - lo, 4)
        heap = _row_view(block, lo + 1)
        assert heap.checked_push(7, 0.5) == 1
        assert ids[1].tolist().count(7) == 1
        merge_rows(ids, dists, flags,
                   np.array([1, 1]), np.array([9, 3]), np.array([0.25, 0.75]))
        assert sorted(heap.entries()) == [(3, 0.75, True), (7, 0.5, True),
                                          (9, 0.25, True)]
        # Views are made on demand and hold no state of their own.
        again = _row_view(block, lo + 1)
        assert again is not heap
        assert sorted(again.entries()) == sorted(heap.entries())


class TestGather:
    def test_gathered_graph_matches_shards(self, dnnd, tiny_dense):
        result = dnnd.build()
        block = block_of(dnnd.world)
        for row, gid in enumerate(block.global_ids.tolist()):
            ids, dists, _ = _row_view(block, row).sorted_arrays()
            np.testing.assert_array_equal(result.graph.ids[gid], ids)


class TestHostileDenseInput:
    """A dense dataset is checked once, where the dataset view is made:
    2-D and finite, or a typed error naming the first offending row —
    before any worker process exists."""

    CFG = dict(nnd=NNDescentConfig(k=4, seed=1), workers=2)

    @staticmethod
    def _poisoned(tiny_dense, row, value):
        data = tiny_dense.copy()
        data[row, 3] = value
        data[row + 7, 0] = value        # not the first offending row
        return data

    @pytest.mark.parametrize("backend", ["sim", "process"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected(self, tiny_dense, backend, value):
        data = self._poisoned(tiny_dense, 41, value)
        before = set(multiprocessing.active_children())
        with pytest.raises(DatasetError, match=r"row 41\b"):
            DNND(data, DNNDConfig(backend=backend, **self.CFG),
                 cluster=ClusterConfig(nodes=2, procs_per_node=2))
        assert set(multiprocessing.active_children()) <= before

    @pytest.mark.parametrize("backend", ["sim", "process"])
    @pytest.mark.parametrize("shape", [(80,), (20, 2, 2)])
    def test_not_two_dimensional_rejected(self, backend, shape):
        before = set(multiprocessing.active_children())
        with pytest.raises(DatasetError, match="2-D"):
            DNND(np.ones(shape, dtype=np.float32),
                 DNNDConfig(backend=backend, **self.CFG),
                 cluster=ClusterConfig(nodes=2, procs_per_node=2))
        assert set(multiprocessing.active_children()) <= before

    def test_integer_and_sparse_data_pass(self, sparse_sets):
        """Integer features are finite by type (BigANN's uint8); sparse
        records are validated by ``validate_record``, not here."""
        bytes_ = np.arange(40, dtype=np.uint8).reshape(10, 4)
        cfg = DNNDConfig(nnd=NNDescentConfig(k=4), backend="sim")
        assert DNND(bytes_, cfg)._rows is bytes_
        jaccard = DNNDConfig(nnd=NNDescentConfig(k=4, metric="jaccard"),
                             backend="sim")
        assert DNND(sparse_sets, jaccard)._rows is sparse_sets
