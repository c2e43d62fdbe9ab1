"""Sparse (set) metric correctness."""

import numpy as np
import pytest

from repro.distances import get_metric, sparse
from repro.errors import MetricError


class TestAsSortedSet:
    def test_sorts_and_dedupes(self):
        out = sparse.as_sorted_set([5, 1, 5, 3, 1])
        np.testing.assert_array_equal(out, [1, 3, 5])

    def test_empty(self):
        assert sparse.as_sorted_set([]).size == 0


class TestValidateRecord:
    def test_accepts_sorted(self):
        rec = np.array([1, 4, 9])
        np.testing.assert_array_equal(sparse.validate_record(rec), rec)

    def test_rejects_unsorted(self):
        with pytest.raises(MetricError):
            sparse.validate_record(np.array([3, 1]))

    def test_rejects_duplicates(self):
        with pytest.raises(MetricError):
            sparse.validate_record(np.array([1, 1, 2]))

    def test_rejects_2d(self):
        with pytest.raises(MetricError):
            sparse.validate_record(np.array([[1, 2]]))


class TestJaccard:
    def test_known_value(self):
        a = sparse.as_sorted_set([1, 2, 3])
        b = sparse.as_sorted_set([2, 3, 4, 5])
        # |inter| = 2, |union| = 5.
        assert sparse.jaccard(a, b) == pytest.approx(1 - 2 / 5)

    def test_identical(self):
        a = sparse.as_sorted_set([1, 2, 3])
        assert sparse.jaccard(a, a) == 0.0

    def test_disjoint(self):
        assert sparse.jaccard(np.array([1]), np.array([2])) == 1.0

    def test_empty_vs_empty(self):
        e = np.array([], dtype=np.int64)
        assert sparse.jaccard(e, e) == 0.0

    def test_empty_vs_nonempty(self):
        e = np.array([], dtype=np.int64)
        assert sparse.jaccard(e, np.array([1, 2])) == 1.0

    def test_symmetric(self):
        a = sparse.as_sorted_set([1, 5, 9])
        b = sparse.as_sorted_set([5, 9, 11, 13])
        assert sparse.jaccard(a, b) == sparse.jaccard(b, a)


class TestDiceOverlap:
    def test_dice_known(self):
        a = np.array([1, 2, 3])
        b = np.array([2, 3, 4, 5])
        assert sparse.dice(a, b) == pytest.approx(1 - 4 / 7)

    def test_dice_identical(self):
        a = np.array([1, 2])
        assert sparse.dice(a, a) == 0.0

    def test_overlap_subset_is_zero(self):
        a = np.array([1, 2])
        b = np.array([1, 2, 3, 4])
        assert sparse.overlap(a, b) == 0.0

    def test_overlap_empty_cases(self):
        e = np.array([], dtype=np.int64)
        assert sparse.overlap(e, e) == 0.0
        assert sparse.overlap(e, np.array([1])) == 1.0


class TestJaccardOneToMany:
    def test_matches_scalar(self):
        q = sparse.as_sorted_set([1, 2, 3])
        records = [sparse.as_sorted_set(r) for r in ([1, 2], [4, 5], [1, 2, 3])]
        out = get_metric("jaccard").rowwise_dists(q, records)
        want = [sparse.jaccard(q, r) for r in records]
        np.testing.assert_allclose(out, want)


class TestSparseDataset:
    def test_basic_shape(self):
        ds = sparse.SparseDataset([[3, 1], [2], [9, 9, 4]])
        assert len(ds) == 3
        assert ds.dim == 10  # max item 9 -> universe 10
        assert ds.shape == (3, 10)

    def test_records_canonicalized(self):
        ds = sparse.SparseDataset([[5, 1, 5]])
        np.testing.assert_array_equal(ds[0], [1, 5])

    def test_nbytes_of(self):
        ds = sparse.SparseDataset([[1, 2, 3]])
        assert ds.nbytes_of(0) == 3 * 8  # int64 items

    def test_mean_record_size(self):
        ds = sparse.SparseDataset([[1, 2], [3, 4, 5, 6]])
        assert ds.mean_record_size() == 3.0

    def test_empty_dataset_mean(self):
        assert sparse.SparseDataset([]).mean_record_size() == 0.0

    def test_dtype(self):
        ds = sparse.SparseDataset([[1]])
        assert ds.dtype == np.int64
