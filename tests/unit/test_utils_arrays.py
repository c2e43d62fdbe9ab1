"""Array helpers."""

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.utils.arrays import as_float32_matrix, chunk_ranges, ensure_2d


class TestEnsure2D:
    def test_vector_promoted(self):
        out = ensure_2d(np.arange(5))
        assert out.shape == (1, 5)

    def test_matrix_passthrough(self):
        x = np.zeros((3, 4))
        assert ensure_2d(x).shape == (3, 4)

    def test_rejects_3d(self):
        with pytest.raises(DatasetError):
            ensure_2d(np.zeros((2, 2, 2)))


class TestAsFloat32Matrix:
    def test_converts_uint8(self):
        out = as_float32_matrix(np.ones((2, 3), dtype=np.uint8))
        assert out.dtype == np.float32

    def test_float32_no_copy_dtype(self):
        x = np.ones((2, 3), dtype=np.float32)
        assert as_float32_matrix(x).dtype == np.float32

    def test_downcasts_float64(self):
        assert as_float32_matrix(np.ones((2, 2))).dtype == np.float32

    def test_rejects_empty(self):
        with pytest.raises(DatasetError):
            as_float32_matrix(np.empty((0, 4)))

    def test_rejects_non_numeric(self):
        with pytest.raises(DatasetError):
            as_float32_matrix(np.array([["a", "b"]]))

    def test_contiguous(self):
        x = np.ones((4, 6), dtype=np.float32)[:, ::2]
        assert as_float32_matrix(x).flags["C_CONTIGUOUS"]


class TestPadColumns:
    def test_pads_to_multiple(self):
        from repro.utils.arrays import pad_columns
        out = pad_columns(np.ones((3, 5)), 4)
        assert out.shape == (3, 8)
        assert (out[:, 5:] == 0).all()

    def test_aligned_passthrough(self):
        from repro.utils.arrays import pad_columns
        x = np.ones((2, 8))
        assert pad_columns(x, 4) is x

    def test_preserves_l2_distances(self):
        from repro.utils.arrays import pad_columns
        from repro.distances.dense import sqeuclidean
        rng = np.random.default_rng(0)
        a, b = rng.random((2, 5))
        pa, pb = pad_columns(np.stack([a, b]), 4)
        assert sqeuclidean(pa, pb) == pytest.approx(sqeuclidean(a, b))

    def test_enables_pq_on_awkward_dims(self):
        from repro.baselines.pq import PQIndex
        from repro.utils.arrays import pad_columns
        rng = np.random.default_rng(1)
        data = rng.random((80, 10)).astype(np.float32)  # 10 % 4 != 0
        padded = pad_columns(data, 4)
        idx = PQIndex(padded, m=4, n_centroids=16, seed=0)
        res = idx.query(padded[0], k=3, rerank=20)
        assert res.ids[0] == 0

    def test_bad_multiple(self):
        from repro.utils.arrays import pad_columns
        with pytest.raises(ValueError):
            pad_columns(np.ones((2, 3)), 0)


class TestChunkRanges:
    def test_covers_exactly(self):
        spans = list(chunk_ranges(10, 3))
        assert spans == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_single_chunk(self):
        assert list(chunk_ranges(5, 100)) == [(0, 5)]

    def test_empty(self):
        assert list(chunk_ranges(0, 4)) == []

    def test_rejects_bad_chunk(self):
        with pytest.raises(ValueError):
            list(chunk_ranges(10, 0))

    def test_exact_multiple(self):
        assert list(chunk_ranges(6, 3)) == [(0, 3), (3, 6)]


class TestAsFiniteMatrix:
    def test_contiguous_input_is_returned_itself(self):
        from repro.utils.arrays import as_finite_matrix

        x = np.ones((4, 3), dtype=np.float32)
        assert as_finite_matrix(x) is x
        strided = np.ones((4, 6))[:, ::2]
        out = as_finite_matrix(strided)
        assert out.flags.c_contiguous and np.array_equal(out, strided)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_names_the_first_offending_row(self, value):
        from repro.utils.arrays import as_finite_matrix

        x = np.zeros((6, 3))
        x[4, 1] = x[2, 2] = value
        with pytest.raises(DatasetError, match=r"features row 2\b"):
            as_finite_matrix(x, "features")

    @pytest.mark.parametrize("shape", [(), (5,), (2, 2, 2)])
    def test_rejects_other_ranks(self, shape):
        from repro.utils.arrays import as_finite_matrix

        with pytest.raises(DatasetError, match="2-D"):
            as_finite_matrix(np.ones(shape))

    def test_integer_matrices_are_finite_by_type(self):
        from repro.utils.arrays import as_finite_matrix

        x = np.arange(12, dtype=np.uint8).reshape(4, 3)
        assert as_finite_matrix(x) is x
