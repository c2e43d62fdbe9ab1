"""Dense metric correctness: scalar, pairwise and rowwise forms (the
rowwise form with a 1-D side is the one-vs-many evaluation)."""

import numpy as np
import pytest

from repro.distances import dense


A = np.array([1.0, 2.0, 3.0])
B = np.array([4.0, 6.0, 3.0])


class TestScalar:
    def test_sqeuclidean(self):
        assert dense.sqeuclidean(A, B) == pytest.approx(9 + 16)

    def test_euclidean(self):
        assert dense.euclidean(A, B) == pytest.approx(5.0)

    def test_manhattan(self):
        assert dense.manhattan(A, B) == pytest.approx(7.0)

    def test_chebyshev(self):
        assert dense.chebyshev(A, B) == pytest.approx(4.0)

    def test_cosine_identical_is_zero(self):
        assert dense.cosine(A, A) == pytest.approx(0.0, abs=1e-12)

    def test_cosine_orthogonal_is_one(self):
        assert dense.cosine([1, 0], [0, 1]) == pytest.approx(1.0)

    def test_cosine_zero_vector(self):
        assert dense.cosine([0, 0], [1, 2]) == 1.0
        assert dense.cosine([1, 2], [0, 0]) == 1.0

    def test_inner_product(self):
        assert dense.inner_product([1, 2], [3, 4]) == pytest.approx(1 - 11)

    def test_hamming(self):
        assert dense.hamming([1, 2, 3, 4], [1, 0, 3, 0]) == pytest.approx(0.5)

    def test_hamming_identical(self):
        assert dense.hamming([1, 2], [1, 2]) == 0.0

    def test_identity_of_indiscernibles_l2(self):
        assert dense.euclidean(A, A) == 0.0

    def test_uint8_inputs(self):
        a = np.array([250, 3], dtype=np.uint8)
        b = np.array([1, 255], dtype=np.uint8)
        # Must not overflow uint8 arithmetic.
        assert dense.sqeuclidean(a, b) == pytest.approx(249**2 + 252**2)


def _one_to_many(name):
    """The one-vs-many evaluation of metric ``name``: its rowwise form
    with a 1-D ``q``."""
    return pytest.param(getattr(dense, name), getattr(dense, name + "_rowwise"),
                        id=f"{name}-{name}_one_to_many")


ONE_TO_MANY = [_one_to_many(name) for name in (
    "sqeuclidean", "euclidean", "manhattan", "chebyshev", "cosine",
    "inner_product")]


class TestOneToMany:
    @pytest.mark.parametrize("scalar,batch", ONE_TO_MANY)
    def test_matches_scalar(self, scalar, batch):
        rng = np.random.default_rng(0)
        q = rng.normal(size=7)
        X = rng.normal(size=(20, 7))
        got = batch(q, X)
        want = np.array([scalar(q, X[i]) for i in range(20)])
        assert got.tobytes() == want.tobytes()

    def test_hamming_one_to_many(self):
        q = np.array([1, 2, 3])
        X = np.array([[1, 2, 3], [0, 0, 0], [1, 0, 3]])
        np.testing.assert_allclose(
            dense.hamming_rowwise(q, X), [0.0, 1.0, 1 / 3]
        )

    def test_cosine_zero_rows(self):
        q = np.array([1.0, 0.0])
        X = np.array([[0.0, 0.0], [1.0, 0.0]])
        out = dense.cosine_rowwise(q, X)
        assert out[0] == 1.0 and out[1] == pytest.approx(0.0, abs=1e-12)


PAIRWISE = [
    (dense.sqeuclidean, dense.sqeuclidean_pairwise),
    (dense.euclidean, dense.euclidean_pairwise),
    (dense.manhattan, dense.manhattan_pairwise),
    (dense.chebyshev, dense.chebyshev_pairwise),
    (dense.cosine, dense.cosine_pairwise),
    (dense.inner_product, dense.inner_product_pairwise),
]


class TestPairwise:
    @pytest.mark.parametrize("scalar,pairwise", PAIRWISE)
    def test_matches_scalar(self, scalar, pairwise):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(6, 5))
        Y = rng.normal(size=(4, 5))
        got = pairwise(X, Y)
        want = np.array([[scalar(X[i], Y[j]) for j in range(4)] for i in range(6)])
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-10)

    def test_sqeuclidean_nonnegative_after_cancellation(self):
        # Near-identical rows stress the expanded-form cancellation.
        X = np.full((3, 4), 1e6)
        out = dense.sqeuclidean_pairwise(X, X)
        assert (out >= 0).all()

    def test_hamming_pairwise(self):
        X = np.array([[1, 2], [3, 4]])
        out = dense.hamming_pairwise(X, X)
        np.testing.assert_allclose(out, [[0, 1], [1, 0]])

    def test_cosine_pairwise_zero_rows(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        out = dense.cosine_pairwise(X, X)
        assert out[0, 0] == 1.0  # zero vs zero
        assert out[0, 1] == 1.0
        assert out[1, 1] == pytest.approx(0.0, abs=1e-12)


#: Every dense metric: each has a rowwise form exact to its scalar.
ROWWISE = ["sqeuclidean", "euclidean", "cosine", "inner_product",
           "manhattan", "chebyshev", "hamming", "canberra", "braycurtis",
           "correlation"]


class TestRowwise:
    """The rowwise kernels are the scalar metric, row for row and bit
    for bit, however the caller lays out a repeated ``q``."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", ROWWISE)
    def test_bit_identical_to_scalar_for_every_layout_of_q(self, name, dtype):
        scalar = getattr(dense, name)
        rowwise = getattr(dense, name + "_rowwise")
        rng = np.random.default_rng(9)
        for dim in (25, 96, 784):
            X = rng.standard_normal((120, dim)).astype(dtype)
            q = rng.standard_normal(dim).astype(dtype)
            want = np.array([scalar(q, x) for x in X]).tobytes()
            # A stride-0 broadcast used to come back Fortran-ordered from
            # the float64 promotion (float32 input), and the dot-product
            # metrics then reduced in another order: 1 ulp off.
            assert rowwise(np.broadcast_to(q, X.shape), X).tobytes() == want
            assert rowwise(q, X).tobytes() == want
            assert rowwise(np.repeat(q[None], len(X), axis=0), X).tobytes() == want
            assert rowwise(X, np.broadcast_to(q, X.shape)).tobytes() == (
                np.array([scalar(x, q) for x in X]).tobytes())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int8])
    @pytest.mark.parametrize("name", ROWWISE)
    def test_bit_identical_to_scalar_on_edge_rows(self, name, dtype):
        """Paired rows, C- or Fortran-ordered, and a broadcast 1-D side
        (as a vector and as a stride-0 view), over zero rows, rows that
        are zero in half their coordinates (canberra's 0/0 terms) and
        constant rows (correlation's zero centred norm)."""
        scalar = getattr(dense, name)
        rowwise = getattr(dense, name + "_rowwise")
        rng = np.random.default_rng(5)
        for dim in (1, 3, 25, 100, 784):
            shape = (2, 40, dim)
            X, Y = (rng.integers(-128, 127, shape) if dtype is np.int8
                    else rng.standard_normal(shape)).astype(dtype)
            X[1] = 0
            Y[2] = 0
            X[3, :(dim + 1) // 2] = Y[3, :(dim + 1) // 2] = 0
            X[4] = X[4, 0]
            want = np.array([scalar(x, y) for x, y in zip(X, Y)]).tobytes()
            assert rowwise(X, Y).tobytes() == want
            assert rowwise(np.asfortranarray(X),
                           np.asfortranarray(Y)).tobytes() == want
            for q in (X[1], X[3], X[4], Y[5]):
                want = np.array([scalar(q, y) for y in Y]).tobytes()
                assert rowwise(q, Y).tobytes() == want
                assert rowwise(np.broadcast_to(q, Y.shape), Y).tobytes() == want
                want = np.array([scalar(y, q) for y in Y]).tobytes()
                assert rowwise(Y, q).tobytes() == want
                assert rowwise(Y, np.broadcast_to(q, Y.shape)).tobytes() == want
