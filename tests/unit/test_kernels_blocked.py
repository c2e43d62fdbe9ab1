"""Blocked-kernel conformance (DESIGN.md section 17).

Pins the exactness contract of ``repro.distances.blocked`` against the
rowwise kernels and scipy references, per metric x dtype x shape:

- ``sqeuclidean`` pairwise is **bit-exact** against the dense float64
  pairwise form for *every* tile size (same expansion, same term order,
  and BLAS GEMM per-row results are M-invariant — asserted empirically
  here so a BLAS swap that breaks the assumption fails loudly).
- Everything else is held to documented ulp envelopes: float64 input
  within ``rtol=1e-9``, float32 input within ``rtol=2e-3 / atol=1e-4``
  (native-dtype arithmetic is the throughput win; the error budget is
  the float32 cancellation of ``-2xy`` against the norm terms).
- The float32 catastrophic-cancellation edge clamps at zero: duplicate
  rows must give exactly 0.0 and never NaN under ``sqrt``.
- Metrics without a blocked form (elementwise + sparse) fall back to
  the exact kernels, bit-for-bit.
- Integer and bool input is promoted to float64 before the expansion,
  so on it every blocked form equals the rowwise kernel: bit for bit
  where the float64 arithmetic is exact on integers (sqeuclidean,
  euclidean, inner_product), within the float64 envelope for cosine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distances import (
    CountingMetric,
    NormCache,
    blocked_metrics,
    dense,
    get_metric,
    list_metrics,
    make_kernels,
    resolve_kernel,
    tile_size_for,
)
from repro.errors import ConfigError

scipy_distance = pytest.importorskip("scipy.spatial.distance")

#: scipy cdist metric names per registry metric (None = no scipy
#: equivalent; reference computed manually).
SCIPY_NAMES = {
    "euclidean": "euclidean",
    "sqeuclidean": "sqeuclidean",
    "cosine": "cosine",
    "inner_product": None,
    "manhattan": "cityblock",
    "chebyshev": "chebyshev",
    "hamming": "hamming",
    "canberra": "canberra",
    "braycurtis": "braycurtis",
    "correlation": "correlation",
}

DENSE_METRICS = [m for m in list_metrics() if not get_metric(m).sparse_input]
SPARSE_METRICS = [m for m in list_metrics() if get_metric(m).sparse_input]

#: (n, m, d) operand shapes: routine, empty, single-row, d=1, and n not
#: divisible by any power-of-two tile size.
SHAPES = [
    pytest.param((37, 29, 13), id="non-divisible"),
    pytest.param((0, 5, 4), id="empty-left"),
    pytest.param((5, 0, 4), id="empty-right"),
    pytest.param((1, 1, 6), id="single-row"),
    pytest.param((7, 9, 1), id="d-1"),
]

DTYPES = [np.float32, np.float64]


def _tolerance(dtype):
    """Documented ulp envelopes (module docstring)."""
    if np.dtype(dtype) == np.float64:
        return dict(rtol=1e-9, atol=1e-12)
    return dict(rtol=2e-3, atol=1e-4)


def _operands(metric: str, n: int, m: int, d: int, dtype, seed=0):
    """Random operands in the metric's natural domain."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, d))
    B = rng.standard_normal((m, d))
    if metric in ("canberra", "braycurtis"):
        A, B = np.abs(A) + 0.1, np.abs(B) + 0.1
    elif metric == "hamming":
        A, B = (A > 0).astype(np.float64), (B > 0).astype(np.float64)
    return A.astype(dtype), B.astype(dtype)


def _reference(metric: str, A, B) -> np.ndarray:
    """Float64 reference matrix: scipy where it has the metric."""
    Af, Bf = np.asarray(A, dtype=np.float64), np.asarray(B, dtype=np.float64)
    name = SCIPY_NAMES[metric]
    if name is None:  # inner_product
        return 1.0 - Af @ Bf.T
    if Af.shape[0] == 0 or Bf.shape[0] == 0:
        return np.zeros((Af.shape[0], Bf.shape[0]))
    out = scipy_distance.cdist(Af, Bf, name)
    if metric == "correlation":
        # Registry convention: zero-variance rows get distance 1 (the
        # cosine zero-norm rule); scipy leaves NaN.
        out[np.isnan(out)] = 1.0
    return out


class TestPairwiseConformance:
    @pytest.mark.parametrize("dtype", DTYPES, ids=["f32", "f64"])
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("metric", DENSE_METRICS)
    def test_blocked_vs_rowwise_vs_scipy(self, metric, shape, dtype):
        n, m, d = shape
        A, B = _operands(metric, n, m, d, dtype)
        got = CountingMetric(metric, kernel="blocked").block(A, B)
        exact = CountingMetric(metric, kernel="rowwise").block(A, B)
        ref = _reference(metric, A, B)
        assert got.shape == (n, m)
        assert got.dtype == np.float64
        tol = _tolerance(dtype)
        np.testing.assert_allclose(got, exact, **tol)
        np.testing.assert_allclose(got, ref, **tol)

    @pytest.mark.parametrize("metric", DENSE_METRICS)
    def test_counts_match_rowwise_kernel(self, metric):
        A, B = _operands(metric, 8, 6, 5, np.float64)
        cm_b = CountingMetric(metric, kernel="blocked")
        cm_r = CountingMetric(metric, kernel="rowwise")
        cm_b.block(A, B)
        cm_r.block(A, B)
        assert cm_b.count == cm_r.count == 48


class TestOneToManyAndRowwise:
    @pytest.mark.parametrize("dtype", DTYPES, ids=["f32", "f64"])
    @pytest.mark.parametrize("metric", DENSE_METRICS)
    def test_one_to_many(self, metric, dtype):
        A, B = _operands(metric, 1, 23, 9, dtype)
        got = CountingMetric(metric, kernel="blocked").distances_to(A[0], B)
        ref = _reference(metric, A, B)[0]
        np.testing.assert_allclose(got, ref, **_tolerance(dtype))

    @pytest.mark.parametrize("dtype", DTYPES, ids=["f32", "f64"])
    @pytest.mark.parametrize("metric", DENSE_METRICS)
    def test_paired_rows(self, metric, dtype):
        A, B = _operands(metric, 21, 21, 9, dtype)
        got = CountingMetric(metric, kernel="blocked").rowwise(A, B)
        full = _reference(metric, A, B)
        ref = np.array([full[i, i] for i in range(21)])
        np.testing.assert_allclose(got, ref, **_tolerance(dtype))

    @pytest.mark.parametrize("metric", blocked_metrics())
    def test_paired_rows_broadcast_side(self, metric):
        """A 1-D side broadcasts against the other's rows, matching the
        stacked form bit-for-bit (the backends ship both layouts)."""
        A, B = _operands(metric, 11, 11, 6, np.float64)
        cm = CountingMetric(metric, kernel="blocked")
        q = A[0]
        stacked = cm.rowwise(np.broadcast_to(q, B.shape).copy(), B)
        broadcast = cm.rowwise(q, B)
        np.testing.assert_array_equal(stacked, broadcast)


class TestSqeuclideanBitExact:
    """The bit-exactness domain is the *single-tile* f64 case: one tile
    covering the whole input issues the same single GEMM with the same
    term order as ``dense.sqeuclidean_pairwise``.  Smaller tiles change
    the GEMM operand extents, which legitimately changes low-order bits
    (BLAS gemv/gemm micro-kernels and N-dependent blocking), so the
    multi-tile guarantee is determinism + f64 ulp agreement."""

    def test_bit_exact_vs_dense_pairwise_single_tile(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((37, 13))
        B = rng.standard_normal((29, 13))
        ref = dense.sqeuclidean_pairwise(A, B)
        got = make_kernels("sqeuclidean", tile=4096).pairwise(A, B)
        np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("tile", [1, 5, 16, 37])
    def test_multi_tile_deterministic_and_ulp_close(self, tile):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((37, 13))
        B = rng.standard_normal((29, 13))
        ref = dense.sqeuclidean_pairwise(A, B)
        bundle = make_kernels("sqeuclidean", tile=tile)
        got = bundle.pairwise(A, B)
        np.testing.assert_array_equal(bundle.pairwise(A, B), got)
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-12)

    def test_euclidean_pairwise_bit_exact_f64(self):
        """sqrt of a bit-exact matrix stays bit-exact (the heuristic
        tile at d=8 covers all 19 rows, so this is the single-tile
        domain)."""
        rng = np.random.default_rng(4)
        A = rng.standard_normal((19, 8))
        got = CountingMetric("euclidean", kernel="blocked").block(A, A)
        ref = dense.euclidean_pairwise(A, A)
        np.testing.assert_array_equal(got, ref)


class TestFloat32Cancellation:
    """The ``-2xy`` expansion can go slightly negative for near-duplicate
    float32 points; every blocked form clamps at zero before any sqrt
    (the ROADMAP's duplicate-heavy scenario)."""

    @pytest.fixture()
    def duplicate_heavy(self):
        rng = np.random.default_rng(7)
        base = (rng.random((40, 12)) * 1000).astype(np.float32)
        jitter = base + rng.normal(
            scale=1e-4, size=base.shape).astype(np.float32)
        return np.vstack([base, base, jitter]).astype(np.float32)

    @pytest.mark.parametrize("metric", ["sqeuclidean", "euclidean"])
    def test_no_negatives_no_nans(self, metric, duplicate_heavy):
        X = duplicate_heavy
        cm = CountingMetric(metric, kernel="blocked")
        for out in (cm.block(X, X), cm.rowwise(X[:40], X[40:80]),
                    cm.distances_to(X[0], X)):
            assert np.isfinite(out).all()
            assert (out >= 0.0).all()

    def test_exact_duplicates_are_zero(self, duplicate_heavy):
        X = duplicate_heavy
        cm = CountingMetric("sqeuclidean", kernel="blocked")
        np.testing.assert_array_equal(cm.rowwise(X[:40], X[40:80]),
                                      np.zeros(40))


def _integer_operands(n: int, m: int, d: int, dtype, seed=0):
    """Operands over the whole range of ``dtype`` (bool: random bits)."""
    rng = np.random.default_rng(seed)
    if dtype is np.bool_:
        return rng.random((n, d)) < 0.5, rng.random((m, d)) < 0.5
    info = np.iinfo(dtype)

    def draw(rows):
        return rng.integers(info.min, info.max, size=(rows, d),
                            endpoint=True).astype(dtype)

    return draw(n), draw(m)


class TestIntegerInput:
    """Integer products in their own dtype wrap around (uint8 ``@``
    uint8 is uint8); the blocked forms promote such input to float64,
    where every term of the expansion is an exact integer."""

    @pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.bool_],
                             ids=["uint8", "int8", "bool"])
    @pytest.mark.parametrize("metric", blocked_metrics())
    def test_every_form_matches_rowwise_kernel(self, metric, dtype):
        A, B = _integer_operands(13, 11, 37, dtype)
        A[4] = 0  # a zero row: cosine's distance-1 convention
        blocked = CountingMetric(metric, kernel="blocked")
        exact = CountingMetric(metric, kernel="rowwise")
        if metric == "cosine":
            def check(got, want):
                np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
        else:
            check = np.testing.assert_array_equal
        pairs = [("block", (A, B)), ("rowwise", (A[:11], B)),
                 ("rowwise", (A[0], B)), ("rowwise", (B, A[4])),
                 ("distances_to", (A[0], B)), ("distances_to", (A[4], B))]
        for form, args in pairs:
            got = getattr(blocked, form)(*args)
            assert got.dtype == np.float64
            check(got, getattr(exact, form)(*args))


class TestFallbacks:
    @pytest.mark.parametrize("metric", SPARSE_METRICS)
    def test_sparse_metrics_keep_exact_kernels(self, metric):
        cm = CountingMetric(metric, kernel="blocked")
        assert cm._blocked is None
        assert cm.tile_flops == 0

    def test_metrics_without_blocked_form(self):
        for metric in set(DENSE_METRICS) - set(blocked_metrics()):
            assert make_kernels(metric) is None
            cm = CountingMetric(metric, kernel="blocked")
            A, B = _operands(metric, 6, 4, 5, np.float64)
            np.testing.assert_array_equal(
                cm.block(A, B),
                CountingMetric(metric, kernel="rowwise").block(A, B))


class TestResolveKernel:
    def test_config_value_wins_over_env(self):
        assert resolve_kernel("rowwise", env={"REPRO_KERNEL": "blocked"}) \
            == "rowwise"

    def test_env_fallback_then_default(self):
        assert resolve_kernel(None, env={"REPRO_KERNEL": "blocked"}) \
            == "blocked"
        assert resolve_kernel(None, env={}) == "rowwise"

    def test_unknown_kernel_raises(self):
        with pytest.raises(ConfigError, match="unknown distance kernel"):
            resolve_kernel("simd", env={})


class TestTileHeuristic:
    def test_bounds_and_alignment(self):
        for dim in (1, 8, 32, 128, 1024, 10_000):
            for itemsize in (4, 8):
                t = tile_size_for(dim, itemsize)
                assert 16 <= t <= 1024
                assert t % 16 == 0

    def test_monotone_in_dim(self):
        tiles = [tile_size_for(d, 4) for d in (8, 64, 512, 4096)]
        assert tiles == sorted(tiles, reverse=True)


class TestNormCache:
    def test_hit_on_same_object(self):
        cache = NormCache()
        X = np.arange(12, dtype=np.float64).reshape(4, 3)
        n1 = cache.norms(X)
        n2 = cache.norms(X)
        assert n1 is n2
        assert (cache.hits, cache.misses) == (1, 1)
        np.testing.assert_array_equal(n1, np.einsum("ij,ij->i", X, X))

    def test_dead_entries_self_evict(self):
        cache = NormCache()
        X = np.ones((3, 2))
        cache.norms(X)
        assert len(cache) == 1
        del X
        import gc
        gc.collect()
        assert len(cache) == 0


class TestTileFlops:
    def test_pairwise_flops_charged_per_tile(self):
        A = np.ones((10, 4))
        B = np.ones((7, 4))
        cm = CountingMetric("sqeuclidean", kernel="blocked")
        cm.block(A, B)
        assert cm.tile_flops == 2 * 10 * 7 * 4

    def test_rowwise_kernel_reports_zero(self):
        cm = CountingMetric("sqeuclidean", kernel="rowwise")
        cm.block(np.ones((4, 3)), np.ones((4, 3)))
        assert cm.tile_flops == 0
