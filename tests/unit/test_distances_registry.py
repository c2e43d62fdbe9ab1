"""Metric registry: lookups, aliases, custom registration."""

import numpy as np
import pytest

from repro.distances.registry import (
    Metric,
    get_metric,
    list_metrics,
    register_metric,
)
from repro.errors import MetricError


class TestGetMetric:
    def test_builtin_names(self):
        for name in ("euclidean", "sqeuclidean", "cosine", "jaccard",
                     "manhattan", "chebyshev", "hamming", "inner_product"):
            assert get_metric(name).name == name

    def test_case_insensitive(self):
        assert get_metric("Cosine").name == "cosine"

    def test_aliases(self):
        assert get_metric("l2").name == "euclidean"
        assert get_metric("angular").name == "cosine"
        assert get_metric("ip").name == "inner_product"
        assert get_metric("l1").name == "manhattan"

    def test_metric_passthrough(self):
        m = get_metric("cosine")
        assert get_metric(m) is m

    def test_unknown_raises_with_available_list(self):
        with pytest.raises(MetricError, match="euclidean"):
            get_metric("nope")

    def test_list_metrics_sorted(self):
        names = list_metrics()
        assert names == sorted(names)
        assert "jaccard" in names


class TestMetricObject:
    def test_call_is_scalar(self):
        m = get_metric("euclidean")
        assert m(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_rowwise_dists_one_to_many(self):
        m = get_metric("sqeuclidean")
        q = np.zeros(3)
        X = np.eye(3)
        np.testing.assert_allclose(m.rowwise_dists(q, X), [1, 1, 1])

    def test_rowwise_dists_sparse_one_to_many(self):
        m = get_metric("jaccard")
        q = np.array([1, 2])
        records = [np.array([1, 2]), np.array([3, 4])]
        np.testing.assert_allclose(m.rowwise_dists(q, records), [0.0, 1.0])

    def test_block_vectorized(self):
        m = get_metric("euclidean")
        X = np.zeros((2, 2))
        Y = np.array([[3.0, 4.0]])
        np.testing.assert_allclose(m.block(X, Y), [[5.0], [5.0]])

    def test_block_scalar_fallback(self):
        m = get_metric("jaccard")
        recs = [np.array([1]), np.array([2])]
        out = m.block(recs, recs)
        np.testing.assert_allclose(out, [[0, 1], [1, 0]])

    def test_sparse_flag(self):
        assert get_metric("jaccard").sparse_input
        assert not get_metric("euclidean").sparse_input


class TestRegisterMetric:
    def test_register_and_lookup(self):
        m = Metric("test_canberra_xyz", lambda a, b: 0.5)
        register_metric(m)
        assert get_metric("test_canberra_xyz") is m

    def test_duplicate_rejected(self):
        m = Metric("test_dup_xyz", lambda a, b: 0.0)
        register_metric(m)
        with pytest.raises(MetricError):
            register_metric(Metric("test_dup_xyz", lambda a, b: 1.0))

    def test_overwrite_allowed(self):
        register_metric(Metric("test_ow_xyz", lambda a, b: 0.0))
        replacement = Metric("test_ow_xyz", lambda a, b: 1.0)
        register_metric(replacement, overwrite=True)
        assert get_metric("test_ow_xyz") is replacement

    def test_custom_metric_usable_by_algorithms(self):
        # A genuinely custom metric must flow through NN-Descent.
        def canberra(a, b):
            a = np.asarray(a, dtype=np.float64)
            b = np.asarray(b, dtype=np.float64)
            denom = np.abs(a) + np.abs(b)
            mask = denom > 0
            return float((np.abs(a - b)[mask] / denom[mask]).sum())

        register_metric(Metric("test_canberra_algo", canberra), overwrite=True)
        from repro import build_knn_graph
        rng = np.random.default_rng(0)
        data = rng.random((60, 5)).astype(np.float32)
        res = build_knn_graph(data, k=4, metric="test_canberra_algo", seed=0)
        res.graph.validate()
