"""Extended metric family: canberra, braycurtis, correlation, minkowski."""

import numpy as np
import pytest
from scipy.spatial import distance as sd

from repro.distances import dense
from repro.distances.registry import Metric, get_metric, register_metric

rng = np.random.default_rng(3)
A = rng.random(12)
B = rng.random(12)


class TestAgainstScipy:
    def test_canberra(self):
        assert dense.canberra(A, B) == pytest.approx(sd.canberra(A, B))

    def test_braycurtis(self):
        assert dense.braycurtis(A, B) == pytest.approx(sd.braycurtis(A, B))

    def test_correlation(self):
        assert dense.correlation(A, B) == pytest.approx(sd.correlation(A, B))

    def test_minkowski_p3(self):
        m = dense.make_minkowski(3)
        assert m(A, B) == pytest.approx(sd.minkowski(A, B, p=3))

    def test_minkowski_p1_is_manhattan(self):
        m = dense.make_minkowski(1)
        assert m(A, B) == pytest.approx(dense.manhattan(A, B))

    def test_minkowski_p2_is_euclidean(self):
        m = dense.make_minkowski(2)
        assert m(A, B) == pytest.approx(dense.euclidean(A, B))


class TestEdgeCases:
    def test_canberra_zero_terms(self):
        assert dense.canberra([0, 1], [0, 1]) == 0.0
        assert dense.canberra([0, 0], [0, 0]) == 0.0

    def test_braycurtis_zero_denominator(self):
        assert dense.braycurtis([0, 0], [0, 0]) == 0.0

    def test_braycurtis_cancelling(self):
        # a + b = 0 elementwise but a != b.
        assert dense.braycurtis([1, -1], [-1, 1]) == 0.0

    def test_correlation_constant_vector(self):
        # Centered constant vector is zero -> distance 1 by convention.
        assert dense.correlation([2, 2, 2], [1, 5, 9]) == 1.0

    def test_minkowski_invalid_p(self):
        with pytest.raises(ValueError):
            dense.make_minkowski(0.5)


def _one_to_many(name):
    """The one-vs-many evaluation of metric ``name``: its rowwise form
    with a 1-D ``q``."""
    return pytest.param(getattr(dense, name), getattr(dense, name + "_rowwise"),
                        id=f"{name}-{name}_one_to_many")


class TestBatchedForms:
    X = rng.random((15, 12))

    @pytest.mark.parametrize("scalar,batch", [
        _one_to_many(n) for n in ("canberra", "braycurtis", "correlation")])
    def test_matches_scalar(self, scalar, batch):
        got = batch(A, self.X)
        want = np.array([scalar(A, self.X[i]) for i in range(15)])
        assert got.tobytes() == want.tobytes()


class TestRegistry:
    @pytest.mark.parametrize("name", ["canberra", "braycurtis", "correlation"])
    def test_registered(self, name):
        assert get_metric(name).name == name

    def test_minkowski_registration_flow(self):
        register_metric(
            Metric("test_minkowski4", dense.make_minkowski(4)), overwrite=True)
        m = get_metric("test_minkowski4")
        assert m(A, B) == pytest.approx(sd.minkowski(A, B, p=4))

    def test_new_metrics_work_in_nndescent(self):
        from repro import build_knn_graph, brute_force_knn_graph, graph_recall
        data = rng.random((150, 8)).astype(np.float32)
        for name in ("canberra", "braycurtis"):
            res = build_knn_graph(data, k=5, metric=name, seed=0)
            truth = brute_force_knn_graph(data, k=5, metric=name)
            assert graph_recall(res.graph, truth) > 0.8, name


class TestRowwiseBuilds:
    @pytest.mark.parametrize("name", ["braycurtis", "correlation"])
    def test_build_equals_scalar_fallback_build(self, name):
        """A DNND build through the vectorized rowwise form is the build
        a copy of the metric without one makes through the per-pair
        scalar loop: same ids, same distance bytes, same evaluations.
        Checked against the scalar reference rather than a recorded
        digest, which another BLAS could move."""
        from dataclasses import replace

        from repro import DNND, ClusterConfig, DNNDConfig, NNDescentConfig

        scalar_only = register_metric(replace(
            get_metric(name), name=f"test_{name}_scalar_only", rowwise=None),
            overwrite=True)
        # float64 rows: sums of float32 values are exact in float64,
        # whatever their order, and would hide a reduction-order slip.
        data = np.random.default_rng(8).random((300, 25))

        def build(metric):
            cfg = DNNDConfig(nnd=NNDescentConfig(k=8, metric=metric, seed=3),
                             backend="sim")
            dnnd = DNND(data, cfg, cluster=ClusterConfig(2, 2))
            try:
                return dnnd.build()
            finally:
                dnnd.close()

        fast, slow = build(name), build(scalar_only.name)
        assert fast.graph.ids.tobytes() == slow.graph.ids.tobytes()
        assert fast.graph.dists.tobytes() == slow.graph.dists.tobytes()
        assert fast.distance_evals == slow.distance_evals
