#!/usr/bin/env python
"""Bring your own distance function.

NN-Descent's core selling point (Section 3.1): it "works on any data as
long as the distance metric can calculate the distance between any
vertex pair".  This example registers a *weighted* Euclidean metric
(feature importances, a common need in tabular similarity search) and
runs the entire pipeline — distributed construction, optimization,
search, recall — against it with zero algorithm changes.

Run:  python examples/custom_metric.py
"""

import numpy as np

from repro import (
    DNND,
    ClusterConfig,
    DNNDConfig,
    KNNGraphSearcher,
    NNDescentConfig,
    brute_force_knn_graph,
    graph_recall,
    register_metric,
)
from repro.distances.registry import Metric
from repro.datasets import gaussian_mixture

#: Feature importances: the first quarter of the features carries most
#: of the signal (say, curated attributes vs noisy tail features).
DIM = 24
WEIGHTS = np.concatenate([np.full(DIM // 4, 4.0), np.ones(DIM - DIM // 4)])


def weighted_sqeuclidean(a, b) -> float:
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return float((WEIGHTS * d * d).sum())


def weighted_sqeuclidean_rows(A, B) -> np.ndarray:
    """The metric on paired rows (either side may be one vector, as in a
    search's one-vs-many call).  It must equal the scalar form bit for
    bit: the same float64 difference, the same products, and a sum along
    C-ordered rows, which reduces each row as the 1-D ``sum`` does."""
    d = np.subtract(A, B, dtype=np.float64, order="C")
    return (WEIGHTS * d * d).sum(axis=-1)


def main() -> None:
    register_metric(Metric(
        "weighted_sqeuclidean",
        weighted_sqeuclidean,
        rowwise=weighted_sqeuclidean_rows,
    ), overwrite=True)
    print("registered custom metric 'weighted_sqeuclidean' "
          f"(first {DIM // 4} features weighted 4x)")

    data = gaussian_mixture(1200, DIM, n_clusters=12, cluster_std=0.35,
                            seed=33, arrangement="chain")

    cfg = DNNDConfig(nnd=NNDescentConfig(
        k=10, metric="weighted_sqeuclidean", seed=33))
    dnnd = DNND(data, cfg, cluster=ClusterConfig(nodes=4, procs_per_node=2))
    result = dnnd.build()
    adjacency = dnnd.optimize()
    print(f"built in {result.iterations} iterations "
          f"({result.distance_evals:,} custom-metric evaluations)")

    truth = brute_force_knn_graph(data, k=10, metric="weighted_sqeuclidean")
    print(f"graph recall under the custom metric: "
          f"{graph_recall(result.graph, truth):.4f}")

    searcher = KNNGraphSearcher(adjacency, data,
                                metric="weighted_sqeuclidean", seed=0)
    res = searcher.query(data[10], l=5, epsilon=0.2)
    print(f"5-NN of point 10 (weighted space): {res.ids.tolist()}")

    # The weighting matters: compare against plain L2 neighbors.
    plain = brute_force_knn_graph(data, k=10, metric="sqeuclidean")
    overlap = graph_recall(truth, plain)
    print(f"overlap between weighted and plain L2 neighborhoods: "
          f"{overlap:.3f} (the metric changes the answer)")


if __name__ == "__main__":
    main()
