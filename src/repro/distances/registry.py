"""Named metric registry.

A :class:`Metric` bundles the three forms a metric can take — scalar,
one-to-many, and pairwise-block — plus metadata (whether it operates on
dense matrices or sparse set records).  Algorithms look metrics up by
name so that configs remain plain data (Section 5.1's "Similarity
Metric" column maps directly onto these names).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from ..errors import MetricError
from . import dense, sparse


@dataclass(frozen=True)
class Metric:
    """A registered distance metric.

    Attributes
    ----------
    name:
        Registry key (lowercase).
    scalar:
        ``theta(a, b) -> float`` — the Section 2 distance function.
    one_to_many:
        Vectorized ``theta(q, X) -> (n,)`` or ``None`` if unavailable.
    pairwise:
        Vectorized block form ``theta(A, B) -> (n, m)`` or ``None``.
    rowwise:
        Paired-rows form ``theta(A[i], B[i]) -> (n,)`` that is
        *bit-identical* to calling ``scalar`` per row (either side may
        be a single broadcast vector), or ``None``.  This is the only
        batched form the construction hot path may use: the batch
        execution engine relies on it to keep batched builds equal to
        scalar builds down to the last float bit.
    row_norms:
        ``X -> (n,)``: the per-vertex norm table ``rowwise`` reads
        through its ``norms=`` argument (made by ``rowwise``'s own
        per-row reduction, so reading it is bit-identical to
        recomputing), or ``None`` when ``rowwise`` reads no norms.
    sparse_input:
        True for set-valued metrics (Jaccard family).
    """

    name: str
    scalar: Callable[[np.ndarray, np.ndarray], float]
    one_to_many: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    pairwise: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    rowwise: Optional[Callable[..., np.ndarray]] = None
    row_norms: Optional[Callable[[np.ndarray], np.ndarray]] = None
    sparse_input: bool = False

    def __call__(self, a: np.ndarray, b: np.ndarray) -> float:
        return self.scalar(a, b)

    def rowwise_dists(self, A, B, norms=None) -> np.ndarray:
        """Paired-rows distances, exact: uses ``rowwise`` when present,
        otherwise a scalar loop (bit-identical by construction).
        ``norms`` — the two sides' entries of the :attr:`row_norms`
        table, for a metric that has one — is handed to ``rowwise``."""
        if self.rowwise is not None and not self.sparse_input:
            if norms is not None:
                return self.rowwise(A, B, norms=norms)
            return self.rowwise(A, B)
        scalar = self.scalar
        a_single = getattr(A, "ndim", 2) == 1
        b_single = getattr(B, "ndim", 2) == 1
        if a_single:
            return np.array([scalar(A, b) for b in B], dtype=np.float64)
        if b_single:
            return np.array([scalar(a, B) for a in A], dtype=np.float64)
        return np.array([scalar(a, b) for a, b in zip(A, B)], dtype=np.float64)

    def distances_to(self, q: np.ndarray, X) -> np.ndarray:
        """One-to-many distances, vectorized when possible."""
        if self.one_to_many is not None and not self.sparse_input:
            return self.one_to_many(q, X)
        return np.array([self.scalar(q, X[i]) for i in range(len(X))], dtype=np.float64)

    def block(self, A, B) -> np.ndarray:
        """Pairwise block, vectorized when possible."""
        if self.pairwise is not None and not self.sparse_input:
            return self.pairwise(A, B)
        out = np.empty((len(A), len(B)), dtype=np.float64)
        for i in range(len(A)):
            for j in range(len(B)):
                out[i, j] = self.scalar(A[i], B[j])
        return out


_REGISTRY: Dict[str, Metric] = {}


def register_metric(metric: Metric, overwrite: bool = False) -> Metric:
    """Register a metric; raises on duplicate names unless ``overwrite``."""
    key = metric.name.lower()
    if key in _REGISTRY and not overwrite:
        raise MetricError(f"metric {key!r} already registered")
    _REGISTRY[key] = metric
    return metric


def get_metric(name) -> Metric:
    """Look up a metric by name (case-insensitive); passes Metric through."""
    if isinstance(name, Metric):
        return name
    key = str(name).lower()
    # Friendly aliases seen in ANN-Benchmarks configs.
    aliases = {
        "l2": "euclidean",
        "angular": "cosine",
        "ip": "inner_product",
        "dot": "inner_product",
        "l1": "manhattan",
        "linf": "chebyshev",
    }
    key = aliases.get(key, key)
    try:
        return _REGISTRY[key]
    except KeyError:
        raise MetricError(
            f"unknown metric {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def list_metrics() -> List[str]:
    return sorted(_REGISTRY)


# ---------------------------------------------------------------------------
# Built-in registrations
# ---------------------------------------------------------------------------

register_metric(Metric(
    "euclidean", dense.euclidean, dense.euclidean_one_to_many,
    dense.euclidean_pairwise, dense.euclidean_rowwise))
register_metric(Metric(
    "sqeuclidean", dense.sqeuclidean, dense.sqeuclidean_one_to_many,
    dense.sqeuclidean_pairwise, dense.sqeuclidean_rowwise))
register_metric(Metric(
    "cosine", dense.cosine, dense.cosine_one_to_many, dense.cosine_pairwise,
    dense.cosine_rowwise, dense.cosine_row_norms))
register_metric(Metric(
    "inner_product", dense.inner_product, dense.inner_product_one_to_many,
    dense.inner_product_pairwise, dense.inner_product_rowwise))
register_metric(Metric(
    "manhattan", dense.manhattan, dense.manhattan_one_to_many,
    dense.manhattan_pairwise, dense.manhattan_rowwise))
register_metric(Metric(
    "chebyshev", dense.chebyshev, dense.chebyshev_one_to_many,
    dense.chebyshev_pairwise, dense.chebyshev_rowwise))
register_metric(Metric(
    "hamming", dense.hamming, dense.hamming_one_to_many,
    dense.hamming_pairwise, dense.hamming_rowwise))
register_metric(Metric("canberra", dense.canberra, dense.canberra_one_to_many))
register_metric(Metric("braycurtis", dense.braycurtis, dense.braycurtis_one_to_many))
register_metric(Metric(
    "correlation", dense.correlation, dense.correlation_one_to_many))
register_metric(Metric("jaccard", sparse.jaccard, sparse_input=True))
register_metric(Metric("dice", sparse.dice, sparse_input=True))
register_metric(Metric("overlap", sparse.overlap, sparse_input=True))
