"""Named metric registry.

A :class:`Metric` bundles the forms a metric can take — the scalar
reference, the exact rowwise form (paired rows, or one vector against
many rows) and the pairwise block — plus metadata (its per-vertex norm
table, and whether it operates on dense matrices or sparse set
records).  Algorithms look metrics up by name so that configs remain
plain data (Section 5.1's "Similarity Metric" column maps directly onto
these names).
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
    pairwise:
        Vectorized block form ``theta(A, B) -> (n, m)`` or ``None``.
    rowwise:
        Paired-rows form ``theta(A[i], B[i]) -> (n,)`` that is
        *bit-identical* to calling ``scalar`` per row (either side may
        be a single broadcast vector, which makes it the one-vs-many
        form ``theta(q, X[i])``), or ``None``.  This is the only batched
        form the construction and search hot paths may use: the batch
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
    "euclidean", dense.euclidean, pairwise=dense.euclidean_pairwise,
    rowwise=dense.euclidean_rowwise))
register_metric(Metric(
    "sqeuclidean", dense.sqeuclidean, pairwise=dense.sqeuclidean_pairwise,
    rowwise=dense.sqeuclidean_rowwise))
register_metric(Metric(
    "cosine", dense.cosine, pairwise=dense.cosine_pairwise,
    rowwise=dense.cosine_rowwise, row_norms=dense.cosine_row_norms))
register_metric(Metric(
    "inner_product", dense.inner_product,
    pairwise=dense.inner_product_pairwise,
    rowwise=dense.inner_product_rowwise))
register_metric(Metric(
    "manhattan", dense.manhattan, pairwise=dense.manhattan_pairwise,
    rowwise=dense.manhattan_rowwise))
register_metric(Metric(
    "chebyshev", dense.chebyshev, pairwise=dense.chebyshev_pairwise,
    rowwise=dense.chebyshev_rowwise))
register_metric(Metric(
    "hamming", dense.hamming, pairwise=dense.hamming_pairwise,
    rowwise=dense.hamming_rowwise))
register_metric(Metric("canberra", dense.canberra,
                       rowwise=dense.canberra_rowwise))
register_metric(Metric("braycurtis", dense.braycurtis,
                       rowwise=dense.braycurtis_rowwise))
register_metric(Metric("correlation", dense.correlation,
                       rowwise=dense.correlation_rowwise))
register_metric(Metric("jaccard", sparse.jaccard, sparse_input=True))
register_metric(Metric("dice", sparse.dice, sparse_input=True))
register_metric(Metric("overlap", sparse.overlap, sparse_input=True))
