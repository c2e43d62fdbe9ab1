"""Dense-vector metrics: scalar and batched forms.

Scalar forms take two 1-D arrays and return a Python float — this is the
unit of work charged by the simulated cost model (one "distance
evaluation" in the paper's sense).  Batched forms compute one-vs-many or
many-vs-many distances with numpy broadcasting; they are used by the
shared-memory NN-Descent, the brute-force baseline, and the query
program, where the paper's implementations are also vectorized (C++/
OpenMP / numba).

All metrics return values in ``[0, inf)`` with smaller = closer, per
Section 2.  Cosine and inner-product similarities are converted to
distances accordingly.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# Scalar metrics
# ---------------------------------------------------------------------------


def sqeuclidean(a: np.ndarray, b: np.ndarray) -> float:
    """Squared L2 distance (monotone in L2; cheaper, same neighbor order)."""
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return float(np.dot(d, d))


def euclidean(a: np.ndarray, b: np.ndarray) -> float:
    """L2 distance — the metric of MNIST/Fashion-MNIST/DEEP1B/BigANN."""
    return float(np.sqrt(sqeuclidean(a, b)))


def manhattan(a: np.ndarray, b: np.ndarray) -> float:
    """L1 distance."""
    return float(np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)).sum())


def chebyshev(a: np.ndarray, b: np.ndarray) -> float:
    """L-infinity distance."""
    return float(np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)).max())


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine *distance*: ``1 - cos_sim`` — GloVe/NYTimes/Last.fm metric.

    Zero vectors are treated as maximally distant from everything
    (distance 1), matching pynndescent's convention.  Every cosine form
    clamps into ``[0, 2]``: a norm that squares to a subnormal is inexact.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na = np.sqrt(np.dot(a, a))
    nb = np.sqrt(np.dot(b, b))
    if na == 0.0 or nb == 0.0:
        return 1.0
    sim = np.dot(a, b) / (na * nb)
    return float(min(2.0, max(0.0, 1.0 - sim)))


def inner_product(a: np.ndarray, b: np.ndarray) -> float:
    """Negative-inner-product distance shifted to be >= 0 is impossible in
    general; we follow hnswlib's IP space: ``1 - <a, b>`` (callers using
    it are expected to normalize or accept negative values clipped at 0
    only for display)."""
    return float(1.0 - np.dot(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)))


def hamming(a: np.ndarray, b: np.ndarray) -> float:
    """Normalized Hamming distance over equal-length discrete vectors."""
    a = np.asarray(a)
    b = np.asarray(b)
    return float(np.count_nonzero(a != b)) / float(a.shape[0])


def canberra(a: np.ndarray, b: np.ndarray) -> float:
    """Canberra distance: sum |a-b| / (|a|+|b|), zero-denominator terms
    contribute 0 (scipy's convention)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.abs(a) + np.abs(b)
    mask = denom > 0
    return float((np.abs(a - b)[mask] / denom[mask]).sum())


def braycurtis(a: np.ndarray, b: np.ndarray) -> float:
    """Bray-Curtis dissimilarity: sum|a-b| / sum|a+b| (0 when both sums
    vanish)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.abs(a + b).sum()
    if denom == 0.0:
        return 0.0
    return float(np.abs(a - b).sum() / denom)


def correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Correlation distance: cosine distance of the mean-centered
    vectors (constant vectors are maximally distant, distance 1)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return cosine(a - a.mean(), b - b.mean())


def make_minkowski(p: float):
    """Factory for an L_p (Minkowski) distance, ``p >= 1``.

    Register the result to use it by name::

        register_metric(Metric("minkowski3", make_minkowski(3)))
    """
    if p < 1:
        raise ValueError(f"Minkowski requires p >= 1, got {p}")

    def minkowski(a: np.ndarray, b: np.ndarray) -> float:
        d = np.abs(np.asarray(a, dtype=np.float64)
                   - np.asarray(b, dtype=np.float64))
        return float((d ** p).sum() ** (1.0 / p))

    minkowski.__name__ = f"minkowski_p{p}"
    return minkowski


# ---------------------------------------------------------------------------
# Batched metrics: one query against a matrix of rows
# ---------------------------------------------------------------------------


def sqeuclidean_one_to_many(q: np.ndarray, X: np.ndarray) -> np.ndarray:
    d = X.astype(np.float64, copy=False) - np.asarray(q, dtype=np.float64)
    return np.einsum("ij,ij->i", d, d)


def euclidean_one_to_many(q: np.ndarray, X: np.ndarray) -> np.ndarray:
    return np.sqrt(sqeuclidean_one_to_many(q, X))


def manhattan_one_to_many(q: np.ndarray, X: np.ndarray) -> np.ndarray:
    return np.abs(X.astype(np.float64, copy=False) - np.asarray(q, dtype=np.float64)).sum(axis=1)


def chebyshev_one_to_many(q: np.ndarray, X: np.ndarray) -> np.ndarray:
    return np.abs(X.astype(np.float64, copy=False) - np.asarray(q, dtype=np.float64)).max(axis=1)


def cosine_one_to_many(q: np.ndarray, X: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    Xf = X.astype(np.float64, copy=False)
    nq = np.sqrt(np.dot(q, q))
    nx = np.sqrt(np.einsum("ij,ij->i", Xf, Xf))
    out = np.ones(Xf.shape[0], dtype=np.float64)
    if nq == 0.0:
        return out
    nonzero = nx > 0
    sims = (Xf[nonzero] @ q) / (nx[nonzero] * nq)
    out[nonzero] = np.clip(1.0 - sims, 0.0, 2.0)
    return out


def inner_product_one_to_many(q: np.ndarray, X: np.ndarray) -> np.ndarray:
    return 1.0 - X.astype(np.float64, copy=False) @ np.asarray(q, dtype=np.float64)


def hamming_one_to_many(q: np.ndarray, X: np.ndarray) -> np.ndarray:
    return np.count_nonzero(X != np.asarray(q), axis=1) / float(X.shape[1])


def canberra_one_to_many(q: np.ndarray, X: np.ndarray) -> np.ndarray:
    qf = np.asarray(q, dtype=np.float64)
    Xf = X.astype(np.float64, copy=False)
    denom = np.abs(Xf) + np.abs(qf)
    num = np.abs(Xf - qf)
    with np.errstate(invalid="ignore", divide="ignore"):
        terms = np.where(denom > 0, num / denom, 0.0)
    return terms.sum(axis=1)


def braycurtis_one_to_many(q: np.ndarray, X: np.ndarray) -> np.ndarray:
    qf = np.asarray(q, dtype=np.float64)
    Xf = X.astype(np.float64, copy=False)
    denom = np.abs(Xf + qf).sum(axis=1)
    num = np.abs(Xf - qf).sum(axis=1)
    out = np.zeros(Xf.shape[0], dtype=np.float64)
    nz = denom > 0
    out[nz] = num[nz] / denom[nz]
    return out


def correlation_one_to_many(q: np.ndarray, X: np.ndarray) -> np.ndarray:
    qf = np.asarray(q, dtype=np.float64)
    Xf = X.astype(np.float64, copy=False)
    return cosine_one_to_many(qf - qf.mean(),
                              Xf - Xf.mean(axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# Rowwise kernels: theta(A[i], B[i]) for paired rows, bit-identical to the
# scalar forms
# ---------------------------------------------------------------------------
#
# The batch execution engine (PR 3) replaces per-message scalar metric
# calls with one vectorized evaluation per delivery batch, but the
# batched build must stay *bit-identical* to the scalar build.  The
# einsum / Gram-trick forms above do not qualify: their reduction order
# differs from ``np.dot`` by a few ULPs.  Row-at-a-time ``matmul``
# (``(1, d) @ (d, 1)``) goes through the same dot-product reduction as
# the scalar ``np.dot`` and is observed bitwise-equal across dtypes and
# dimensions (covered by tests/unit/test_distances_dense.py).  Sum- and
# max-reductions along axis 1 are likewise bitwise-equal to their 1-D
# forms.  Metrics whose scalar form masks elements before reducing
# (canberra) or reduces twice (braycurtis, correlation) change summation
# grouping under compaction and get no rowwise form — callers fall back
# to the scalar loop.
#
# Either argument may be a single vector; it is broadcast against the
# other argument's rows, matching ``theta(q, X[i])`` one-vs-many use.


def _rows64(a, b):
    """Promote to float64 and broadcast a 1-D side to the other's rows.

    Rows come back C-ordered whatever layout the caller passed: numpy's
    default (K-order) copy of a stride-0 ``broadcast_to`` view is
    Fortran-ordered, and ``_rowwise_dot`` over such rows reduces in
    another order than ``np.dot`` — 1 ulp off the scalar metric.
    """
    A = np.asarray(a, dtype=np.float64, order="C")
    B = np.asarray(b, dtype=np.float64, order="C")
    if A.ndim == 1:
        A = np.broadcast_to(A, B.shape)
    elif B.ndim == 1:
        B = np.broadcast_to(B, A.shape)
    return A, B


def _diff64(a, b) -> np.ndarray:
    """``a - b`` in float64, C-ordered, a 1-D side broadcast against
    the other's rows.  The cast happens inside the ufunc: no float64
    copy of either operand is made, and the difference is the one the
    scalar forms take of their promoted vectors (the cast is exact)."""
    return np.subtract(a, b, dtype=np.float64, order="C")


def _rowwise_dot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``dot(A[i], B[i])`` with np.dot's exact reduction order."""
    return np.matmul(A[:, None, :], B[:, :, None]).reshape(A.shape[0])


#: Bytes of promoted rows a per-vertex table is computed from at once:
#: an integer dataset is never copied to float64 whole.
_TABLE_BYTES = 1 << 22


def row_table(reduce, X) -> np.ndarray:
    """``reduce`` of the rows of ``X``, over C-ordered row chunks of it:
    the per-row reduction a batched form runs on gathered rows, made
    once for every row of a dataset.  A row's value does not depend on
    which rows share its chunk, so a table entry is bit-identical to the
    form's own reduction of that row."""
    X = np.asarray(X)
    step = max(1, _TABLE_BYTES // (8 * max(1, X.shape[1])))
    return np.concatenate([reduce(np.ascontiguousarray(X[lo:lo + step]))
                           for lo in range(0, max(1, len(X)), step)])


def sqeuclidean_rowwise(a, b) -> np.ndarray:
    d = _diff64(a, b)
    return _rowwise_dot(d, d)


def euclidean_rowwise(a, b) -> np.ndarray:
    return np.sqrt(sqeuclidean_rowwise(a, b))


def manhattan_rowwise(a, b) -> np.ndarray:
    return np.abs(_diff64(a, b)).sum(axis=1)


def chebyshev_rowwise(a, b) -> np.ndarray:
    return np.abs(_diff64(a, b)).max(axis=1)


def _norm64(A: np.ndarray) -> np.ndarray:
    """L2 norm of each row, as the exact cosine takes it."""
    A = np.asarray(A, dtype=np.float64, order="C")
    return np.sqrt(_rowwise_dot(A, A))


def cosine_row_norms(X) -> np.ndarray:
    """Per-vertex norm table of :func:`cosine_rowwise` (its ``norms=``):
    ``sqrt(dot(x, x))`` of every row of ``X`` in float64."""
    return row_table(_norm64, X)


def cosine_rowwise(a, b, norms=None) -> np.ndarray:
    """Exact paired cosine; ``norms = (na, nb)`` are the two sides' row
    norms read from a :func:`cosine_row_norms` table (one value for a
    1-D side) instead of being recomputed from the rows."""
    A, B = _rows64(a, b)
    if norms is None:
        na, nb = np.sqrt(_rowwise_dot(A, A)), np.sqrt(_rowwise_dot(B, B))
    else:
        na, nb = norms
    ab = _rowwise_dot(A, B)
    zero = (na == 0.0) | (nb == 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        sim = ab / (na * nb)
    out = np.clip(1.0 - sim, 0.0, 2.0)
    out[zero] = 1.0
    return out


def inner_product_rowwise(a, b) -> np.ndarray:
    A, B = _rows64(a, b)
    return 1.0 - _rowwise_dot(A, B)


def hamming_rowwise(a, b) -> np.ndarray:
    A = np.asarray(a)
    B = np.asarray(b)
    if A.ndim == 1:
        A = np.broadcast_to(A, B.shape)
    elif B.ndim == 1:
        B = np.broadcast_to(B, A.shape)
    return np.count_nonzero(A != B, axis=1) / float(A.shape[1])


# ---------------------------------------------------------------------------
# Pairwise blocks: rows of A vs rows of B (for brute force / ground truth)
# ---------------------------------------------------------------------------


def sqeuclidean_pairwise(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """||a - b||^2 via the expanded form, computed in float64.

    The Gram-matrix trick (``|a|^2 + |b|^2 - 2ab``) is the standard
    vectorization; float64 accumulation keeps it non-negative enough that
    a final clip is safe.
    """
    Af = A.astype(np.float64, copy=False)
    Bf = B.astype(np.float64, copy=False)
    aa = np.einsum("ij,ij->i", Af, Af)[:, None]
    bb = np.einsum("ij,ij->i", Bf, Bf)[None, :]
    out = aa + bb - 2.0 * (Af @ Bf.T)
    np.maximum(out, 0.0, out=out)
    return out


def euclidean_pairwise(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return np.sqrt(sqeuclidean_pairwise(A, B))


def cosine_pairwise(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    Af = A.astype(np.float64, copy=False)
    Bf = B.astype(np.float64, copy=False)
    na = np.sqrt(np.einsum("ij,ij->i", Af, Af))
    nb = np.sqrt(np.einsum("ij,ij->i", Bf, Bf))
    sims = Af @ Bf.T
    # Zero-norm rows -> similarity 0 -> distance 1.
    na_safe = np.where(na == 0, 1.0, na)
    nb_safe = np.where(nb == 0, 1.0, nb)
    sims /= na_safe[:, None]
    sims /= nb_safe[None, :]
    sims[na == 0, :] = 0.0
    sims[:, nb == 0] = 0.0
    return np.clip(1.0 - sims, 0.0, 2.0)


def manhattan_pairwise(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    Af = A.astype(np.float64, copy=False)
    Bf = B.astype(np.float64, copy=False)
    return np.abs(Af[:, None, :] - Bf[None, :, :]).sum(axis=2)


def chebyshev_pairwise(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    Af = A.astype(np.float64, copy=False)
    Bf = B.astype(np.float64, copy=False)
    return np.abs(Af[:, None, :] - Bf[None, :, :]).max(axis=2)


def inner_product_pairwise(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return 1.0 - A.astype(np.float64, copy=False) @ B.astype(np.float64, copy=False).T


def hamming_pairwise(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return (A[:, None, :] != B[None, :, :]).sum(axis=2) / float(A.shape[1])
