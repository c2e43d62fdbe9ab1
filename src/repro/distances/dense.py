"""Dense-vector metrics: scalar, rowwise and pairwise forms.

Scalar forms take two 1-D arrays and return a Python float — this is the
unit of work charged by the simulated cost model (one "distance
evaluation" in the paper's sense), and the reference every batched form
is checked against.  A metric has at most two batched forms:

- ``*_rowwise(A, B)``: ``theta(A[i], B[i])`` for paired rows, either
  side a single broadcast vector (the one-vs-many case), bit-identical
  to the scalar form.  Builds, searches and one-vs-many calls use it.
- ``*_pairwise(A, B)``: the ``(n, m)`` block of every row of ``A``
  against every row of ``B``, for brute-force ground truth; close to
  the scalar form, not bit-identical.

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
    contribute 0 (scipy's convention).  The zero terms stay in the sum,
    so it reduces every coordinate as the rowwise form does."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.abs(a) + np.abs(b)
    with np.errstate(invalid="ignore", divide="ignore"):
        return float(np.where(denom > 0, np.abs(a - b) / denom, 0.0).sum())


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
# Rowwise kernels: theta(A[i], B[i]) for paired rows, bit-identical to the
# scalar forms
# ---------------------------------------------------------------------------
#
# The batch execution engine replaces per-message scalar metric calls
# with one vectorized evaluation per delivery batch, but the batched
# build must stay *bit-identical* to the scalar build.  Einsum and the
# Gram trick do not qualify: their reduction order differs from
# ``np.dot`` by a few ULPs.  Row-at-a-time ``matmul`` (``(1, d) @ (d,
# 1)``) goes through the same dot-product reduction as the scalar
# ``np.dot`` and is observed bitwise-equal across dtypes and dimensions
# (covered by tests/unit/test_distances_dense.py).  Sum-, mean- and
# max-reductions along axis 1 of C-ordered rows are likewise
# bitwise-equal to their 1-D forms, so every dense metric has an exact
# rowwise form: braycurtis reduces twice, correlation centres by a mean,
# and canberra's scalar sums its zero-denominator terms as zeros rather
# than masking them out.
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


def canberra_rowwise(a, b) -> np.ndarray:
    A = np.asarray(a, dtype=np.float64)
    B = np.asarray(b, dtype=np.float64)
    denom = np.add(np.abs(A), np.abs(B), order="C")
    with np.errstate(invalid="ignore", divide="ignore"):
        terms = np.where(denom > 0, np.abs(_diff64(A, B)) / denom, 0.0)
    return terms.sum(axis=1)


def braycurtis_rowwise(a, b) -> np.ndarray:
    denom = np.abs(np.add(a, b, dtype=np.float64, order="C")).sum(axis=1)
    num = np.abs(_diff64(a, b)).sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(denom > 0, num / denom, 0.0)


def _centred(X) -> np.ndarray:
    """Each row of ``X`` (or ``X`` itself, 1-D) minus its mean, as the
    scalar correlation centres a vector."""
    X = np.asarray(X, dtype=np.float64, order="C")
    return X - X.mean(axis=-1, keepdims=True)


def correlation_rowwise(a, b) -> np.ndarray:
    return cosine_rowwise(_centred(a), _centred(b))


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
