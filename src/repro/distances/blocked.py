"""Blocked GEMM distance kernels on numpy.

PR 3's rowwise kernels made the batch hot path vectorized but still
row-at-a-time: every paired-rows call pays one reduction per row with no
data reuse across rows.  Following the tiled-GEMM restructuring of
Kluser et al. (single-core k-NN) and Wang et al. (GPU k-NN graphs), this
module evaluates distances through the expansion

    ``||x - y||^2 = ||x||^2 - 2 * x.y + ||y||^2``

tile-at-a-time: the ``-2 X @ Y.T`` term becomes a sequence of dense
matrix-matrix products over row tiles sized to the L2 / BLAS sweet spot,
and the squared-norm vectors are computed once and cached per dataset
(:class:`NormCache`); the paired-rows forms read them from a per-vertex
table made by the same reduction (:func:`sqnorms`, ``rowwise(...,
norms=)``).  Cosine and inner-product get the analogous Gram
forms; metrics with no product structure (manhattan, chebyshev, hamming,
...) have no blocked form and callers fall back to the exact kernels.

Exactness contract (DESIGN.md section 17): float32 and float64 input is
computed in its *native dtype* — that is where the throughput comes
from — so the blocked kernels are **not** bit-identical to the float64
scalar/rowwise path.  Every other input dtype (uint8, int8, bool and
the other integer types) is promoted to float64 before the expansion:
integer products in their own dtype wrap around.  The default
construction kernel therefore stays ``"rowwise"`` (golden trace
bit-identical); ``"blocked"`` is gated by recall parity (<=0.005)
instead.  Squared-euclidean with one tile covering the whole input *is*
bit-identical to :func:`repro.distances.dense.sqeuclidean_pairwise` on
float64 input (same term order, same BLAS product, same clamp).  The
float32 expansion can go slightly negative for near-duplicate points
(catastrophic cancellation of ``-2xy`` against the norms); every blocked
form clamps at zero before any ``sqrt``.

The kernels are plain numpy.
"""

from __future__ import annotations

import os
import weakref
from typing import Dict, Optional

import numpy as np

from ..errors import ConfigError
from .dense import row_table

KERNEL_ENV = "REPRO_KERNEL"
KERNELS = ("rowwise", "blocked")


def resolve_kernel(kernel: Optional[str],
                   env: Optional[Dict[str, str]] = None) -> str:
    """Resolve a configured kernel name: explicit config value wins,
    then the ``REPRO_KERNEL`` environment variable, then ``"rowwise"``
    (the bit-exact default)."""
    environ = os.environ if env is None else env
    if kernel is None:
        kernel = environ.get(KERNEL_ENV, "").strip().lower() or "rowwise"
    if kernel not in KERNELS:
        raise ConfigError(
            f"unknown distance kernel {kernel!r}; expected one of "
            f"{'/'.join(KERNELS)}")
    return kernel


def _floating(a) -> np.ndarray:
    """``a`` as an array the expansion may run in: floating input keeps
    its dtype (and identity), anything else becomes float64."""
    a = np.asarray(a)
    return a if a.dtype.kind == "f" else a.astype(np.float64)


# ---------------------------------------------------------------------------
# Tile heuristic + norm cache
# ---------------------------------------------------------------------------

#: Working-set target for one tile pair: the two ``(t, d)`` operand
#: panels plus the ``(t, t)`` product block should fit a per-core L2
#: slice.  256 KiB is the common slice size across current x86/ARM
#: server parts, and BLAS packing kernels hit stride at row multiples
#: of 16 — the heuristic rounds accordingly.
TILE_TARGET_BYTES = 256 * 1024


def tile_size_for(dim: int, itemsize: int,
                  target_bytes: int = TILE_TARGET_BYTES) -> int:
    """Rows per tile so ``2*t*d + t*t`` elements stay near ``target_bytes``,
    rounded down to a multiple of 16 and clamped to ``[16, 1024]``."""
    dim = max(1, int(dim))
    itemsize = max(1, int(itemsize))
    panels = target_bytes // (2 * dim * itemsize)
    square = int((target_bytes // itemsize) ** 0.5)
    t = max(16, min(1024, panels, square))
    return max(16, t - (t % 16))


class NormCache:
    """Cached squared row norms — and the float64 copy of integer
    input — keyed by array identity.

    Brute force and the searcher hand the *same* dataset array to the
    kernels call after call; caching ``||y||^2`` per array removes one
    of the three expansion terms from every subsequent call, and caching
    the promoted copy of a uint8 / int / bool dataset promotes it once
    per array, not once per call.  Entries
    are keyed by ``id(array)`` and guarded by a weak reference — ids
    are reused after garbage collection, so a hit requires the weakref
    to still resolve to the identical object (dead entries self-evict
    through the weakref callback).

    The cache cannot see in-place writes: a caller that mutates a cached
    array must hand the kernels a new cache.  Non-weakref-able inputs
    are computed fresh each call, never cached.
    """

    def __init__(self) -> None:
        self._entries: Dict[int, tuple] = {}
        self._floats: Dict[int, tuple] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _cached(table: Dict[int, tuple], X, make):
        """``make(X)``, remembered in ``table`` while ``X`` lives;
        returns ``(value, hit)``."""
        key = id(X)
        entry = table.get(key)
        if entry is not None and entry[0]() is X:
            return entry[1], True
        value = make(X)
        try:
            ref = weakref.ref(X, lambda _r: table.pop(key, None))
        except TypeError:
            return value, False
        table[key] = (ref, value)
        return value, False

    def floating(self, X) -> np.ndarray:
        """``X`` in the dtype the expansion runs in (see
        :func:`_floating`): itself when floating, else its float64 copy,
        made once per array."""
        if np.asarray(X).dtype.kind == "f":
            return np.asarray(X)
        return self._cached(self._floats, X, _floating)[0]

    def norms(self, X) -> np.ndarray:
        """Squared L2 norm of each row of ``X``, in the dtype the
        expansion runs in (see :func:`_floating`): :func:`sqnorms`."""
        norms, hit = self._cached(self._entries, X, sqnorms)
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        return norms

    def __len__(self) -> int:
        return len(self._entries)


# ---------------------------------------------------------------------------
# Kernel bundles
# ---------------------------------------------------------------------------


def _sqnorms(A: np.ndarray) -> np.ndarray:
    A = _floating(A)
    return np.einsum("ij,ij->i", A, A)


def sqnorms(X) -> np.ndarray:
    """Squared L2 norm of every row of ``X`` in the dtype the expansion
    runs in, by the per-row reduction the rowwise forms run on gathered
    rows (:func:`~repro.distances.dense.row_table`): an entry is
    bit-identical to that form's own norm of the row."""
    return row_table(_sqnorms, X)


def _row_sqnorms(A: np.ndarray, broadcast: bool):
    """Squared norms of paired rows; a stride-0 broadcast side reduces
    every identical row, so one dot of its base vector is enough."""
    if broadcast:
        return np.einsum("j,j->", A[0], A[0])
    return np.einsum("ij,ij->i", A, A)


def _clamp0(a):
    return np.maximum(a, 0, out=a)


class KernelBundle:
    """The blocked forms of one metric over one norm cache.

    ``pairwise(A, B)`` is the ``(n, m)`` block of rows of ``A`` against
    rows of ``B``; ``rowwise(a, b)`` pairs rows (either side may be a
    single vector, broadcast against the other's rows);
    ``one_to_many(q, X)`` is one vector against the rows of ``X``.
    Every form returns float64.  ``tile_flops`` counts the multiply-add
    FLOPs of the product terms actually computed (``2 * rows * cols *
    d`` per tile GEMM, ``2 * n * d`` per rowwise / one-to-many product);
    norm computations are the cached, amortizable part and are not
    charged.  Builds publish it as the ``kernel.tile_flops`` counter.
    ``tile`` overrides the per-call size heuristic.
    """

    def __init__(self, cache: Optional[NormCache] = None,
                 tile: Optional[int] = None) -> None:
        self.cache = cache if cache is not None else NormCache()
        self.tile = tile
        self.tile_flops = 0

    def norms(self, X) -> Optional[np.ndarray]:
        """The per-vertex table :meth:`rowwise` reads through its
        ``norms=`` argument — :func:`sqnorms` of ``X``, or ``None`` for
        a form that reads no norms."""
        return sqnorms(X)

    def _tiles(self, A: np.ndarray, B: np.ndarray, finish) -> np.ndarray:
        """``finish(A[rows] @ B[cols].T, rows, cols)`` for every tile
        pair, assembled into one float64 ``(n, m)`` matrix."""
        n, m = A.shape[0], B.shape[0]
        out = np.empty((n, m), dtype=np.float64)
        if n == 0 or m == 0:
            return out
        dim = A.shape[1]
        t = self.tile if self.tile else tile_size_for(dim, A.dtype.itemsize)
        for i0 in range(0, n, t):
            rows = slice(i0, min(n, i0 + t))
            for j0 in range(0, m, t):
                cols = slice(j0, min(m, j0 + t))
                out[rows, cols] = finish(A[rows] @ B[cols].T, rows, cols)
                self.tile_flops += 2 * (rows.stop - i0) * (cols.stop - j0) * dim
        return out

    def _paired(self, a, b):
        """``(A, B, a_broadcast, b_broadcast)``: both sides as paired
        floating rows, with the ``2 n d`` FLOPs of their row products
        charged."""
        A = _floating(a)
        B = _floating(b)
        a_broadcast = A.ndim == 1 and B.ndim != 1
        b_broadcast = B.ndim == 1 and A.ndim != 1
        if a_broadcast:
            A = np.broadcast_to(A, B.shape)
        elif b_broadcast:
            B = np.broadcast_to(B, A.shape)
        if A.shape[0]:
            self.tile_flops += 2 * A.shape[0] * A.shape[1]
        return A, B, a_broadcast, b_broadcast


class _SqEuclidean(KernelBundle):
    def pairwise(self, A, B) -> np.ndarray:
        """Tiled ``||a||^2 + ||b||^2 - 2 a.b``.  One tile covering the
        whole float64 input is bit-identical to
        ``dense.sqeuclidean_pairwise`` (same term order, same products)."""
        A, B = np.asarray(A), np.asarray(B)
        if A.shape[0] == 0 or B.shape[0] == 0:
            return np.empty((A.shape[0], B.shape[0]), dtype=np.float64)
        na = self.cache.norms(A)
        nb = self.cache.norms(B)

        def finish(gram, rows, cols):
            return _clamp0(na[rows, None] + nb[None, cols] - 2.0 * gram)

        return self._tiles(self.cache.floating(A), self.cache.floating(B),
                           finish)

    def rowwise(self, a, b, norms=None) -> np.ndarray:
        A, B, a_broadcast, b_broadcast = self._paired(a, b)
        if A.shape[0] == 0:
            return np.empty(0, dtype=np.float64)
        na, nb = norms if norms is not None else (
            _row_sqnorms(A, a_broadcast), _row_sqnorms(B, b_broadcast))
        out = na + nb - 2.0 * np.einsum("ij,ij->i", A, B)
        return _clamp0(out).astype(np.float64, copy=False)

    def one_to_many(self, q, X) -> np.ndarray:
        X = np.asarray(X)
        if X.shape[0] == 0:
            return np.empty(0, dtype=np.float64)
        nx = self.cache.norms(X)
        X = self.cache.floating(X)
        q = _floating(q)
        nq = np.einsum("j,j->", q, q)
        prod = X @ q
        self.tile_flops += 2 * X.shape[0] * X.shape[1]
        return _clamp0(nq + nx - 2.0 * prod).astype(np.float64, copy=False)


class _Euclidean(_SqEuclidean):
    def pairwise(self, A, B) -> np.ndarray:
        return np.sqrt(super().pairwise(A, B))

    def rowwise(self, a, b, norms=None) -> np.ndarray:
        return np.sqrt(super().rowwise(a, b, norms))

    def one_to_many(self, q, X) -> np.ndarray:
        return np.sqrt(super().one_to_many(q, X))


class _Cosine(KernelBundle):
    def pairwise(self, A, B) -> np.ndarray:
        A, B = np.asarray(A), np.asarray(B)
        if A.shape[0] == 0 or B.shape[0] == 0:
            return np.empty((A.shape[0], B.shape[0]), dtype=np.float64)
        na = np.sqrt(self.cache.norms(A))
        nb = np.sqrt(self.cache.norms(B))
        # Zero-norm rows: similarity 0 -> distance 1 (the registry convention).
        na_safe = np.where(na == 0, na + 1.0, na)
        nb_safe = np.where(nb == 0, nb + 1.0, nb)

        def finish(sims, rows, cols):
            sims = sims / na_safe[rows, None]
            sims = sims / nb_safe[None, cols]
            return np.minimum(_clamp0(1.0 - sims), 2.0)

        out = self._tiles(self.cache.floating(A), self.cache.floating(B),
                          finish)
        out[na == 0, :] = 1.0
        out[:, nb == 0] = 1.0
        return out

    def rowwise(self, a, b, norms=None) -> np.ndarray:
        A, B, a_broadcast, b_broadcast = self._paired(a, b)
        if A.shape[0] == 0:
            return np.empty(0, dtype=np.float64)
        na, nb = norms if norms is not None else (
            _row_sqnorms(A, a_broadcast), _row_sqnorms(B, b_broadcast))
        denom = np.sqrt(na) * np.sqrt(nb)
        zero = denom == 0
        denom = np.where(zero, denom + 1.0, denom)
        out = 1.0 - np.einsum("ij,ij->i", A, B) / denom
        out = np.minimum(_clamp0(out), 2.0, dtype=np.float64)
        out[zero] = 1.0
        return out

    def one_to_many(self, q, X) -> np.ndarray:
        return self.pairwise(np.asarray(q)[None, :], X)[0]


class _InnerProduct(KernelBundle):
    def norms(self, X) -> None:
        return None

    def pairwise(self, A, B) -> np.ndarray:
        return self._tiles(self.cache.floating(A), self.cache.floating(B),
                           lambda gram, rows, cols: 1.0 - gram)

    def rowwise(self, a, b, norms=None) -> np.ndarray:
        A, B, _, _ = self._paired(a, b)
        if A.shape[0] == 0:
            return np.empty(0, dtype=np.float64)
        return (1.0 - np.einsum("ij,ij->i", A, B)).astype(np.float64,
                                                          copy=False)

    def one_to_many(self, q, X) -> np.ndarray:
        X = self.cache.floating(X)
        if X.shape[0] == 0:
            return np.empty(0, dtype=np.float64)
        prod = X @ _floating(q)
        self.tile_flops += 2 * X.shape[0] * X.shape[1]
        return (1.0 - prod).astype(np.float64, copy=False)


#: Metrics with a blocked (GEMM-structured) form.  Everything else —
#: elementwise metrics with no product decomposition and the sparse
#: family — keeps the exact kernels under ``kernel="blocked"`` too.
_BUNDLES = {
    "sqeuclidean": _SqEuclidean,
    "euclidean": _Euclidean,
    "cosine": _Cosine,
    "inner_product": _InnerProduct,
}


def blocked_metrics() -> tuple:
    """Names of the metrics that have blocked forms."""
    return tuple(sorted(_BUNDLES))


def make_kernels(name: str, cache: Optional[NormCache] = None,
                 tile: Optional[int] = None) -> Optional[KernelBundle]:
    """Blocked kernel bundle for metric ``name``, or ``None`` when the
    metric has no blocked form.  ``tile`` overrides the per-call size
    heuristic (tests use this — any tile size yields the same neighbor
    sets)."""
    bundle = _BUNDLES.get(str(name).lower())
    return bundle(cache, tile) if bundle is not None else None
