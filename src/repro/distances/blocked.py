"""Blocked GEMM distance kernels behind an ``xp`` array-module seam.

PR 3's rowwise kernels made the batch hot path vectorized but still
row-at-a-time: every paired-rows call pays one reduction per row with no
data reuse across rows.  Following the tiled-GEMM restructuring of
Kluser et al. (single-core k-NN) and Wang et al. (GPU k-NN graphs), this
module evaluates distances through the expansion

    ``||x - y||^2 = ||x||^2 - 2 * x.y + ||y||^2``

tile-at-a-time: the ``-2 X @ Y.T`` term becomes a sequence of dense
matrix-matrix products over row tiles sized to the L2 / BLAS sweet spot,
and the squared-norm vectors are computed once and cached per dataset
(:class:`NormCache`).  Cosine and inner-product get the analogous Gram
forms; metrics with no product structure (manhattan, chebyshev, hamming,
...) have no blocked form and callers fall back to the exact kernels.

Exactness contract (DESIGN.md section 17): the blocked kernels compute
in the *native input dtype* — that is where the throughput comes from —
so they are **not** bit-identical to the float64 scalar/rowwise path.
The default construction kernel therefore stays ``"rowwise"`` (golden
trace bit-identical); ``"blocked"`` is gated by recall parity (<=0.005)
instead.  Squared-euclidean with one tile covering the whole input *is*
bit-identical to :func:`repro.distances.dense.sqeuclidean_pairwise` on
float64 input (same term order, same BLAS product, same clamp).  The
float32 expansion can go slightly negative for near-duplicate points
(catastrophic cancellation of ``-2xy`` against the norms); every blocked
form clamps at zero before any ``sqrt``.

The ``xp`` seam: kernels address their array library through an
:class:`ArrayModule` — numpy by default, with CuPy / torch attachable
behind the same five-operation surface.  A requested module that is not
installed falls back to numpy with a :class:`RuntimeWarning` and a bump
of the module-level fallback counter, published per build as the
``kernel.fallbacks`` metric (same contract as ``backend.fallbacks``).

Registration: each metric's blocked forms are closures over attach-time
kernel state (array module, norm cache, FLOP tally, tile override),
declared through :func:`register_kernel`.  The analysis engine indexes
these declarations into ``ProjectContext.kernel_helpers`` and REP203
holds them to the *pure batch variant* contract: a kernel closure may
capture its factory's parameters (replicated, attach-time state) but
never enclosing mutable locals.
"""

from __future__ import annotations

import os
import warnings
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from ..errors import ConfigError

KERNEL_ENV = "REPRO_KERNEL"
KERNELS = ("rowwise", "blocked")

XP_ENV = "REPRO_XP"
XP_MODULES = ("numpy", "cupy", "torch")


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


# ---------------------------------------------------------------------------
# The xp seam
# ---------------------------------------------------------------------------


def _identity(a):
    return a


class ArrayModule:
    """One attachment point of the ``xp`` seam.

    ``xp`` is a numpy-compatible namespace (``einsum``, ``sqrt``,
    ``where``, the ``@`` operator); ``from_numpy``/``to_numpy`` move
    operands across the host/device boundary (identities for numpy);
    ``clamp0`` is the in-place clamp-at-zero each library spells
    differently.  The kernels touch nothing else, so a new library
    attaches by providing these five operations.
    """

    def __init__(self, name: str, xp,
                 from_numpy: Optional[Callable] = None,
                 to_numpy: Optional[Callable] = None,
                 clamp0: Optional[Callable] = None) -> None:
        self.name = name
        self.xp = xp
        self.from_numpy = from_numpy if from_numpy is not None else _identity
        self.to_numpy = to_numpy if to_numpy is not None else np.asarray
        self.clamp0 = clamp0 if clamp0 is not None else self._np_clamp0

    @staticmethod
    def _np_clamp0(a):
        return np.maximum(a, 0, out=a)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArrayModule({self.name!r})"


NUMPY = ArrayModule("numpy", np)

#: Cumulative count of requested-but-unavailable array modules resolved
#: to numpy in this process; builds publish their delta as
#: ``kernel.fallbacks``.
_fallbacks = 0


def kernel_fallbacks() -> int:
    """Process-cumulative fallback count (see :func:`resolve_array_module`)."""
    return _fallbacks


def resolve_array_module(name: Optional[str] = None,
                         env: Optional[Dict[str, str]] = None) -> ArrayModule:
    """Resolve the ``xp`` module: explicit name wins, then ``REPRO_XP``,
    then numpy.  A known-but-uninstalled module falls back to numpy with
    a warning and a fallback-counter bump — builds keep working on
    machines without the accelerator stack."""
    global _fallbacks
    environ = os.environ if env is None else env
    requested = (name or environ.get(XP_ENV, "").strip() or "numpy").lower()
    if requested in ("numpy", "np"):
        return NUMPY
    if requested not in XP_MODULES:
        raise ConfigError(
            f"unknown array module {requested!r}; expected one of "
            f"{'/'.join(XP_MODULES)}")
    try:
        if requested == "cupy":
            import cupy
            return ArrayModule(
                "cupy", cupy, from_numpy=cupy.asarray, to_numpy=cupy.asnumpy,
                clamp0=lambda a: cupy.maximum(a, 0, out=a))
        import torch
        return ArrayModule(
            "torch", torch, from_numpy=torch.as_tensor,
            to_numpy=lambda a: a.cpu().numpy(),
            clamp0=lambda a: a.clamp_(min=0))
    except ImportError:
        _fallbacks += 1
        warnings.warn(
            f"array module {requested!r} is not installed; blocked kernels "
            f"fall back to numpy (counted in kernel.fallbacks)",
            RuntimeWarning, stacklevel=2)
        return NUMPY


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
    """Cached squared row norms, keyed by array identity.

    Brute force and the searcher hand the *same* dataset array to the
    kernels call after call; caching ``||y||^2`` per array removes one
    of the three expansion terms from every subsequent call.  Entries
    are keyed by ``id(array)`` and guarded by a weak reference — ids
    are reused after garbage collection, so a hit requires the weakref
    to still resolve to the identical object (dead entries self-evict
    through the weakref callback).

    The cache cannot see in-place writes: callers that mutate a cached
    dataset must call :meth:`update_rows` (targeted recompute) or
    :meth:`invalidate` before the next kernel call, or reads are stale.
    Non-weakref-able inputs are computed fresh each call, never cached.
    """

    def __init__(self, ops: ArrayModule = NUMPY) -> None:
        self._ops = ops
        self._entries: Dict[int, tuple] = {}
        self.hits = 0
        self.misses = 0

    def _sqnorms(self, X):
        return self._ops.xp.einsum("ij,ij->i", X, X)

    def norms(self, X):
        """Squared L2 norm of each row of ``X``, in its native dtype."""
        key = id(X)
        entry = self._entries.get(key)
        if entry is not None and entry[0]() is X:
            self.hits += 1
            return entry[1]
        norms = self._sqnorms(X)
        self.misses += 1
        try:
            ref = weakref.ref(X, lambda _r: self._entries.pop(key, None))
        except TypeError:
            return norms
        self._entries[key] = (ref, norms)
        return norms

    def update_rows(self, X, rows) -> None:
        """Recompute the cached norms of ``rows`` after an in-place row
        update of ``X``; a no-op when ``X`` is not cached."""
        entry = self._entries.get(id(X))
        if entry is None or entry[0]() is not X:
            return
        entry[1][rows] = self._sqnorms(X[rows])

    def invalidate(self, X=None) -> None:
        """Drop the entry for ``X`` (or every entry when ``X is None``)."""
        if X is None:
            self._entries.clear()
            return
        self._entries.pop(id(X), None)

    def __len__(self) -> int:
        return len(self._entries)


# ---------------------------------------------------------------------------
# Kernel bundles
# ---------------------------------------------------------------------------


@dataclass
class KernelStats:
    """Mutable tally a bundle's closures update in place.

    ``tile_flops`` counts the multiply-add FLOPs of the product terms
    actually computed (``2 * rows * cols * d`` per tile GEMM, ``2 * n *
    d`` per rowwise / one-to-many product); norm computations are the
    cached, amortizable part and are not charged.  Published at barriers
    as the ``kernel.tile_flops`` counter.
    """

    tile_flops: int = 0


@dataclass(frozen=True)
class KernelBundle:
    """The blocked forms of one metric, bound to an array module, a norm
    cache, and a FLOP tally at attach time."""

    name: str
    pairwise: Callable
    rowwise: Callable
    one_to_many: Callable
    ops: ArrayModule
    cache: NormCache
    stats: KernelStats = field(default_factory=KernelStats)


def register_kernel(name: str, *, pairwise, rowwise, one_to_many,
                    ops: ArrayModule, cache: NormCache,
                    stats: KernelStats) -> KernelBundle:
    """Declare the blocked forms of one metric as a :class:`KernelBundle`.

    This is also the linter's registration point: the analysis engine
    indexes ``register_kernel`` bindings into
    ``ProjectContext.kernel_helpers``, and REP203 audits them under the
    pure-batch-variant contract — the registered closures may capture
    only their factory's parameters (attach-time kernel state, identical
    on every rank), never enclosing mutable locals.
    """
    return KernelBundle(name=name, pairwise=pairwise, rowwise=rowwise,
                        one_to_many=one_to_many, ops=ops, cache=cache,
                        stats=stats)


# -- shared implementation helpers (plain functions, all state explicit) ----


def _pair_rows(a, b):
    """Broadcast a 1-D side against the other's rows, native dtype."""
    A = np.asarray(a)
    B = np.asarray(b)
    if A.ndim == 1:
        A = np.broadcast_to(A, B.shape)
    elif B.ndim == 1:
        B = np.broadcast_to(B, A.shape)
    return A, B


def _rowwise_terms(ops: ArrayModule, stats: KernelStats, a, b):
    """``(na, nb, ab, n)`` for paired rows: squared norms of each side
    and the per-row inner product, native dtype.  Either side may be a
    single broadcast vector — its norm is computed once, not per row."""
    xp = ops.xp
    A, B = _pair_rows(a, b)
    n = A.shape[0]
    if n == 0:
        zero = np.zeros(0)
        return zero, zero, zero, 0
    dim = A.shape[1]
    A = ops.from_numpy(A)
    B = ops.from_numpy(B)
    # A stride-0 broadcast side reduces every identical row; one dot of
    # the base vector is enough.
    na = (xp.einsum("j,j->", A[0], A[0]) if _is_broadcast(a, b)
          else xp.einsum("ij,ij->i", A, A))
    nb = (xp.einsum("j,j->", B[0], B[0]) if _is_broadcast(b, a)
          else xp.einsum("ij,ij->i", B, B))
    ab = xp.einsum("ij,ij->i", A, B)
    stats.tile_flops += 2 * n * dim
    return na, nb, ab, n


def _is_broadcast(side, other) -> bool:
    return (getattr(side, "ndim", 2) == 1
            and getattr(other, "ndim", 2) != 1)


def _sq_pairwise_impl(ops: ArrayModule, cache: NormCache, stats: KernelStats,
                      tile: Optional[int], A, B) -> np.ndarray:
    """Tiled ``||a||^2 + ||b||^2 - 2 a.b`` over rows of A x rows of B.

    Arithmetic runs in the native input dtype (the GEMM win); the
    returned matrix is float64 like every other pairwise form.  One tile
    covering the whole float64 input is bit-identical to
    ``dense.sqeuclidean_pairwise`` (same term order, same products)."""
    A = np.asarray(A)
    B = np.asarray(B)
    n, m = A.shape[0], B.shape[0]
    out = np.empty((n, m), dtype=np.float64)
    if n == 0 or m == 0:
        return out
    dim = A.shape[1]
    t = tile if tile else tile_size_for(dim, A.dtype.itemsize)
    dev_a = ops.from_numpy(A)
    dev_b = ops.from_numpy(B)
    na = cache.norms(dev_a)
    nb = cache.norms(dev_b)
    for i0 in range(0, n, t):
        i1 = min(n, i0 + t)
        ai = dev_a[i0:i1]
        nai = na[i0:i1]
        for j0 in range(0, m, t):
            j1 = min(m, j0 + t)
            gram = ai @ dev_b[j0:j1].T
            block = nai[:, None] + nb[None, j0:j1] - 2.0 * gram
            ops.clamp0(block)
            out[i0:i1, j0:j1] = ops.to_numpy(block)
            stats.tile_flops += 2 * (i1 - i0) * (j1 - j0) * dim
    return out


def _sq_one_to_many_impl(ops: ArrayModule, cache: NormCache,
                         stats: KernelStats, q, X) -> np.ndarray:
    xp = ops.xp
    X = np.asarray(X)
    q = np.asarray(q)
    if X.shape[0] == 0:
        return np.empty(0, dtype=np.float64)
    dev_x = ops.from_numpy(X)
    dev_q = ops.from_numpy(q)
    nx = cache.norms(dev_x)
    nq = xp.einsum("j,j->", dev_q, dev_q)
    prod = dev_x @ dev_q
    stats.tile_flops += 2 * X.shape[0] * X.shape[1]
    out = nq + nx - 2.0 * prod
    ops.clamp0(out)
    return ops.to_numpy(out).astype(np.float64, copy=False)


def _cos_pairwise_impl(ops: ArrayModule, cache: NormCache, stats: KernelStats,
                       tile: Optional[int], A, B) -> np.ndarray:
    xp = ops.xp
    A = np.asarray(A)
    B = np.asarray(B)
    n, m = A.shape[0], B.shape[0]
    out = np.empty((n, m), dtype=np.float64)
    if n == 0 or m == 0:
        return out
    dim = A.shape[1]
    t = tile if tile else tile_size_for(dim, A.dtype.itemsize)
    dev_a = ops.from_numpy(A)
    dev_b = ops.from_numpy(B)
    na = xp.sqrt(cache.norms(dev_a))
    nb = xp.sqrt(cache.norms(dev_b))
    # Zero-norm rows: similarity 0 -> distance 1 (the registry convention).
    na_safe = xp.where(na == 0, na + 1.0, na)
    nb_safe = xp.where(nb == 0, nb + 1.0, nb)
    zero_a = ops.to_numpy(na) == 0
    zero_b = ops.to_numpy(nb) == 0
    for i0 in range(0, n, t):
        i1 = min(n, i0 + t)
        ai = dev_a[i0:i1]
        for j0 in range(0, m, t):
            j1 = min(m, j0 + t)
            sims = ai @ dev_b[j0:j1].T
            sims = sims / na_safe[i0:i1, None]
            sims = sims / nb_safe[None, j0:j1]
            block = 1.0 - sims
            ops.clamp0(block)
            out[i0:i1, j0:j1] = np.minimum(ops.to_numpy(block), 2.0)
            stats.tile_flops += 2 * (i1 - i0) * (j1 - j0) * dim
    out[zero_a, :] = 1.0
    out[:, zero_b] = 1.0
    return out


def _cos_rowwise_impl(ops: ArrayModule, stats: KernelStats, a, b) -> np.ndarray:
    xp = ops.xp
    na, nb, ab, n = _rowwise_terms(ops, stats, a, b)
    if n == 0:
        return np.empty(0, dtype=np.float64)
    na = xp.sqrt(na)
    nb = xp.sqrt(nb)
    denom = na * nb
    zero = ops.to_numpy(denom) == 0
    denom = xp.where(denom == 0, denom + 1.0, denom)
    sim = ab / denom
    out = 1.0 - sim
    ops.clamp0(out)
    out = np.minimum(ops.to_numpy(out), 2.0, dtype=np.float64)
    out[zero] = 1.0
    return out


def _ip_pairwise_impl(ops: ArrayModule, stats: KernelStats,
                      tile: Optional[int], A, B) -> np.ndarray:
    A = np.asarray(A)
    B = np.asarray(B)
    n, m = A.shape[0], B.shape[0]
    out = np.empty((n, m), dtype=np.float64)
    if n == 0 or m == 0:
        return out
    dim = A.shape[1]
    t = tile if tile else tile_size_for(dim, A.dtype.itemsize)
    dev_a = ops.from_numpy(A)
    dev_b = ops.from_numpy(B)
    for i0 in range(0, n, t):
        i1 = min(n, i0 + t)
        ai = dev_a[i0:i1]
        for j0 in range(0, m, t):
            j1 = min(m, j0 + t)
            out[i0:i1, j0:j1] = ops.to_numpy(1.0 - ai @ dev_b[j0:j1].T)
            stats.tile_flops += 2 * (i1 - i0) * (j1 - j0) * dim
    return out


# -- per-metric factories ---------------------------------------------------
#
# Each factory binds (ops, cache, stats, tile) once and declares thin
# closures over exactly those parameters — the pure-batch-variant shape
# REP203 audits via the register_kernel index.


def _sqeuclidean_factory(ops: ArrayModule, cache: NormCache,
                         stats: KernelStats,
                         tile: Optional[int]) -> KernelBundle:
    def sqeuclidean_blocked(A, B):
        return _sq_pairwise_impl(ops, cache, stats, tile, A, B)

    def sqeuclidean_rowwise_blocked(a, b):
        na, nb, ab, n = _rowwise_terms(ops, stats, a, b)
        if n == 0:
            return np.empty(0, dtype=np.float64)
        out = na + nb - 2.0 * ab
        ops.clamp0(out)
        return ops.to_numpy(out).astype(np.float64, copy=False)

    def sqeuclidean_one_to_many_blocked(q, X):
        return _sq_one_to_many_impl(ops, cache, stats, q, X)

    return register_kernel(
        "sqeuclidean", ops=ops, cache=cache, stats=stats,
        pairwise=sqeuclidean_blocked,
        rowwise=sqeuclidean_rowwise_blocked,
        one_to_many=sqeuclidean_one_to_many_blocked)


def _euclidean_factory(ops: ArrayModule, cache: NormCache,
                       stats: KernelStats,
                       tile: Optional[int]) -> KernelBundle:
    def euclidean_blocked(A, B):
        return np.sqrt(_sq_pairwise_impl(ops, cache, stats, tile, A, B))

    def euclidean_rowwise_blocked(a, b):
        na, nb, ab, n = _rowwise_terms(ops, stats, a, b)
        if n == 0:
            return np.empty(0, dtype=np.float64)
        out = na + nb - 2.0 * ab
        ops.clamp0(out)
        return np.sqrt(ops.to_numpy(out).astype(np.float64, copy=False))

    def euclidean_one_to_many_blocked(q, X):
        return np.sqrt(_sq_one_to_many_impl(ops, cache, stats, q, X))

    return register_kernel(
        "euclidean", ops=ops, cache=cache, stats=stats,
        pairwise=euclidean_blocked,
        rowwise=euclidean_rowwise_blocked,
        one_to_many=euclidean_one_to_many_blocked)


def _cosine_factory(ops: ArrayModule, cache: NormCache, stats: KernelStats,
                    tile: Optional[int]) -> KernelBundle:
    def cosine_blocked(A, B):
        return _cos_pairwise_impl(ops, cache, stats, tile, A, B)

    def cosine_rowwise_blocked(a, b):
        return _cos_rowwise_impl(ops, stats, a, b)

    def cosine_one_to_many_blocked(q, X):
        return _cos_pairwise_impl(
            ops, cache, stats, tile, np.asarray(q)[None, :], X)[0]

    return register_kernel(
        "cosine", ops=ops, cache=cache, stats=stats,
        pairwise=cosine_blocked,
        rowwise=cosine_rowwise_blocked,
        one_to_many=cosine_one_to_many_blocked)


def _inner_product_factory(ops: ArrayModule, cache: NormCache,
                           stats: KernelStats,
                           tile: Optional[int]) -> KernelBundle:
    def inner_product_blocked(A, B):
        return _ip_pairwise_impl(ops, stats, tile, A, B)

    def inner_product_rowwise_blocked(a, b):
        _na, _nb, ab, n = _rowwise_terms(ops, stats, a, b)
        if n == 0:
            return np.empty(0, dtype=np.float64)
        return ops.to_numpy(1.0 - ab).astype(np.float64, copy=False)

    def inner_product_one_to_many_blocked(q, X):
        X = np.asarray(X)
        if X.shape[0] == 0:
            return np.empty(0, dtype=np.float64)
        prod = ops.from_numpy(X) @ ops.from_numpy(np.asarray(q))
        stats.tile_flops += 2 * X.shape[0] * X.shape[1]
        return ops.to_numpy(1.0 - prod).astype(np.float64, copy=False)

    return register_kernel(
        "inner_product", ops=ops, cache=cache, stats=stats,
        pairwise=inner_product_blocked,
        rowwise=inner_product_rowwise_blocked,
        one_to_many=inner_product_one_to_many_blocked)


#: Metrics with a blocked (GEMM-structured) form.  Everything else —
#: elementwise metrics with no product decomposition and the sparse
#: family — keeps the exact kernels under ``kernel="blocked"`` too.
_FACTORIES: Dict[str, Callable] = {
    "sqeuclidean": _sqeuclidean_factory,
    "euclidean": _euclidean_factory,
    "cosine": _cosine_factory,
    "inner_product": _inner_product_factory,
}


def blocked_metrics() -> tuple:
    """Names of the metrics that have blocked forms."""
    return tuple(sorted(_FACTORIES))


def make_kernels(name: str, ops: Optional[ArrayModule] = None,
                 cache: Optional[NormCache] = None,
                 tile: Optional[int] = None) -> Optional[KernelBundle]:
    """Blocked kernel bundle for metric ``name``, or ``None`` when the
    metric has no blocked form.  ``ops`` defaults to
    :func:`resolve_array_module` (``REPRO_XP``-sensitive); ``tile``
    overrides the per-call size heuristic (tests use this — any tile
    size yields the same neighbor sets)."""
    factory = _FACTORIES.get(str(name).lower())
    if factory is None:
        return None
    ops = ops if ops is not None else resolve_array_module()
    cache = cache if cache is not None else NormCache(ops)
    return factory(ops, cache, KernelStats(), tile)
