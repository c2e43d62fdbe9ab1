"""Distance-evaluation counting.

The paper's Section 7 calls for profiling "how much the computation or
communication is heavier than the other"; our cost model charges
simulated compute time *per distance evaluation*, so every algorithm
(NN-Descent, DNND, HNSW, brute force) routes its metric calls through a
:class:`CountingMetric`, making construction cost comparable across
algorithms in a platform-independent unit.

The wrapper is also the kernel dispatch seam (DESIGN.md section 17):
``kernel="rowwise"`` (the default) keeps the bit-exact per-row kernels,
``kernel="blocked"`` swaps the batched forms for the tiled-GEMM numpy
kernels of :mod:`repro.distances.blocked` — same call structure, same
counting, recall-gated instead of bit-identical.  Metrics without a
blocked form (and every sparse metric) silently keep the exact kernels,
so the switch is always safe to flip.  ``REPRO_XP`` is no longer read:
the blocked kernels have no array-module choice.
"""

from __future__ import annotations

import numpy as np

from .blocked import make_kernels, resolve_kernel
from .registry import Metric, get_metric


class CountingMetric:
    """Wraps a :class:`Metric`, counting scalar and batched evaluations.

    ``count`` reports the number of *pairwise distance evaluations*
    performed, regardless of whether they were done one at a time or in a
    vectorized batch — batched calls add the batch size.

    ``kernel`` selects the batched implementations: ``"rowwise"``
    (bit-exact, the default) or ``"blocked"`` (tiled GEMM); ``None``
    defers to the ``REPRO_KERNEL`` environment variable.  Scalar calls
    always use the exact metric — the kernel axis only covers batched
    forms.  ``tile_flops`` surfaces the blocked layer's tally for the
    ``kernel.tile_flops`` metric.
    """

    def __init__(self, metric, kernel: str | None = None) -> None:
        self._metric: Metric = get_metric(metric)
        self.kernel: str = resolve_kernel(kernel)
        self._blocked = None
        if self.kernel == "blocked" and not self._metric.sparse_input:
            self._blocked = make_kernels(self._metric.name)
        self.count: int = 0

    @property
    def name(self) -> str:
        return self._metric.name

    @property
    def sparse_input(self) -> bool:
        return self._metric.sparse_input

    @property
    def inner(self) -> Metric:
        return self._metric

    @property
    def tile_flops(self) -> int:
        """FLOPs spent in blocked tile products (0 under ``rowwise``)."""
        return self._blocked.tile_flops if self._blocked is not None else 0

    def __call__(self, a, b) -> float:
        self.count += 1
        return self._metric.scalar(a, b)

    def distances_to(self, q, X) -> np.ndarray:
        if self._blocked is not None:
            out = self._blocked.one_to_many(q, X)
        else:
            out = self._metric.distances_to(q, X)
        self.count += int(out.shape[0])
        return out

    def block(self, A, B) -> np.ndarray:
        if self._blocked is not None:
            out = self._blocked.pairwise(A, B)
        else:
            out = self._metric.block(A, B)
        self.count += int(out.shape[0] * out.shape[1])
        return out

    def rowwise(self, A, B) -> np.ndarray:
        """Paired-rows distances (exact under ``rowwise``, tiled under
        ``blocked`` — see :meth:`Metric.rowwise_dists`), counted as one
        evaluation per row."""
        out = self.rowwise_raw(A, B)
        self.count += int(out.shape[0])
        return out

    def rowwise_raw(self, A, B) -> np.ndarray:
        """Paired-rows distances with NO counting: the body of
        :meth:`rowwise`.  ``benchmarks/perf`` traces the distance layer
        by these method names, so the split stays."""
        if self._blocked is not None:
            return self._blocked.rowwise(A, B)
        return self._metric.rowwise_dists(A, B)

    def reset(self) -> int:
        """Reset the counter, returning the value it had."""
        prev = self.count
        self.count = 0
        return prev
