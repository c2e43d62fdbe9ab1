"""Distance metric library (S1).

NN-Descent's defining property (Section 3.1) is that it works with *any*
symmetric distance function; the paper's evaluation uses L2, cosine, and
Jaccard (Table 1).  This subpackage provides:

- scalar metrics (``theta(a, b) -> float``), the reference every
  batched form is checked against,
- exact rowwise forms (``theta(A[i], B[i])``, either side one broadcast
  vector for the one-vs-many case) for builds and searches, and
  pairwise blocks for brute-force ground truth,
- a registry keyed by metric name,
- blocked tiled-GEMM kernels on plain numpy (``repro.distances.blocked``),
  selected per build via ``DNNDConfig.kernel`` / ``REPRO_KERNEL``,
- a counting wrapper used to compare construction cost between algorithms
  in distance evaluations (platform-independent work units).
"""

from .registry import (
    Metric,
    get_metric,
    list_metrics,
    register_metric,
)
from .blocked import (
    KernelBundle,
    NormCache,
    blocked_metrics,
    make_kernels,
    resolve_kernel,
    tile_size_for,
)
from .counting import CountingMetric
from . import blocked, dense, sparse

__all__ = [
    "Metric",
    "get_metric",
    "list_metrics",
    "register_metric",
    "CountingMetric",
    "KernelBundle",
    "NormCache",
    "blocked_metrics",
    "make_kernels",
    "resolve_kernel",
    "tile_size_for",
    "blocked",
    "dense",
    "sparse",
]
