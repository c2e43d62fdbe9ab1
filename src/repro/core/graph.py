"""k-NN graph containers.

Two representations, matching the two lifecycle stages in the paper:

- :class:`KNNGraph` — the fixed-degree (``k`` neighbors per vertex)
  graph produced by NN-Descent/DNND construction: dense ``(n, k)``
  arrays of ids and distances, the "simple graph data structure" the
  paper highlights as an NN-Descent advantage (Section 3.2).
- :class:`AdjacencyGraph` — a CSR (indptr/indices/dists) variable-degree
  graph produced by the Section 4.5 optimizations (reverse-edge merge
  makes degrees vary up to ``k * m``); this is what queries traverse.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..errors import GraphError
from .order import row_keys, row_order

EMPTY = -1


class KNNGraph:
    """A fixed-degree k-NN graph: row ``v`` lists ``k`` neighbor ids and
    their distances, ascending by distance.

    Attributes
    ----------
    ids:
        ``(n, k)`` int64 — neighbor ids, ``EMPTY`` (-1) padding allowed
        at the tail of a row.
    dists:
        ``(n, k)`` float64 — corresponding distances, ``inf`` padding.
    """

    def __init__(self, ids: np.ndarray, dists: np.ndarray) -> None:
        ids = np.asarray(ids, dtype=np.int64)
        dists = np.asarray(dists, dtype=np.float64)
        if ids.ndim != 2 or ids.shape != dists.shape:
            raise GraphError(
                f"ids/dists must be matching 2-D arrays, got {ids.shape} vs {dists.shape}"
            )
        self.ids = ids
        self.dists = dists

    # -- basic shape -----------------------------------------------------------

    @property
    def n(self) -> int:
        return self.ids.shape[0]

    @property
    def k(self) -> int:
        return self.ids.shape[1]

    def __len__(self) -> int:
        return self.n

    def neighbors(self, v: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, dists)`` of ``v``'s occupied neighbor slots."""
        row_ids = self.ids[v]
        mask = row_ids != EMPTY
        return row_ids[mask], self.dists[v][mask]

    def degree(self, v: int) -> int:
        return int((self.ids[v] != EMPTY).sum())

    # -- invariants ----------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raises :class:`GraphError`."""
        n, k = self.ids.shape
        occ = self.ids != EMPTY
        if np.any(self.ids[occ] < 0) or np.any(self.ids[occ] >= n):
            raise GraphError("neighbor id out of range")
        if np.any(~np.isfinite(self.dists[occ])):
            raise GraphError("occupied slot has non-finite distance")
        if np.any(np.isfinite(self.dists[~occ])):
            raise GraphError("empty slot has finite distance")
        rows, cols = np.nonzero(occ)
        if np.any(self.ids[rows, cols] == rows):
            raise GraphError("self-loop present")
        for v in range(n):
            nbr = self.ids[v][occ[v]]
            if len(np.unique(nbr)) != len(nbr):
                raise GraphError(f"duplicate neighbor in row {v}")
            d = self.dists[v][occ[v]]
            if np.any(np.diff(d) < 0):
                raise GraphError(f"row {v} not sorted by distance")

    def sort_rows(self) -> "KNNGraph":
        """Return a copy with every row sorted ascending by ``(distance,
        id)``, the order of :mod:`.heap`."""
        order = row_order(row_keys(self.dists, self.ids))
        ids = np.take_along_axis(self.ids, order, axis=1)
        dists = np.take_along_axis(self.dists, order, axis=1)
        return KNNGraph(ids, dists)

    # -- conversions ----------------------------------------------------------

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Dict-of-arrays form (Metall-store and ``.npz`` friendly)."""
        return {"ids": self.ids, "dists": self.dists}

    @classmethod
    def from_arrays(cls, arrays: Dict[str, np.ndarray]) -> "KNNGraph":
        return cls(arrays["ids"], arrays["dists"])

    def to_adjacency(self) -> "AdjacencyGraph":
        """CSR view of this fixed-degree graph."""
        occ = self.ids != EMPTY
        degrees = occ.sum(axis=1)
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        indices = self.ids[occ].astype(np.int64)
        dists = self.dists[occ].astype(np.float64)
        return AdjacencyGraph(indptr, indices, dists)

    def edge_set(self) -> set:
        """Directed edge set ``{(u, v)}`` — used by tests and recall."""
        rows, cols = np.nonzero(self.ids != EMPTY)
        return {(int(r), int(self.ids[r, c])) for r, c in zip(rows, cols)}

    def reverse_edge_multiset(self) -> List[Tuple[int, int, float]]:
        """All edges reversed: ``(dst, src, dist)`` triples."""
        rows, cols = np.nonzero(self.ids != EMPTY)
        return [
            (int(self.ids[r, c]), int(r), float(self.dists[r, c]))
            for r, c in zip(rows, cols)
        ]


class AdjacencyGraph:
    """Variable-degree directed graph in CSR form.

    Produced by the Section 4.5 optimization (reverse-edge merge +
    degree pruning) and consumed by the Section 3.3 search.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 dists: np.ndarray) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.dists = np.asarray(dists, dtype=np.float64)
        if self.indptr.ndim != 1 or self.indptr[0] != 0:
            raise GraphError("indptr must be 1-D starting at 0")
        if self.indptr[-1] != self.indices.shape[0]:
            raise GraphError("indptr end disagrees with indices length")
        if self.indices.shape != self.dists.shape:
            raise GraphError("indices/dists length mismatch")
        if np.any(np.diff(self.indptr) < 0):
            raise GraphError("indptr must be non-decreasing")

    @property
    def n(self) -> int:
        return self.indptr.shape[0] - 1

    @property
    def n_edges(self) -> int:
        return int(self.indices.shape[0])

    def neighbors(self, v: int) -> Tuple[np.ndarray, np.ndarray]:
        lo, hi = self.indptr[v], self.indptr[v + 1]
        return self.indices[lo:hi], self.dists[lo:hi]

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def validate(self) -> None:
        n = self.n
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= n):
            raise GraphError("neighbor id out of range")
        for v in range(n):
            nbr, _ = self.neighbors(v)
            if np.any(nbr == v):
                raise GraphError(f"self-loop at {v}")
            if len(np.unique(nbr)) != len(nbr):
                raise GraphError(f"duplicate neighbor at {v}")

    def edge_set(self) -> set:
        out = set()
        for v in range(self.n):
            nbr, _ = self.neighbors(v)
            out.update((v, int(u)) for u in nbr)
        return out

    def to_arrays(self) -> Dict[str, np.ndarray]:
        return {"indptr": self.indptr, "indices": self.indices, "dists": self.dists}

    @classmethod
    def from_arrays(cls, arrays: Dict[str, np.ndarray]) -> "AdjacencyGraph":
        return cls(arrays["indptr"], arrays["indices"], arrays["dists"])

    @classmethod
    def from_edge_lists(cls, neighbor_lists: List[List[Tuple[int, float]]]) -> "AdjacencyGraph":
        """Build from per-vertex ``[(neighbor, dist), ...]`` lists."""
        n = len(neighbor_lists)
        degrees = np.array([len(lst) for lst in neighbor_lists], dtype=np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        dists = np.empty(int(indptr[-1]), dtype=np.float64)
        pos = 0
        for lst in neighbor_lists:
            for u, d in lst:
                indices[pos] = u
                dists[pos] = d
                pos += 1
        return cls(indptr, indices, dists)

    def connected_fraction(self) -> float:
        """Fraction of vertices reachable from vertex 0 treating edges as
        undirected — a cheap connectivity diagnostic for optimized graphs."""
        if self.n == 0:
            return 0.0
        # Build undirected adjacency once.
        undirected: List[List[int]] = [[] for _ in range(self.n)]
        for v in range(self.n):
            nbr, _ = self.neighbors(v)
            for u in nbr:
                undirected[v].append(int(u))
                undirected[int(u)].append(v)
        seen = np.zeros(self.n, dtype=bool)
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            v = stack.pop()
            for u in undirected[v]:
                if not seen[u]:
                    seen[u] = True
                    count += 1
                    stack.append(u)
        return count / self.n
