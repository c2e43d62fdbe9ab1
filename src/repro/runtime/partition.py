"""Vertex-to-rank partitioning.

Section 4 of the paper: "DNND distributes a k-NNG G and an input dataset
V equally among all MPI ranks based on the hash values of the vertex
IDs. Each vertex (feature vector) v and the corresponding neighbor list
G_v are located in the same MPI rank."

:class:`HashPartitioner` implements exactly that with a splitmix64-style
integer hash (deterministic across runs and platforms — Python's builtin
``hash`` is salted, so it is unsuitable).  :class:`BlockPartitioner` is
a contiguous-range alternative used in tests and the skew ablation.

Partitioning is a first-class layer: every owner decision in the system
(driver shards, process-backend workers, distributed containers, the
distributed searcher) flows through one :class:`Partitioner` instance.
Two locality-aware members make that seam worth having:

- :class:`RPTreePartitioner` packs RP-tree leaves (points that are
  likely neighbors) onto ranks in tree order — the dNSG-style
  tree-based redistribution — with a greedy capacity bound,
- :class:`ExplicitPartitioner` holds an arbitrary id→rank table and is
  the *universal serialized form*: :func:`partitioner_spec` flattens
  any partitioner to it for checkpoint persistence, and
  :func:`graph_locality_assignment` produces one from a built graph
  for the post-build repartition pass.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Optional

import numpy as np

from ..errors import ConfigError, PartitionError

#: CLI-facing partitioner names accepted by :func:`make_partitioner`.
PARTITIONER_NAMES = ("hash", "block", "rptree")

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """SplitMix64 finalizer — a fast, well-mixed 64-bit integer hash."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def splitmix64_array(ids: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 over an array of non-negative int ids."""
    x = ids.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x += np.uint64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x = x ^ (x >> np.uint64(31))
    return x


class Partitioner:
    """Maps global vertex ids to owning ranks and local indices."""

    #: Short identity tag used by :func:`partitioner_spec` and the CLI.
    kind = "abstract"

    def __init__(self, n: int, world_size: int) -> None:
        if n <= 0:
            raise PartitionError(f"dataset size must be positive, got {n}")
        if world_size <= 0:
            raise PartitionError(f"world_size must be positive, got {world_size}")
        self.n = int(n)
        self.world_size = int(world_size)

    def require_covers(self, n: int, world_size: int, user: str) -> None:
        """Raise :class:`~repro.errors.ConfigError` unless this places
        exactly ``n`` vertices on ``world_size`` ranks — the shape of
        ``user``, which would route by it."""
        if self.n != n or self.world_size != world_size:
            raise ConfigError(
                f"partitioner covers n={self.n}, "
                f"world_size={self.world_size}; {user} has n={n}, "
                f"world_size={world_size}")

    # subclasses implement owner / owner_array
    def owner(self, v: int) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def owner_array(self, ids: np.ndarray) -> np.ndarray:
        return np.array([self.owner(int(v)) for v in ids], dtype=np.int64)

    def local_ids(self, rank: int) -> np.ndarray:
        """Global ids owned by ``rank``, ascending (cached)."""
        cache = getattr(self, "_local_cache", None)
        if cache is None:
            owners = self.owner_array(np.arange(self.n, dtype=np.int64))
            cache = {
                r: np.flatnonzero(owners == r).astype(np.int64)
                for r in range(self.world_size)
            }
            self._local_cache = cache
        if not 0 <= rank < self.world_size:
            raise PartitionError(f"rank {rank} out of range [0, {self.world_size})")
        return cache[rank]

    def local_index_map(self, rank: int) -> Dict[int, int]:
        """global id -> local row index on ``rank``."""
        ids = self.local_ids(rank)
        return {int(g): i for i, g in enumerate(ids)}

    def counts(self) -> List[int]:
        return [len(self.local_ids(r)) for r in range(self.world_size)]

    def max_imbalance(self) -> float:
        """max/mean partition size — hash partitioning keeps this ~1."""
        counts = self.counts()
        mean = sum(counts) / len(counts)
        return max(counts) / mean if mean else 1.0


class HashPartitioner(Partitioner):
    """Owner = splitmix64(id) mod world_size (the paper's scheme)."""

    kind = "hash"

    def owner(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise PartitionError(f"vertex id {v} out of range [0, {self.n})")
        return int(splitmix64(int(v)) % self.world_size)

    def owner_array(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.n):
            raise PartitionError("vertex id out of range in owner_array")
        return (splitmix64_array(ids) % np.uint64(self.world_size)).astype(np.int64)


class BlockPartitioner(Partitioner):
    """Contiguous blocks of ``ceil(n / P)`` ids per rank.

    Included for comparison: with clustered id orderings it produces the
    communication/compute skew that the hash partitioner avoids.
    """

    kind = "block"

    def __init__(self, n: int, world_size: int) -> None:
        super().__init__(n, world_size)
        self.block = -(-self.n // self.world_size)  # ceil div

    def owner(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise PartitionError(f"vertex id {v} out of range [0, {self.n})")
        return min(int(v) // self.block, self.world_size - 1)

    def owner_array(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.n):
            raise PartitionError("vertex id out of range in owner_array")
        return np.minimum(ids // self.block, self.world_size - 1)


class ExplicitPartitioner(Partitioner):
    """Arbitrary id→rank assignment table.

    The universal serialized form: every partitioner flattens to one of
    these for checkpoint persistence (:func:`partitioner_spec`), and the
    post-build repartition pass produces one from the built graph.
    ``source`` records the provenance ("rptree", "repartition", ...) so
    resume-time conflict checks can compare identities, not just tables.
    """

    kind = "explicit"

    def __init__(self, assignment: np.ndarray, world_size: int,
                 source: str = "explicit") -> None:
        arr = np.asarray(assignment, dtype=np.int64)
        if arr.ndim != 1:
            raise PartitionError(
                f"assignment must be a 1-D id->rank array, got shape {arr.shape}")
        super().__init__(len(arr), world_size)
        if arr.size and (arr.min() < 0 or arr.max() >= self.world_size):
            raise PartitionError(
                "assignment contains a rank outside "
                f"[0, {self.world_size})")
        self.assignment = arr
        self.source = str(source)

    def owner(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise PartitionError(f"vertex id {v} out of range [0, {self.n})")
        return int(self.assignment[int(v)])

    def owner_array(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.n):
            raise PartitionError("vertex id out of range in owner_array")
        return self.assignment[ids]


class RPTreePartitioner(ExplicitPartitioner):
    """Locality-aware placement from one random-projection tree.

    Leaves of an RP tree hold points that are likely neighbors
    (``core/rptree.py``); packing leaves onto ranks in depth-first tree
    order keeps whole subtrees on one rank — the dNSG-style tree-based
    redistribution.  Greedy packing against a running capacity of
    ``ceil(remaining / ranks_left)`` bounds the imbalance: no rank
    exceeds its capacity by more than one leaf, so
    ``max_imbalance() <= 1 + (leaf_size - 1) * world_size / n``.
    """

    kind = "rptree"

    def __init__(self, data, world_size: int,
                 leaf_size: Optional[int] = None, seed: int = 0) -> None:
        # Lazy import: runtime.partition must stay importable without
        # pulling the core package in at module-import time.
        from ..core.rptree import RPTree
        from ..utils.rng import derive_rng

        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2:
            raise PartitionError(
                "rptree partitioning needs dense 2-D data, got "
                f"ndim={arr.ndim}")
        n = len(arr)
        ws = int(world_size)
        if n <= 0 or ws <= 0:
            raise PartitionError(
                f"dataset size and world_size must be positive, got {n}/{ws}")
        if leaf_size is None:
            # A handful of leaves per rank keeps packing flexible while
            # leaves stay large enough to mean something.
            leaf_size = max(2, -(-n // (ws * 8)))
        self.leaf_size = int(leaf_size)
        self.seed = int(seed)
        tree = RPTree(arr, leaf_size=self.leaf_size,
                      rng=derive_rng(self.seed, 0x9A27))
        assignment = np.empty(n, dtype=np.int64)
        remaining, rank, filled = n, 0, 0
        cap = -(-remaining // ws)
        for leaf in tree.leaves():
            if rank < ws - 1 and filled and filled + len(leaf) > cap:
                remaining -= filled
                rank += 1
                filled = 0
                cap = -(-remaining // (ws - rank))
            assignment[leaf] = rank
            filled += len(leaf)
        super().__init__(assignment, ws, source="rptree")


def make_partitioner(name: str, n: int, world_size: int, data=None,
                     seed: int = 0) -> Partitioner:
    """Construct a partitioner from its CLI name (:data:`PARTITIONER_NAMES`)."""
    if name == "hash":
        return HashPartitioner(n, world_size)
    if name == "block":
        return BlockPartitioner(n, world_size)
    if name == "rptree":
        if data is None:
            raise PartitionError(
                "rptree partitioning needs the dataset to build the tree")
        return RPTreePartitioner(data, world_size, seed=seed)
    raise PartitionError(
        f"unknown partitioner {name!r}; expected one of {PARTITIONER_NAMES}")


def partitioner_spec(p: Partitioner) -> Dict[str, Any]:
    """JSON-serializable identity of ``p`` for checkpoint metadata.

    Hash and block partitioners are reconstructible from
    ``(type, n, world_size)`` alone; every other partitioner is
    flattened to the universal explicit form (full assignment table plus
    a ``source`` provenance tag).
    """
    if p.kind in ("hash", "block"):
        return {"type": p.kind, "n": p.n, "world_size": p.world_size}
    arr = p.owner_array(np.arange(p.n, dtype=np.int64))
    return {
        "type": "explicit",
        "source": getattr(p, "source", p.kind),
        "n": p.n,
        "world_size": p.world_size,
        "assignment": [int(r) for r in arr],
    }


def partitioner_from_spec(spec: Dict[str, Any]) -> Partitioner:
    """Reconstruct a partitioner with identical ownership from its spec."""
    kind = spec.get("type")
    n = int(spec["n"])
    ws = int(spec["world_size"])
    if kind == "hash":
        return HashPartitioner(n, ws)
    if kind == "block":
        return BlockPartitioner(n, ws)
    if kind == "explicit":
        return ExplicitPartitioner(
            np.asarray(spec["assignment"], dtype=np.int64), ws,
            source=str(spec.get("source", "explicit")))
    raise PartitionError(f"unknown partitioner spec type {kind!r}")


def spec_matches(spec: Dict[str, Any], requested) -> bool:
    """Does a requested partitioner (name or instance) match a stored spec?

    A name matches the stored ``type`` or its ``source`` provenance (so
    ``"rptree"`` matches the explicit table an rptree build persisted);
    an instance matches iff it would serialize to the identical spec.
    """
    if isinstance(requested, str):
        return requested in (spec.get("type"), spec.get("source"))
    return partitioner_spec(requested) == spec


def edge_cut_fraction(partitioner: Partitioner,
                      neighbor_ids: np.ndarray) -> float:
    """Fraction of directed graph edges crossing a rank boundary.

    ``neighbor_ids`` is the ``(n, k)`` neighbor table of a built graph;
    negative entries (padding) are skipped.  O(n*k), vectorized.
    """
    ids = np.asarray(neighbor_ids, dtype=np.int64)
    if ids.ndim != 2:
        raise PartitionError(
            f"neighbor table must be 2-D, got shape {ids.shape}")
    n, k = ids.shape
    valid = ids >= 0
    total = int(np.count_nonzero(valid))
    if total == 0:
        return 0.0
    row_owner = partitioner.owner_array(np.arange(n, dtype=np.int64))
    src = np.broadcast_to(row_owner[:, None], (n, k))[valid]
    dst = partitioner.owner_array(ids[valid])
    return float(np.count_nonzero(src != dst)) / total


def graph_locality_assignment(neighbor_ids: np.ndarray,
                              world_size: int) -> np.ndarray:
    """Graph-aware explicit assignment for the repartition pass.

    Capacity-bounded multi-source BFS over the built k-NN graph: one
    rank's region grows along graph edges (so neighbors co-locate)
    until the running capacity ``ceil(remaining / ranks_left)`` fills,
    then the frontier seeds the next rank's region.  Deterministic,
    O(n*k), and exactly balanced up to the ceiling division.
    """
    ids = np.asarray(neighbor_ids, dtype=np.int64)
    if ids.ndim != 2:
        raise PartitionError(
            f"neighbor table must be 2-D, got shape {ids.shape}")
    n = ids.shape[0]
    ws = int(world_size)
    if n <= 0 or ws <= 0:
        raise PartitionError(
            f"graph size and world_size must be positive, got {n}/{ws}")
    assignment = np.full(n, -1, dtype=np.int64)
    frontier: deque = deque()
    next_seed = 0
    remaining, rank, filled = n, 0, 0
    cap = -(-remaining // ws)
    for _ in range(n):
        v = -1
        while frontier:
            cand = frontier.popleft()
            if assignment[cand] < 0:
                v = cand
                break
        if v < 0:
            while assignment[next_seed] >= 0:
                next_seed += 1
            v = next_seed
        assignment[v] = rank
        filled += 1
        for u in ids[v]:
            u = int(u)
            if u >= 0 and assignment[u] < 0:
                frontier.append(u)
        if filled >= cap and rank < ws - 1:
            remaining -= filled
            rank += 1
            filled = 0
            cap = -(-remaining // (ws - rank))
    return assignment
