"""Random-projection-tree forest (PyNNDescent's initialization).

PyNNDescent seeds NN-Descent with candidates drawn from the leaves of a
small forest of random-projection trees, and also uses tree leaves to
pick search entry points (paper Section 6, Related Work).  A tree splits
the data recursively with random hyperplanes through pairs of sampled
points until leaves hold at most ``leaf_size`` points; points sharing a
leaf are likely neighbors, giving a far better starting graph than
uniform random initialization.

A built tree is flat arrays, not node objects: per internal node a unit
normal, an offset and two children; per leaf its members.  It keeps no
copy of the data it was built from, and :meth:`RPTree.route` sends a
whole block of queries down at once, one paired dot per tree level.
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np

from ..distances.dense import _rowwise_dot
from ..errors import ConfigError
from ..utils.rng import derive_rng
from .order import distinct_sorted


class RPTree:
    """A single random-projection tree over dense data.

    Internal node ``i`` splits by ``normals[i]``/``offsets[i]``: a point
    ``x`` with ``x . normal - offset <= 0`` goes to ``children[i, 0]``,
    any other (NaN included) to ``children[i, 1]``.  A child ``c >= 0``
    is an internal node, ``c < 0`` the leaf ``~c``, whose members are
    ``members[leaf_ptr[~c]:leaf_ptr[~c + 1]]``.  The root is
    :attr:`root` in the same encoding.
    """

    def __init__(self, data: np.ndarray, leaf_size: int,
                 rng: np.random.Generator, max_depth: int = 64) -> None:
        if leaf_size < 2:
            raise ConfigError(f"leaf_size must be >= 2, got {leaf_size}")
        self.leaf_size = int(leaf_size)
        X = np.asarray(data, dtype=np.float64)
        normals: List[np.ndarray] = []
        offsets: List[float] = []
        children: List[List[int]] = []
        leaves: List[np.ndarray] = []

        def build(members: np.ndarray, depth: int) -> int:
            if len(members) <= self.leaf_size or depth <= 0:
                leaves.append(members)
                return ~(len(leaves) - 1)
            # Random hyperplane through the midpoint of two random
            # members (the classic Dasgupta-Freund split PyNNDescent uses).
            i, j = rng.choice(len(members), size=2, replace=False)
            a = X[members[i]]
            b = X[members[j]]
            normal = a - b
            norm = np.linalg.norm(normal)
            if norm == 0.0:
                # Degenerate (duplicate points): the zero normal routes
                # every finite query left.
                normal, offset = np.zeros_like(normal), 0.0
                left_mask = np.zeros(len(members), dtype=bool)
            else:
                normal = normal / norm
                offset = float(np.dot(normal, (a + b) / 2.0))
                left_mask = X[members] @ normal - offset <= 0
            if left_mask.all() or not left_mask.any():
                # An empty side (duplicates included): split the members
                # arbitrarily in half.
                half = len(members) // 2
                perm = rng.permutation(len(members))
                left_members, right_members = (members[perm[:half]],
                                               members[perm[half:]])
            else:
                left_members = members[left_mask]
                right_members = members[~left_mask]
            node = len(children)
            normals.append(normal)
            offsets.append(offset)
            children.append([0, 0])
            children[node][0] = build(left_members, depth - 1)
            children[node][1] = build(right_members, depth - 1)
            return node

        self.root = build(np.arange(len(X), dtype=np.int64), max_depth)
        self.normals = (np.array(normals) if normals
                        else np.empty((0, X.shape[1])))
        self.offsets = np.array(offsets, dtype=np.float64)
        self.children = np.array(children, dtype=np.int64).reshape(-1, 2)
        self.leaf_ptr = np.concatenate(
            ([0], np.cumsum([len(m) for m in leaves]))).astype(np.int64)
        self.members = np.concatenate(leaves).astype(np.int64)

    def leaf(self, index: int) -> np.ndarray:
        """Member ids of leaf ``index``."""
        return self.members[self.leaf_ptr[index]:self.leaf_ptr[index + 1]]

    def leaves(self) -> Iterator[np.ndarray]:
        """Every leaf's members, right subtree first at each node (the
        order the ``rptree`` partitioner fills ranks in)."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node < 0:
                yield self.leaf(~node)
            else:
                stack.extend(self.children[node].tolist())

    def route(self, Q: np.ndarray) -> np.ndarray:
        """Leaf index of every row of ``Q``: the rows still at internal
        nodes take one step down per level together.  The dot is
        np.dot's reduction (``_rowwise_dot``), as a one-vector descent
        computes it, so a row's leaf does not depend on its block."""
        Q = np.asarray(Q, dtype=np.float64)
        node = np.full(len(Q), self.root, dtype=np.int64)
        at = np.flatnonzero(node >= 0)
        while at.size:
            step = node[at]
            side = _rowwise_dot(Q[at], self.normals[step]) - self.offsets[step]
            node[at] = self.children[step, (~(side <= 0)).astype(np.int64)]
            at = at[node[at] >= 0]
        return ~node

    def leaf_for(self, q: np.ndarray) -> np.ndarray:
        """Member ids of the leaf a query point routes to."""
        return self.leaf(int(self.route(np.asarray(q)[None])[0]))

    def depth(self) -> int:
        def _d(node: int) -> int:
            if node < 0:
                return 0
            return 1 + max(_d(int(c)) for c in self.children[node])
        return _d(self.root)


class RPTreeForest:
    """A forest of independent RP trees."""

    def __init__(self, trees: List[RPTree]) -> None:
        if not trees:
            raise ConfigError("forest needs at least one tree")
        self.trees = trees

    def leaves(self) -> Iterator[np.ndarray]:
        for tree in self.trees:
            yield from tree.leaves()

    def candidates(self, Q: np.ndarray) -> List[np.ndarray]:
        """Per row of ``Q``, the union of the leaf members it routes to
        in every tree, ascending — PyNNDescent-style search entry
        candidates.  The searcher's entry-forest protocol
        (:class:`~repro.core.search.KNNGraphSearcher`)."""
        Q = np.asarray(Q, dtype=np.float64)
        n = len(self.trees[0].members)
        keys = []
        for tree in self.trees:
            leaf = tree.route(Q)
            lo = tree.leaf_ptr[leaf]
            size = tree.leaf_ptr[leaf + 1] - lo
            ends = size.cumsum()
            pos = np.arange(ends[-1] if len(ends) else 0) + np.repeat(
                lo - (ends - size), size)
            keys.append(np.repeat(np.arange(len(Q)) * n, size)
                        + tree.members[pos])
        keys = distinct_sorted(np.concatenate(keys))
        row = keys // n
        cuts = np.searchsorted(row, np.arange(1, len(Q)))
        return np.split(keys - row * n, cuts)

    def candidates_for(self, q: np.ndarray) -> np.ndarray:
        """:meth:`candidates` of the one query ``q``."""
        return self.candidates(np.asarray(q)[None])[0]

    def __len__(self) -> int:
        return len(self.trees)


def make_rp_forest(data: np.ndarray, n_trees: int = 4, leaf_size: int = 30,
                   seed: int = 0) -> RPTreeForest:
    """Build an RP-tree forest over dense ``data`` (converted to float64
    once, for all trees, and not kept)."""
    if n_trees < 1:
        raise ConfigError(f"n_trees must be >= 1, got {n_trees}")
    X = np.asarray(data, dtype=np.float64)
    trees = [
        RPTree(X, leaf_size=leaf_size, rng=derive_rng(seed, 0x7EE, t))
        for t in range(n_trees)
    ]
    return RPTreeForest(trees)
