"""Fixed-capacity flagged neighbor heaps — Algorithm 1's ``Update``.

Every vertex's candidate list ``G[v]`` is a bounded max-heap on
distance: the root is the *farthest* current neighbor, so a new
candidate either beats the root (replace + sift) or is rejected in O(1).
Each entry carries the ``new``/``old`` flag NN-Descent uses to avoid
re-checking pairs (Section 3.1).

The layout follows PyNNDescent: three parallel arrays (ids, distances,
flags) with ``INVALID_ID``/``inf`` placeholders, so a heap is usable
before it is full (during distributed initialization, entries arrive as
asynchronous messages in arbitrary order).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import GraphError

if TYPE_CHECKING:  # import only for annotations: heap has no runtime
    from ..analysis.sanitizer import Sanitizer  # dependency on analysis

#: Placeholder id for an empty slot.
EMPTY = -1


class NeighborHeap:
    """Bounded max-heap of ``(id, distance, flag)`` neighbor entries.

    Parameters
    ----------
    k:
        Capacity — the ``K`` of the output k-NNG.

    Notes
    -----
    ``checked_push`` implements Algorithm 1's ``Update(H, (v, d, f))``:
    reject if ``v`` already present or ``d`` not better than the current
    worst; otherwise replace the worst and return 1.
    """

    __slots__ = ("k", "ids", "dists", "flags", "_members",
                 "_san", "_san_owner", "_san_iters")

    def __init__(self, k: int) -> None:
        if k < 1:
            raise GraphError(f"heap capacity must be >= 1, got {k}")
        self.k = int(k)
        self.ids = np.full(self.k, EMPTY, dtype=np.int64)
        self.dists = np.full(self.k, np.inf, dtype=np.float64)
        self.flags = np.zeros(self.k, dtype=bool)
        self._members: set[int] = set()
        # Ownership sanitizer metadata; set via repro.analysis.sanitizer
        # .tag_heap when REPRO_SANITIZE is on, otherwise permanently None
        # (so guards cost one attribute test).
        self._san: Optional["Sanitizer"] = None
        self._san_owner = 0
        self._san_iters = 0

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, vid: int) -> bool:
        return int(vid) in self._members

    @property
    def full(self) -> bool:
        return len(self._members) == self.k

    def worst_distance(self) -> float:
        """Distance of the farthest neighbor (``inf`` while not full).

        This is the bound attached to Type 2+ messages (Section 4.3.3).
        """
        return float(self.dists[0])

    def entries(self) -> Iterator[Tuple[int, float, bool]]:
        """Yield ``(id, dist, flag)`` for occupied slots, heap order."""
        if self._san is not None:
            return self._sanitized_entries()
        return self._entries()

    def _entries(self) -> Iterator[Tuple[int, float, bool]]:
        for i in range(self.k):
            if self.ids[i] != EMPTY:
                yield int(self.ids[i]), float(self.dists[i]), bool(self.flags[i])

    def _sanitized_entries(self) -> Iterator[Tuple[int, float, bool]]:
        self._san.check_access(self._san_owner, "neighbor heap (iterate)")
        self._san_iters += 1
        try:
            yield from self._entries()
        finally:
            self._san_iters -= 1

    def new_ids(self) -> List[int]:
        """Ids currently flagged *new* (Algorithm 1 line 9 source)."""
        mask = (self.ids != EMPTY) & self.flags
        return self.ids[mask].tolist()

    def old_ids(self) -> List[int]:
        """Ids currently flagged *old* (Algorithm 1 line 8)."""
        mask = (self.ids != EMPTY) & ~self.flags
        return self.ids[mask].tolist()

    # -- mutation -----------------------------------------------------------

    def checked_push(self, vid: int, dist: float, flag: bool = True) -> int:
        """Algorithm 1 ``Update``: insert if new and closer than the
        worst; returns 1 if the heap changed, else 0."""
        if self._san is not None:
            self._san.check_access(self._san_owner, "neighbor heap (push)")
            self._san.check_iteration(self._san_iters, "neighbor heap")
        vid = int(vid)
        if vid in self._members:
            return 0
        if dist >= self.dists[0]:
            # Not better than the current worst (inf while not full, so
            # any finite distance is accepted until full).
            return 0
        evicted = int(self.ids[0])
        if evicted != EMPTY:
            self._members.discard(evicted)
        self._members.add(vid)
        self.ids[0] = vid
        self.dists[0] = dist
        self.flags[0] = flag
        self._siftdown(0)
        return 1

    def checked_push_batch(self, ids, dists, flag: bool = True) -> int:
        """Apply a batch of candidates *in array order*; returns the
        number of entries that changed the heap.

        Semantically identical to calling :meth:`checked_push` per
        element — the batch execution engine relies on this for
        bit-identity with the scalar path.  One vectorized threshold
        pass drops candidates that cannot be accepted: the root distance
        is non-increasing while pushing, so any ``d >= worst`` *at batch
        start* would also be rejected at its original position (and a
        rejected push has no side effects).  Membership must stay a
        sequential check: an id evicted mid-batch may legitimately be
        re-pushed later in the same batch.
        """
        if self._san is not None:
            self._san.check_access(self._san_owner, "neighbor heap (push batch)")
            self._san.check_iteration(self._san_iters, "neighbor heap")
        dists = np.asarray(dists, dtype=np.float64)
        worst0 = self.dists[0]
        if np.isfinite(worst0):  # full heap: prefilter is exact
            keep = dists < worst0
            if not keep.all():
                ids = np.asarray(ids, dtype=np.int64)[keep]
                dists = dists[keep]
        updates = 0
        members = self._members
        slot_ids, slot_dists, slot_flags = self.ids, self.dists, self.flags
        for vid, d in zip(np.asarray(ids, dtype=np.int64).tolist(),
                          dists.tolist()):
            if vid in members:
                continue
            if d >= slot_dists[0]:
                continue
            evicted = int(slot_ids[0])
            if evicted != EMPTY:
                members.discard(evicted)
            members.add(vid)
            slot_ids[0] = vid
            slot_dists[0] = d
            slot_flags[0] = flag
            self._siftdown(0)
            updates += 1
        return updates

    def mark_old(self, vid: int) -> None:
        """Clear the *new* flag of ``vid`` (Algorithm 1 line 10)."""
        if self._san is not None:
            self._san.check_access(self._san_owner, "neighbor heap (mark_old)")
            self._san.check_iteration(self._san_iters, "neighbor heap")
        idx = np.flatnonzero(self.ids == int(vid))
        if idx.size:
            self.flags[idx[0]] = False

    def mark_old_many(self, vids) -> None:
        """Clear the *new* flag of every id in ``vids`` — equivalent to
        :meth:`mark_old` per element (heap ids are unique, and clearing
        flags is order-free)."""
        if not vids:
            return
        if self._san is not None:
            self._san.check_access(self._san_owner, "neighbor heap (mark_old)")
            self._san.check_iteration(self._san_iters, "neighbor heap")
        vidset = set(vids)
        ids = self.ids.tolist()
        flags = self.flags
        for i in range(self.k):
            if ids[i] in vidset:
                flags[i] = False

    def load_state(self, ids, dists, flags) -> None:
        """Overwrite the heap with a raw snapshot in *heap order* (the
        checkpoint/restore path — the only writer of raw slot state
        besides the push methods).  The member set is rebuilt from the
        ids and the result is validated: a snapshot with a duplicate id,
        broken heap order, or a finite distance in an empty slot raises
        :class:`GraphError` instead of seeding a silently wrong build."""
        self.ids[:] = ids
        self.dists[:] = dists
        self.flags[:] = flags
        self._members = {v for v in self.ids.tolist() if v != EMPTY}
        self.check_invariants()

    def _siftdown(self, i: int) -> None:
        """Restore the max-heap property from slot ``i`` downwards."""
        ids, dists, flags = self.ids, self.dists, self.flags
        k = self.k
        while True:
            left = 2 * i + 1
            right = left + 1
            largest = i
            if left < k and dists[left] > dists[largest]:
                largest = left
            if right < k and dists[right] > dists[largest]:
                largest = right
            if largest == i:
                return
            ids[i], ids[largest] = ids[largest], ids[i]
            dists[i], dists[largest] = dists[largest], dists[i]
            flags[i], flags[largest] = flags[largest], flags[i]
            i = largest

    # -- extraction ----------------------------------------------------------

    def sorted_entries(self) -> List[Tuple[int, float, bool]]:
        """Occupied entries sorted ascending by distance (closest first)."""
        occupied = [(int(i), float(d), bool(f))
                    for i, d, f in zip(self.ids, self.dists, self.flags)
                    if i != EMPTY]
        occupied.sort(key=lambda t: (t[1], t[0]))
        return occupied

    def sorted_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ids, dists, flags)`` sorted ascending by distance, padded to
        capacity with ``EMPTY``/``inf``/False."""
        entries = self.sorted_entries()
        ids = np.full(self.k, EMPTY, dtype=np.int64)
        dists = np.full(self.k, np.inf, dtype=np.float64)
        flags = np.zeros(self.k, dtype=bool)
        for slot, (vid, dist, flag) in enumerate(entries):
            ids[slot] = vid
            dists[slot] = dist
            flags[slot] = flag
        return ids, dists, flags

    # -- invariant check (used by property tests) -------------------------------

    def check_invariants(self) -> None:
        """Raise :class:`GraphError` if any heap invariant is violated."""
        occupied = self.ids != EMPTY
        if len(self._members) != int(occupied.sum()):
            raise GraphError("member-set size disagrees with occupied slots")
        if set(int(i) for i in self.ids[occupied]) != self._members:
            raise GraphError("member set disagrees with id slots")
        for i in range(self.k):
            for child in (2 * i + 1, 2 * i + 2):
                if child < self.k and self.dists[child] > self.dists[i]:
                    raise GraphError(f"heap order violated at slot {i}->{child}")
        if np.any(np.isfinite(self.dists[~occupied])):
            raise GraphError("empty slot holds a finite distance")
