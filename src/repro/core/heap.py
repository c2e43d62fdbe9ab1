"""Fixed-capacity flagged neighbor rows — Algorithm 1's ``Update``.

Every vertex's candidate list ``G[v]`` is a bounded row of ``k``
``(id, distance, flag)`` entries kept in max-heap order, so slot 0 holds
the *worst* current neighbor: a new candidate either beats it or is
rejected in O(1).  Each entry carries the ``new``/``old`` flag NN-Descent
uses to avoid re-checking pairs (Section 3.1).

**One order everywhere.**  Entries are ordered by ``(distance, id)``.
A row therefore holds the ``k`` smallest ``(distance, id)`` pairs it was
ever offered, whatever the arrival order — which of two equidistant
candidates survives is a property of the data, not of the schedule.

**Row invariant** (what :func:`check_rows` verifies): ids are unique,
empty slots are ``(inf, EMPTY)`` — the largest key, so they sit on top
and a row is usable before it is full — and every slot's key is at most
its heap parent's.  The scalar :meth:`NeighborHeap.checked_push` keeps
it by sifting; the bulk :func:`merge_rows` writes rows sorted worst
first, which is a heap too.

**Exact without stable sorts.**  :func:`merge_rows` sorts with numpy's
unstable argsort, whose order of equal keys differs between numpy
builds, so no equal keys may decide its result (:mod:`.order`): its
grouping key ``row * span + id`` ties only for repeats of one id in one
row, of which ``np.minimum.reduceat`` keeps the closest, and its row key
``dist + 1j * id`` ties only for identical empty slots, since ids are
distinct within a row.  Incumbents may come in any slot order.

The state itself is three parallel arrays.  A :class:`NeighborHeap`
either owns length-``k`` arrays (the single-node oracle, search result
lists) or is a *row view* over a host's ``(n_host, k)`` matrices
(:meth:`NeighborHeap.view`), where the DNND handlers update many rows at
once through :func:`merge_rows`.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..errors import GraphError
from .order import row_keys, row_order, run_heads


#: Placeholder id for an empty slot.
EMPTY = -1

# What merge_rows returns when no candidate gets in.
_NOTHING = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


def row_holds(ids: np.ndarray, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``held[i]``: whether row ``rows[i]`` of the ``(n, k)`` id matrix
    holds ``x[i]``.  The ``m`` rows are gathered first — ``m * k`` work
    whatever ``n`` (a column gather of the transposed matrix copies all
    of it) — and their ``k`` columns compared one at a time: ORing ``k``
    length-``m`` vectors beats reducing ``m`` rows of ``k``."""
    gathered = ids.take(rows, axis=0)
    held = gathered[:, 0] == x
    for column in gathered.T[1:]:
        held |= column == x
    return held


def merge_rows(ids: np.ndarray, dists: np.ndarray, flags: np.ndarray,
               rows: np.ndarray, cand_ids: np.ndarray,
               cand_dists: np.ndarray,
               flag: bool = True) -> Tuple[np.ndarray, np.ndarray]:
    """Bulk ``Update``: offer candidate ``(cand_ids[i], cand_dists[i])``
    to row ``rows[i]`` of the ``(n, k)`` state matrices, all at once.

    Each touched row ends up holding the ``k`` smallest ``(dist, id)``
    keys among its incumbents and its candidates, stored worst first.
    A candidate whose id the row already holds is dropped (the incumbent
    keeps its distance and flag); of several candidates with one id the
    closest counts.  The result does not depend on the candidates' order
    nor on how they are split over calls, nor on the slot order of the
    incumbents.  Returns ``(touched, accepted)``: the rows that were
    rewritten, ascending, and how many candidates each holds afterwards
    (entered with ``flag``).
    """
    k = ids.shape[1]
    # A candidate at or beyond its row's worst key cannot get in.
    worst = dists[:, 0][rows]
    closer = cand_dists < worst
    tie = cand_dists == worst
    if tie.any():
        closer |= tie & (cand_ids < ids[:, 0][rows])
    if not closer.all():
        rows, cand_ids, cand_dists = rows[closer], cand_ids[closer], cand_dists[closer]
    if not rows.size:
        return _NOTHING
    absent = ~row_holds(ids, rows, cand_ids)
    if not absent.all():
        rows, cand_ids, cand_dists = rows[absent], cand_ids[absent], cand_dists[absent]
        if not rows.size:
            return _NOTHING
    # Group by row, and within a row by id: equal packed keys are one
    # (row, id), whatever order the sort leaves them in, and the closest
    # of them counts.  In a host block the key is below n**2 (order.py).
    lo = int(cand_ids.min())
    span = int(cand_ids.max()) - lo + 1
    pair = rows * span + (cand_ids - lo)
    order = np.argsort(pair)  # repro: ignore[REP105] equal keys are one (row, id); minimum.reduceat keeps their closest
    starts = np.flatnonzero(run_heads(pair[order]))
    cand_dists = cand_dists[order]
    if starts.size < order.size:
        cand_dists = np.minimum.reduceat(cand_dists, starts)
        order = order[starts]
    rows, cand_ids = rows[order], cand_ids[order]
    head = run_heads(rows)
    starts = np.flatnonzero(head)
    touched = rows[starts]
    group = np.cumsum(head) - 1
    slot = k + np.arange(rows.size) - starts[group]
    width = int(slot.max()) + 1
    # Incumbents in columns [0, k), candidates after them, as complex
    # (dist, id) keys: ids are distinct within a row, so only the
    # incumbents' identical (inf, EMPTY) empty slots tie.  Padding is
    # (inf, +inf) and sorts behind them, so it is never selected.
    shape = (touched.size, width)
    keys = np.full(shape, complex(np.inf, np.inf))
    keys[:, :k] = row_keys(dists.take(touched, axis=0), ids.take(touched, axis=0))
    keys[group, slot] = row_keys(cand_dists, cand_ids)
    m_flags = np.zeros(shape, dtype=bool)
    m_flags[:, :k] = flags.take(touched, axis=0)
    m_flags[group, slot] = flag
    best = row_order(keys)[:, k - 1::-1]
    kept = np.take_along_axis(keys, best, axis=1)
    ids[touched] = kept.imag
    dists[touched] = kept.real
    flags[touched] = np.take_along_axis(m_flags, best, axis=1)
    return touched, np.count_nonzero(best >= k, axis=1)


def check_rows(ids: np.ndarray, dists: np.ndarray) -> Optional[Tuple[int, str]]:
    """``(row, what is wrong)`` for the first row of the ``(n, k)``
    matrices that breaks the row invariant, or ``None``."""
    k = ids.shape[1]
    by_id = np.sort(ids, axis=1)
    bad = ((by_id[:, 1:] == by_id[:, :-1]) & (by_id[:, 1:] != EMPTY)).any(axis=1)
    if bad.any():
        return int(np.argmax(bad)), "duplicate id"
    bad = (np.isfinite(dists) & (ids == EMPTY)).any(axis=1)
    if bad.any():
        return int(np.argmax(bad)), "empty slot holds a finite distance"
    child = np.arange(1, k)
    parent = (child - 1) // 2
    above = (dists[:, child] > dists[:, parent]) | (
        (dists[:, child] == dists[:, parent]) & (ids[:, child] > ids[:, parent]))
    bad = above.any(axis=1)
    if bad.any():
        row = int(np.argmax(bad))
        slot = int(child[np.argmax(above[row])])
        return row, f"heap order violated at slot {(slot - 1) // 2}->{slot}"
    return None


class NeighborHeap:
    """Bounded max-heap of ``(id, distance, flag)`` neighbor entries,
    ordered by ``(distance, id)``.

    Parameters
    ----------
    k:
        Capacity — the ``K`` of the output k-NNG.

    Notes
    -----
    ``checked_push`` implements Algorithm 1's ``Update(H, (v, d, f))``:
    reject if ``v`` already present or ``(d, v)`` not below the current
    worst key; otherwise replace the worst and return 1.
    """

    __slots__ = ("k", "ids", "dists", "flags")

    def __init__(self, k: int) -> None:
        if k < 1:
            raise GraphError(f"heap capacity must be >= 1, got {k}")
        self._bind(np.full(int(k), EMPTY, dtype=np.int64),
                   np.full(int(k), np.inf, dtype=np.float64),
                   np.zeros(int(k), dtype=bool))

    @classmethod
    def view(cls, ids: np.ndarray, dists: np.ndarray,
             flags: np.ndarray) -> "NeighborHeap":
        """A heap over one row of a host's state matrices: reads and
        writes go to the matrices, nothing is copied or cached."""
        heap = cls.__new__(cls)
        heap._bind(ids, dists, flags)
        return heap

    def _bind(self, ids: np.ndarray, dists: np.ndarray,
              flags: np.ndarray) -> None:
        self.k = len(ids)
        self.ids, self.dists, self.flags = ids, dists, flags

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return int(np.count_nonzero(self.ids != EMPTY))

    def __contains__(self, vid: int) -> bool:
        return int(vid) in self.ids.tolist()

    @property
    def full(self) -> bool:
        # Empty slots hold the largest key, so one sits at the root
        # until the row is full.
        return bool(self.ids[0] != EMPTY)

    def worst_distance(self) -> float:
        """Distance of the farthest neighbor (``inf`` while not full).

        This is the bound attached to Type 2+ messages (Section 4.3.3).
        """
        return float(self.dists[0])

    def entries(self) -> Iterator[Tuple[int, float, bool]]:
        """Yield ``(id, dist, flag)`` for occupied slots, heap order."""
        for i in range(self.k):
            if self.ids[i] != EMPTY:
                yield int(self.ids[i]), float(self.dists[i]), bool(self.flags[i])

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
        """Algorithm 1 ``Update``: insert if absent and below the worst
        key; returns 1 if the heap changed, else 0."""
        vid = int(vid)
        ids, dists = self.ids, self.dists
        worst = dists[0]
        # The worst key is (inf, EMPTY) while not full, so any finite
        # distance is accepted until then.
        if dist > worst or (dist == worst and vid >= ids[0]):
            return 0
        if vid in ids.tolist():
            return 0
        ids[0] = vid
        dists[0] = dist
        self.flags[0] = flag
        self._siftdown(0)
        return 1

    def checked_push_batch(self, ids, dists, flag: bool = True) -> int:
        """Offer a batch of candidates (:func:`merge_rows` on this one
        row); returns how many of them are in the heap afterwards.  The
        resulting entries are those of per-element :meth:`checked_push`
        in any order, as long as an id always comes with one distance."""
        ids = np.asarray(ids, dtype=np.int64)
        _, accepted = merge_rows(self.ids[None, :], self.dists[None, :],
                                 self.flags[None, :],
                                 np.zeros(ids.size, dtype=np.intp), ids,
                                 np.asarray(dists, dtype=np.float64), flag)
        return int(accepted.sum())

    def mark_old(self, vid: int) -> None:
        """Clear the *new* flag of ``vid`` (Algorithm 1 line 10)."""
        self.mark_old_many((vid,))

    def mark_old_many(self, vids) -> None:
        """Clear the *new* flag of every id in ``vids``."""
        if not len(vids):
            return
        self.flags[np.isin(self.ids, vids)] = False

    def load_state(self, ids, dists, flags) -> None:
        """Overwrite the heap with a raw snapshot in *heap order* (the
        checkpoint/restore path — the only writer of raw slot state
        besides the push methods).  The result is validated: a snapshot
        with a duplicate id, broken heap order, or a finite distance in
        an empty slot raises :class:`GraphError` instead of seeding a
        silently wrong build."""
        self.ids[:] = ids
        self.dists[:] = dists
        self.flags[:] = flags
        self.check_invariants()

    def _siftdown(self, i: int) -> None:
        """Restore the max-heap property from slot ``i`` downwards."""
        ids, dists, flags = self.ids, self.dists, self.flags
        k = self.k
        while True:
            largest = i
            for child in (2 * i + 1, 2 * i + 2):
                if child < k and (
                        dists[child] > dists[largest]
                        or (dists[child] == dists[largest]
                            and ids[child] > ids[largest])):
                    largest = child
            if largest == i:
                return
            ids[i], ids[largest] = ids[largest], ids[i]
            dists[i], dists[largest] = dists[largest], dists[i]
            flags[i], flags[largest] = flags[largest], flags[i]
            i = largest

    # -- extraction ----------------------------------------------------------

    def sorted_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ids, dists, flags)`` sorted ascending by ``(dist, id)``,
        padded to capacity with ``EMPTY``/``inf``/False."""
        order = np.lexsort((self.ids, self.dists))
        return self.ids[order], self.dists[order], self.flags[order]

    def sorted_entries(self) -> List[Tuple[int, float, bool]]:
        """Occupied entries sorted ascending by distance (closest first)."""
        ids, dists, flags = self.sorted_arrays()
        return [entry for entry in zip(ids.tolist(), dists.tolist(),
                                       flags.tolist())
                if entry[0] != EMPTY]

    # -- invariant check (used by property tests) -------------------------------

    def check_invariants(self) -> None:
        """Raise :class:`GraphError` if the row invariant is violated."""
        broken = check_rows(self.ids[None, :], self.dists[None, :])
        if broken is not None:
            raise GraphError(broken[1])
