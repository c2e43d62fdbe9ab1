"""Property-based tests for NeighborHeap (core NN-Descent invariant)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.heap import EMPTY, NeighborHeap, check_rows, merge_rows

pushes = st.lists(
    st.tuples(st.integers(0, 40),
              st.floats(0.0, 100.0, allow_nan=False),
              st.booleans()),
    min_size=0, max_size=120,
)


@given(k=st.integers(1, 12), ops=pushes)
@settings(max_examples=120, deadline=None)
def test_heap_distance_multiset_matches_greedy_model(k, ops):
    """The multiset of retained distances equals a greedy replay of
    Algorithm 1's Update rule (insert if id absent and strictly closer
    than the current worst).  Ids are compared as a subset because ties
    in the worst distance make the evicted id implementation-defined."""
    heap = NeighborHeap(k)
    model = {}
    # De-tie distances: with ties in the worst distance, the evicted id
    # is implementation-defined and later duplicate-id pushes would make
    # even the distance multiset diverge from any fixed model.
    ops = [(vid, dist + i * 1e-7, flag) for i, (vid, dist, flag) in enumerate(ops)]
    for vid, dist, flag in ops:
        heap.checked_push(vid, dist, flag)
        heap.check_invariants()
        if vid in model:
            continue
        if len(model) < k:
            model[vid] = dist
        else:
            worst = max(model.values())
            if dist < worst:
                evict = max(model.items(), key=lambda t: t[1])[0]
                del model[evict]
                model[vid] = dist
    got_dists = sorted(d for _, d, _ in heap.entries())
    want_dists = sorted(model.values())
    assert got_dists == want_dists
    got_ids = {vid for vid, _, _ in heap.entries()}
    seen_ids = {vid for vid, _, _ in ops}
    assert got_ids <= seen_ids


@given(k=st.integers(1, 10), ops=pushes)
@settings(max_examples=100, deadline=None)
def test_worst_distance_is_max_when_full(k, ops):
    heap = NeighborHeap(k)
    for vid, dist, flag in ops:
        heap.checked_push(vid, dist, flag)
    if heap.full:
        dists = [d for _, d, _ in heap.entries()]
        assert heap.worst_distance() == max(dists)
    else:
        assert heap.worst_distance() == np.inf


@given(k=st.integers(1, 10), ops=pushes)
@settings(max_examples=100, deadline=None)
def test_sorted_arrays_ascending_and_padded(k, ops):
    heap = NeighborHeap(k)
    for vid, dist, flag in ops:
        heap.checked_push(vid, dist, flag)
    ids, dists, flags = heap.sorted_arrays()
    occ = ids != EMPTY
    assert (np.diff(dists[occ]) >= 0).all()
    assert np.isinf(dists[~occ]).all()
    assert len(set(ids[occ].tolist())) == occ.sum()


@given(k=st.integers(1, 10), ops=pushes)
@settings(max_examples=100, deadline=None)
def test_new_old_partition(k, ops):
    """new_ids and old_ids partition the membership."""
    heap = NeighborHeap(k)
    for vid, dist, flag in ops:
        heap.checked_push(vid, dist, flag)
    new = set(heap.new_ids())
    old = set(heap.old_ids())
    assert not (new & old)
    assert new | old == {vid for vid, _, _ in heap.entries()}


@given(k=st.integers(1, 10), ops=pushes, marks=st.lists(st.integers(0, 40)))
@settings(max_examples=80, deadline=None)
def test_mark_old_idempotent(k, ops, marks):
    heap = NeighborHeap(k)
    for vid, dist, flag in ops:
        heap.checked_push(vid, dist, flag)
    for m in marks:
        heap.mark_old(m)
        heap.mark_old(m)
        assert m not in set(heap.new_ids())
        heap.check_invariants()


@given(k=st.integers(1, 8), ops=pushes)
@settings(max_examples=80, deadline=None)
def test_push_return_value_matches_membership_change(k, ops):
    heap = NeighborHeap(k)
    for vid, dist, flag in ops:
        before = {v: d for v, d, _ in heap.entries()}
        changed = heap.checked_push(vid, dist, flag)
        after = {v: d for v, d, _ in heap.entries()}
        assert changed in (0, 1)
        assert (before != after) == bool(changed)


#: Few distinct distances, so keys tie: equal distances, candidates at
#: their row's worst key, and both signs of zero.
distances = st.sampled_from([-0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.0])


@st.composite
def merges(draw):
    """Rows of incumbents in heap order, as ``checked_push`` leaves them
    (some rows not full), and candidates for them: repeated ids at
    different distances, ids some row already holds.  An id a row holds
    comes back no closer than it is held — what every distance check
    guarantees, since one pair always has one distance."""
    k = draw(st.integers(1, 6))
    n_rows = draw(st.integers(1, 4))
    heaps = []
    for _ in range(n_rows):
        heap = NeighborHeap(k)
        for vid, dist, flag in draw(st.lists(
                st.tuples(st.integers(0, 12), distances, st.booleans()),
                max_size=10)):
            heap.checked_push(vid, dist, flag)
        heaps.append(heap)
    cands = []
    for row, vid, dist in draw(st.lists(
            st.tuples(st.integers(0, n_rows - 1), st.integers(0, 12),
                      distances), max_size=40)):
        held = dict(zip(heaps[row].ids.tolist(), heaps[row].dists.tolist()))
        cands.append((row, vid, max(dist, held.get(vid, dist))))
    return heaps, cands, draw(st.booleans())


@given(case=merges())
@settings(max_examples=300, deadline=None)
def test_merge_rows_equals_sequential_checked_push(case):
    """Bulk ``merge_rows`` over several rows leaves, row by row, the
    entry set of offering each candidate to ``checked_push`` in turn,
    closest first; it rewrites exactly the rows some push changed, and
    counts the candidates each holds afterwards."""
    heaps, cands, flag = case
    ids = np.stack([h.ids for h in heaps])
    dists = np.stack([h.dists for h in heaps])
    flags = np.stack([h.flags for h in heaps])
    rows = np.array([c[0] for c in cands], dtype=np.int64)
    cand_ids = np.array([c[1] for c in cands], dtype=np.int64)
    cand_dists = np.array([c[2] for c in cands], dtype=np.float64)
    touched, accepted = merge_rows(ids, dists, flags, rows, cand_ids,
                                   cand_dists, flag)
    assert check_rows(ids, dists) is None
    want_touched, want_accepted = [], []
    for row, heap in enumerate(heaps):
        before = set(heap.ids.tolist())
        changed = 0
        for _, vid, dist in sorted((c for c in cands if c[0] == row),
                                   key=lambda c: (c[2], c[1])):
            changed |= heap.checked_push(vid, dist, flag)
        got = NeighborHeap.view(ids[row], dists[row], flags[row])
        assert set(got.entries()) == set(heap.entries())
        if changed:
            want_touched.append(row)
            want_accepted.append(len(set(heap.ids.tolist()) - before))
    assert touched.tolist() == want_touched
    assert accepted.tolist() == want_accepted
