"""NeighborHeap — Algorithm 1's Update semantics."""

import numpy as np
import pytest

from repro.core.heap import EMPTY, NeighborHeap
from repro.errors import GraphError


class TestConstruction:
    def test_empty_heap(self):
        h = NeighborHeap(4)
        assert len(h) == 0
        assert not h.full
        assert h.worst_distance() == np.inf

    def test_bad_capacity(self):
        with pytest.raises(GraphError):
            NeighborHeap(0)


class TestCheckedPush:
    def test_insert_returns_one(self):
        h = NeighborHeap(3)
        assert h.checked_push(5, 1.0) == 1
        assert 5 in h

    def test_duplicate_rejected(self):
        h = NeighborHeap(3)
        h.checked_push(5, 1.0)
        assert h.checked_push(5, 0.5) == 0
        assert len(h) == 1

    def test_fills_to_capacity(self):
        h = NeighborHeap(3)
        for i in range(3):
            assert h.checked_push(i, float(i)) == 1
        assert h.full
        assert h.worst_distance() == 2.0

    def test_worse_than_worst_rejected_when_full(self):
        h = NeighborHeap(2)
        h.checked_push(0, 1.0)
        h.checked_push(1, 2.0)
        assert h.checked_push(2, 3.0) == 0
        assert h.checked_push(3, 2.0) == 0  # ties rejected (strict <)

    def test_better_replaces_worst(self):
        h = NeighborHeap(2)
        h.checked_push(0, 1.0)
        h.checked_push(1, 2.0)
        assert h.checked_push(2, 1.5) == 1
        assert 1 not in h and 2 in h
        assert h.worst_distance() == 1.5

    def test_infinite_distance_rejected(self):
        h = NeighborHeap(2)
        assert h.checked_push(0, np.inf) == 0

    def test_eviction_keeps_k_closest(self):
        h = NeighborHeap(5)
        rng = np.random.default_rng(0)
        dists = rng.random(100)
        for i, d in enumerate(dists):
            h.checked_push(i, float(d))
        kept = sorted(d for _, d, _ in h.entries())
        want = sorted(dists)[:5]
        np.testing.assert_allclose(kept, want)

    def test_update_counter_semantics(self):
        # The sum of checked_push returns is the Algorithm 1 counter c.
        h = NeighborHeap(2)
        c = 0
        c += h.checked_push(0, 5.0)
        c += h.checked_push(1, 4.0)
        c += h.checked_push(0, 1.0)  # dup: no count
        c += h.checked_push(2, 9.0)  # too far: no count
        c += h.checked_push(3, 1.0)  # improves
        assert c == 3


class TestFlags:
    def test_new_flag_default(self):
        h = NeighborHeap(3)
        h.checked_push(1, 0.5, True)
        h.checked_push(2, 0.7, False)
        assert h.new_ids() == [1]
        assert h.old_ids() == [2]

    def test_mark_old(self):
        h = NeighborHeap(3)
        h.checked_push(1, 0.5, True)
        h.mark_old(1)
        assert h.new_ids() == []
        assert h.old_ids() == [1]

    def test_mark_old_missing_is_noop(self):
        h = NeighborHeap(3)
        h.checked_push(1, 0.5, True)
        h.mark_old(99)
        assert h.new_ids() == [1]

    def test_replacement_entry_is_new(self):
        h = NeighborHeap(1)
        h.checked_push(1, 5.0, True)
        h.mark_old(1)
        h.checked_push(2, 1.0, True)
        assert h.new_ids() == [2]


class TestExtraction:
    def test_sorted_entries_ascending(self):
        h = NeighborHeap(4)
        for i, d in enumerate([3.0, 1.0, 2.0, 0.5]):
            h.checked_push(i, d)
        dists = [d for _, d, _ in h.sorted_entries()]
        assert dists == sorted(dists)

    def test_sorted_arrays_padding(self):
        h = NeighborHeap(4)
        h.checked_push(7, 1.0)
        ids, dists, flags = h.sorted_arrays()
        assert ids[0] == 7 and dists[0] == 1.0
        assert (ids[1:] == EMPTY).all()
        assert np.isinf(dists[1:]).all()

    def test_sorted_entries_tie_break_by_id(self):
        h = NeighborHeap(3)
        h.checked_push(9, 1.0)
        h.checked_push(2, 1.0)
        ids = [i for i, _, _ in h.sorted_entries()]
        assert ids == [2, 9]

    def test_entries_iteration(self):
        h = NeighborHeap(3)
        h.checked_push(1, 0.1)
        h.checked_push(2, 0.2)
        got = {(i, d) for i, d, _ in h.entries()}
        assert got == {(1, 0.1), (2, 0.2)}


class TestInvariants:
    def test_check_invariants_on_random_workload(self):
        rng = np.random.default_rng(3)
        h = NeighborHeap(8)
        for _ in range(500):
            h.checked_push(int(rng.integers(0, 60)), float(rng.random()))
            h.check_invariants()

    def test_membership_tracks_evictions(self):
        h = NeighborHeap(2)
        h.checked_push(0, 2.0)
        h.checked_push(1, 1.0)
        h.checked_push(2, 0.5)  # evicts 0
        assert 0 not in h and 1 in h and 2 in h
        h.check_invariants()


class TestLoadState:
    """``load_state`` is the one writer of raw slot state (checkpoint
    restore): it must reproduce a snapshot exactly and refuse one that
    is not a heap."""

    @staticmethod
    def _filled():
        h = NeighborHeap(4)
        for vid, d in ((5, 0.4), (1, 0.9), (8, 0.2), (3, 0.7), (6, 0.1)):
            h.checked_push(vid, d)
        h.mark_old(8)
        return h

    def test_round_trip_is_exact_and_behaves_the_same(self):
        src = self._filled()
        dst = NeighborHeap(4)
        dst.load_state(src.ids.copy(), src.dists.copy(), src.flags.copy())
        assert dst.ids.tolist() == src.ids.tolist()
        assert dst.dists.tolist() == src.dists.tolist()
        assert dst.flags.tolist() == src.flags.tolist()
        assert len(dst) == len(src) and 8 in dst and 1 not in dst
        # Same state -> same decisions afterwards (member set included).
        for vid, d in ((8, 0.05), (9, 0.3), (1, 0.35)):
            assert dst.checked_push(vid, d) == src.checked_push(vid, d)
        assert dst.ids.tolist() == src.ids.tolist()

    def test_partially_filled_snapshot(self):
        src = NeighborHeap(4)
        src.checked_push(2, 0.5)
        dst = self._filled()  # stale members must not survive the load
        dst.load_state(src.ids, src.dists, src.flags)
        assert len(dst) == 1 and 2 in dst and 5 not in dst

    @pytest.mark.parametrize("corrupt", ["duplicate", "order", "empty-finite"])
    def test_rejects_a_snapshot_that_is_not_a_heap(self, corrupt):
        src = self._filled()
        ids, dists, flags = src.ids.copy(), src.dists.copy(), src.flags.copy()
        if corrupt == "duplicate":
            ids[1] = ids[0]
        elif corrupt == "order":
            dists[0] = 0.0
        else:
            ids[0] = EMPTY
        with pytest.raises(GraphError):
            NeighborHeap(4).load_state(ids, dists, flags)
