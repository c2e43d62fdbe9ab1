"""Unit tests for the batch execution engine's building blocks:

- ``NeighborHeap.checked_push_batch`` — must be semantically identical
  to per-element ``checked_push`` (duplicates, ties, partial fill,
  mid-batch evict/re-push),
- YGM run coalescing — contiguous same-``(dest, handler)`` runs are
  delivered as ONE batch-handler invocation, split by handler changes
  and never merged across destinations, while ``MessageStats`` stays
  exactly what the scalar engine records.
"""

import numpy as np
import pytest

from repro.config import ClusterConfig
from repro.core.heap import NeighborHeap
from repro.errors import RuntimeStateError
from repro.runtime.transports import SimCluster
from repro.runtime.ygm import YGMWorld


class TestCheckedPushBatch:
    def test_partial_fill(self):
        h = NeighborHeap(5)
        assert h.checked_push_batch([1, 2], [0.5, 0.2]) == 2
        assert len(h) == 2 and not h.full
        assert h.worst_distance() == np.inf

    def test_duplicates_within_batch_rejected(self):
        h = NeighborHeap(4)
        assert h.checked_push_batch([7, 7, 7], [0.3, 0.1, 0.2]) == 1
        assert len(h) == 1
        # First occurrence wins, exactly like sequential checked_push.
        assert dict((i, d) for i, d, _ in h.entries())[7] == 0.3

    def test_tie_with_worst_rejected(self):
        h = NeighborHeap(2)
        h.checked_push(1, 1.0)
        h.checked_push(2, 2.0)
        # d == worst is a rejection (strict <), also in batch form.
        assert h.checked_push_batch([3], [2.0]) == 0
        assert 3 not in h

    def test_evicted_id_can_repush_later_in_batch(self):
        h = NeighborHeap(2)
        h.checked_push(1, 1.0)
        h.checked_push(2, 2.0)
        # 3 evicts 2; then 2 re-enters closer, evicting 1.
        assert h.checked_push_batch([3, 2], [0.5, 0.2]) == 2
        assert sorted(h._members) == [2, 3]

    def test_flag_propagates(self):
        h = NeighborHeap(3)
        h.checked_push_batch([1, 2], [0.1, 0.2], flag=False)
        assert all(not f for _, _, f in h.entries())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_sequential_checked_push(self, seed):
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, 40, size=200)
        dists = np.round(rng.random(200), 2)  # rounding forces ties
        a, b = NeighborHeap(8), NeighborHeap(8)
        total = sum(a.checked_push(int(i), float(d)) for i, d in zip(ids, dists))
        assert b.checked_push_batch(ids, dists) == total
        assert np.array_equal(a.ids, b.ids)
        assert a.dists.tobytes() == b.dists.tobytes()
        assert np.array_equal(a.flags, b.flags)
        assert a._members == b._members


def make_world(nodes=2, ppn=2, flush=1024):
    cluster = SimCluster(ClusterConfig(nodes=nodes, procs_per_node=ppn))
    return YGMWorld(cluster, flush_threshold=flush)


class TestCoalescing:
    def _instrument(self, world):
        """Register scalar handlers h/g plus a recording batch variant
        of h; returns (batch_runs, delivered) logs."""
        batch_runs, delivered = [], []

        def h(ctx, x):
            delivered.append(("h", ctx.rank, x))

        def g(ctx, x):
            delivered.append(("g", ctx.rank, x))

        def h_batch(ctx, args_list):
            batch_runs.append((ctx.rank, [a[0] for a in args_list]))
            for (x,) in args_list:
                h(ctx, x)

        world.register_handlers(h=h, g=g)
        world.register_batch_handler("h", h_batch)
        return batch_runs, delivered

    def test_contiguous_run_is_one_batch_invocation(self):
        world = make_world()
        batch_runs, delivered = self._instrument(world)
        for i in range(5):
            world.async_call(0, 1, "h", i)
        world.barrier()
        assert batch_runs == [(1, [0, 1, 2, 3, 4])]
        assert delivered == [("h", 1, i) for i in range(5)]

    def test_handler_change_splits_the_run(self):
        world = make_world()
        batch_runs, delivered = self._instrument(world)
        for i in range(3):
            world.async_call(0, 1, "h", i)
        world.async_call(0, 1, "g", 99)
        for i in range(3, 5):
            world.async_call(0, 1, "h", i)
        world.barrier()
        assert batch_runs == [(1, [0, 1, 2]), (1, [3, 4])]
        # Delivery order is untouched by coalescing.
        assert delivered == [("h", 1, 0), ("h", 1, 1), ("h", 1, 2),
                             ("g", 1, 99), ("h", 1, 3), ("h", 1, 4)]

    def test_runs_never_merge_across_destinations(self):
        world = make_world()
        batch_runs, _ = self._instrument(world)
        for i in range(4):
            world.async_call(0, 1 + (i % 2), "h", i)
        world.barrier()
        by_dest = sorted(batch_runs)
        assert by_dest == [(1, [0, 2]), (2, [1, 3])]

    def test_stats_match_scalar_world_per_type(self):
        def drive(world):
            for i in range(6):
                world.async_call(0, 1, "h", i, msg_type="type1")
            world.async_call(0, 1, "g", 7, msg_type="type2")
            for i in range(3):
                world.async_call(0, 2, "h", i, msg_type="type1")
            world.barrier()
            return world.cluster.stats.snapshot()

        scalar = make_world()
        scalar.register_handlers(h=lambda ctx, x: None, g=lambda ctx, x: None)
        batched = make_world()
        self._instrument(batched)
        assert drive(scalar) == drive(batched)
        assert scalar.handler_invocations == batched.handler_invocations

    def test_duplicate_batch_registration_rejected(self):
        world = make_world()
        world.register_handler("h", lambda ctx, x: None)
        world.register_batch_handler("h", lambda ctx, args_list: None)
        with pytest.raises(RuntimeStateError):
            world.register_batch_handler("h", lambda ctx, args_list: None)
