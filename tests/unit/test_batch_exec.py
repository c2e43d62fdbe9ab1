"""Unit tests for the columnar message path's building blocks:

- ``NeighborHeap.checked_push_batch`` — the one-row form of the bulk
  ``merge_rows``: same entries as per-element ``checked_push`` under the
  ``(distance, id)`` order (duplicates, ties, partial fill),
- YGM run coalescing — a round's messages to one handler reach it as
  ONE invocation per host, over every destination rank's run
  (rank-major, with the column of destination ranks), while
  ``MessageStats`` stays exactly what a world of per-message handlers
  records,
- ``emit_run`` — a run shipped as column chunks is, counter for counter
  and flush for flush, a loop of ``async_call``, from one source rank
  or from a column of them, and a run whose columns do not match its
  destinations is refused.
"""

import numpy as np
import pytest

from repro.config import ClusterConfig
from repro.core.heap import NeighborHeap
from repro.errors import RuntimeStateError
from repro.runtime.faults import FaultPlan, make_injector
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
        # The closest copy counts, whatever its position in the batch.
        assert dict((i, d) for i, d, _ in h.entries())[7] == 0.1

    def test_tie_with_worst_rejected(self):
        h = NeighborHeap(2)
        h.checked_push(1, 1.0)
        h.checked_push(2, 2.0)
        # d == worst with a larger id is not below the worst key.
        assert h.checked_push_batch([3], [2.0]) == 0
        assert 3 not in h

    def test_tie_with_worst_goes_to_the_smaller_id(self):
        """Which of two equidistant candidates survives is decided by
        id, not by arrival order — scalar and bulk alike."""
        for push in (lambda h, i, d: h.checked_push(i, d),
                     lambda h, i, d: h.checked_push_batch([i], [d])):
            early, late = NeighborHeap(2), NeighborHeap(2)
            for vid in (1, 5, 3):
                push(early, vid, 2.0)
            for vid in (5, 3, 1):
                push(late, vid, 2.0)
            assert sorted(early.ids.tolist()) == sorted(late.ids.tolist()) == [1, 3]

    def test_evicted_id_can_repush_later_in_batch(self):
        h = NeighborHeap(2)
        h.checked_push(1, 1.0)
        h.checked_push(2, 2.0)
        # 3 evicts 2; a later offer of 2 at its distance stays out, in
        # one batch as in a sequence of pushes.
        assert h.checked_push_batch([3, 2], [0.5, 2.0]) == 1
        assert sorted(h.ids.tolist()) == [1, 3]
        assert h.checked_push(2, 2.0) == 0

    def test_flag_propagates(self):
        h = NeighborHeap(3)
        h.checked_push_batch([1, 2], [0.1, 0.2], flag=False)
        assert all(not f for _, _, f in h.entries())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_sequential_checked_push(self, seed):
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, 40, size=200)
        # An id always comes with one distance; rounding forces ties.
        dists = np.round(rng.random(40), 1)[ids]
        a, b, c = NeighborHeap(8), NeighborHeap(8), NeighborHeap(8)
        total = sum(a.checked_push(int(i), float(d)) for i, d in zip(ids, dists))
        survivors = b.checked_push_batch(ids, dists)
        for lo in range(0, 200, 7):
            c.checked_push_batch(ids[lo:lo + 7][::-1], dists[lo:lo + 7][::-1])
        assert a.sorted_entries() == b.sorted_entries() == c.sorted_entries()
        assert survivors == len(b) <= total
        for h in (a, b, c):
            h.check_invariants()


def make_world(nodes=2, ppn=2, flush=1024, flush_bytes=1 << 20, **kw):
    cluster = SimCluster(ClusterConfig(nodes=nodes, procs_per_node=ppn),
                         **kw)
    return YGMWorld(cluster, flush_threshold=flush,
                    flush_threshold_bytes=flush_bytes)


class TestCoalescing:
    def _instrument(self, world):
        """Register a per-message handler g plus a recording columnar
        handler h; returns (batch_runs, delivered) logs."""
        batch_runs, delivered = [], []

        def g(ctx, x):
            delivered.append(("g", ctx.rank, x))

        def h(world, dest, xs):
            batch_runs.append((dest.tolist(), xs.tolist()))
            delivered.extend(("h", r, x) for r, x in zip(dest.tolist(),
                                                         xs.tolist()))

        world.register_handler("g", g)
        world.register_batch_handler("h", h)
        return batch_runs, delivered

    def test_contiguous_run_is_one_batch_invocation(self):
        world = make_world()
        batch_runs, delivered = self._instrument(world)
        for i in range(5):
            world.async_call(0, 1, "h", i)
        world.barrier()
        assert batch_runs == [([1] * 5, [0, 1, 2, 3, 4])]
        assert delivered == [("h", 1, i) for i in range(5)]

    def test_one_run_per_columnar_handler_per_rank_per_round(self):
        """Every handler — per-message or columnar — runs once per host
        per round, at its first appearance, over every rank's messages
        rank-major and each rank's in arrival order: a message to
        another handler between two chunks of ``h`` does not split the
        run, per-message ``g`` messages do not interleave with the
        others by arrival, and a rank that drains later in the round
        joins the same invocation."""
        world = make_world()
        batch_runs, delivered = self._instrument(world)
        world.register_batch_handler(
            "k", lambda world, dest, xs: delivered.extend(
                ("k", r, x) for r, x in zip(dest.tolist(), xs.tolist())))
        world.async_call(0, 1, "g", 98)
        for i in range(3):
            world.async_call(0, 1, "h", i)
        world.async_call(0, 1, "k", 50)
        world.async_call(0, 1, "g", 99)
        for i in range(3, 5):
            world.async_call(0, 1, "h", i)
        world.async_call(0, 1, "k", 51)
        world.async_call(0, 2, "h", 7)
        world.barrier()
        assert batch_runs == [([1, 1, 1, 1, 1, 2], [0, 1, 2, 3, 4, 7])]
        assert delivered == [("g", 1, 98), ("g", 1, 99),
                             *[("h", 1, i) for i in range(5)], ("h", 2, 7),
                             ("k", 1, 50), ("k", 1, 51)]
        assert world.log.counters()["executor.tasks"] == 10

    def test_runs_never_merge_across_destinations(self):
        world = make_world()
        batch_runs, _ = self._instrument(world)
        for i in range(4):
            world.async_call(0, 1 + (i % 2), "h", i)
        world.barrier()
        # One invocation, but every row keeps its destination, in
        # emission order.
        assert batch_runs == [([1, 2, 1, 2], [0, 1, 2, 3])]

    def test_stats_match_scalar_world_per_type(self):
        def drive(world):
            for i in range(6):
                world.async_call(0, 1, "h", i, msg_type="type1")
            world.async_call(0, 1, "g", 7, msg_type="type2")
            for i in range(3):
                world.async_call(0, 2, "h", i, msg_type="type1")
            world.barrier()
            return world.stats.snapshot()

        scalar = make_world()
        scalar.register_handlers(h=lambda ctx, x: None, g=lambda ctx, x: None)
        batched = make_world()
        self._instrument(batched)
        assert drive(scalar) == drive(batched)
        assert (scalar.log.counters()["executor.tasks"]
                == batched.log.counters()["executor.tasks"])

    def test_duplicate_batch_registration_rejected(self):
        world = make_world()
        world.register_batch_handler("h", lambda world, dest, xs: None)
        with pytest.raises(RuntimeStateError):
            world.register_batch_handler("h", lambda world, dest, xs: None)
        # One handler per message type: no scalar twin either way round.
        with pytest.raises(RuntimeStateError):
            world.register_handler("h", lambda ctx, x: None)
        world.register_handler("g", lambda ctx, x: None)
        with pytest.raises(RuntimeStateError):
            world.register_batch_handler("g", lambda world, dest, xs: None)


class TestEmitRun:
    """``emit_run(src, dests, handler, columns, nbytes)`` against the
    loop of ``async_call`` it stands for."""

    DESTS = np.array([1, 3, 1, 0, 2, 1, 1, 3, 1, 1, 2, 1])
    KEYS = np.arange(12) * 10
    VALS = np.arange(12) / 4.0
    SIZES = np.array([8, 40, 8, 8, 16, 8, 24, 8, 8, 8, 8, 8])

    def _world(self, **kw):
        world = make_world(**kw)
        got = []
        world.register_batch_handler(
            "h", lambda world, dest, ks, vs: got.append(
                (dest.tolist(), ks.tolist(), vs.tolist())))
        return world, got

    def _observables(self, world, got, ordered=True):
        per_rank = {}
        for dest, ks, vs in got:
            for rank, k, v in zip(dest, ks, vs):
                per_rank.setdefault(rank, []).append((k, v))
        if not ordered:
            per_rank = {rank: sorted(rows) for rank, rows in per_rank.items()}
        counters = world.log.counters()
        return (world.stats.snapshot(), counters["comm.flushes"],
                counters["comm.local_deliveries"], counters["executor.tasks"],
                per_rank)

    @pytest.mark.parametrize("nbytes", [8, SIZES], ids=["uniform", "ragged"])
    @pytest.mark.parametrize("flush,flush_bytes", [(1024, 1 << 20), (3, 1 << 20),
                                                   (1024, 30), (2, 20)])
    def test_is_a_loop_of_async_call(self, nbytes, flush, flush_bytes):
        looped, got_l = self._world(flush=flush, flush_bytes=flush_bytes)
        sizes = [8] * 12 if isinstance(nbytes, int) else nbytes.tolist()
        for d, k, v, nb in zip(self.DESTS.tolist(), self.KEYS.tolist(),
                               self.VALS.tolist(), sizes):
            looped.async_call(0, d, "h", k, v, nbytes=nb, msg_type="t")
        before = looped.log.counters()["comm.flushes"]
        looped.barrier()
        run, got_r = self._world(flush=flush, flush_bytes=flush_bytes)
        run.emit_run(0, self.DESTS, "h", (self.KEYS, self.VALS), nbytes, "t")
        # Thresholds trip at the same messages: as many buffers flushed
        # before the barrier.
        assert run.log.counters()["comm.flushes"] == before
        run.barrier()
        assert self._observables(run, got_r) == self._observables(looped, got_l)
        assert run.async_count_since_barrier == 0

    def test_one_invocation_per_destination_with_whole_columns(self):
        world, got = self._world()
        world.emit_run(0, self.DESTS, "h", (self.KEYS, self.VALS), 8, "t")
        world.barrier()
        # One host, one round: one invocation over the whole run, in
        # emission order, ``dest`` beside it.
        assert got == [(self.DESTS.tolist(), self.KEYS.tolist(),
                        self.VALS.tolist())]

    def test_rejects_unknown_handler_and_bad_rank(self):
        world, _ = self._world()
        with pytest.raises(RuntimeStateError):
            world.emit_run(0, self.DESTS, "nope", (self.KEYS,), 8)
        for bad in (4, -1):
            with pytest.raises(RuntimeStateError):
                world.emit_run(0, np.array([1, bad]), "h",
                               (self.KEYS[:2], self.VALS[:2]), 8)
        for bad in (4, -1):
            with pytest.raises(RuntimeStateError):
                world.emit_run(np.array([0, bad]), np.array([1, 2]), "h",
                               (self.KEYS[:2], self.VALS[:2]), 8)

    @pytest.mark.parametrize("nbytes", [np.int64(8), np.int32(8), np.uint16(8)])
    def test_any_integer_scalar_is_a_uniform_size(self, nbytes):
        """A numpy integer is one size for every message, as an int is."""
        plain, got_p = self._world(flush_bytes=30)
        plain.emit_run(0, self.DESTS, "h", (self.KEYS, self.VALS), 8, "t")
        plain.barrier()
        numpy_sized, got_n = self._world(flush_bytes=30)
        numpy_sized.emit_run(0, self.DESTS, "h", (self.KEYS, self.VALS),
                             nbytes, "t")
        numpy_sized.barrier()
        assert (self._observables(numpy_sized, got_n)
                == self._observables(plain, got_p))

    @pytest.mark.parametrize("what", ["long column", "short column",
                                      "short nbytes", "long nbytes",
                                      "short src"])
    def test_a_column_that_does_not_match_the_run_is_refused(self, what):
        """Every column, a ragged ``nbytes`` and a ``src`` column hold one
        row per destination; anything else raises naming the handler —
        never a bare ``IndexError``, never silently dropped rows."""
        world, got = self._world()
        keys, vals, sizes, src = self.KEYS, self.VALS, self.SIZES, 0
        if what == "long column":
            keys = np.append(keys, 999)
        elif what == "short column":
            vals = vals[:-1]
        elif what == "short nbytes":
            sizes = sizes[:-1]
        elif what == "long nbytes":
            sizes = np.append(sizes, 8)
        else:
            src = np.zeros(len(self.DESTS) - 1, dtype=np.int64)
        with pytest.raises(RuntimeStateError, match="'h'"):
            world.emit_run(src, self.DESTS, "h", (keys, vals), sizes, "t")
        world.barrier()
        assert got == [] and world.stats.snapshot() == {}

    def test_staged_runs_take_the_same_sizes_and_checks(self):
        """The rank program's ``stage``/``pump`` accept a numpy integer
        size and pump it in waves (five messages per rank); ``stage``
        refuses a mismatched column before anything is staged."""
        from repro.config import DNNDConfig, NNDescentConfig
        from repro.core.dnnd_phases import HostBlock, pump
        from repro.runtime.partition import HashPartitioner

        plain, got_p = self._world(flush_bytes=30)
        plain.emit_run(0, self.DESTS, "h", (self.KEYS, self.VALS), 8, "t")
        plain.barrier()
        staged, got_s = self._world(flush_bytes=30)
        ws = staged.world_size
        block = staged.state["block"] = HostBlock.build(
            list(range(ws)), HashPartitioner(8, ws), np.zeros((8, 1)),
            DNNDConfig(nnd=NNDescentConfig(k=2), batch_size=5 * ws))
        src = np.zeros(len(self.DESTS), dtype=np.int64)
        with pytest.raises(RuntimeStateError, match="'h'"):
            block.stage(src, self.DESTS, "h", (self.KEYS[:-1], self.VALS),
                        np.int64(8), "t")
        assert block.waves == {}
        block.stage(src, self.DESTS, "h", (self.KEYS, self.VALS),
                    np.int64(8), "t")
        while pump(staged, [0])[0]:
            pass
        staged.barrier()
        assert self._observables(staged, got_s) == self._observables(plain, got_p)

    def test_src_column_is_a_loop_of_single_source_runs(self):
        """A run whose rows come from several source ranks is, counter
        for counter and flush for flush, one run per source rank."""
        src = np.array([2, 0, 2, 1, 0, 0, 3, 2, 1, 0, 3, 2])
        per_source, got_s = self._world(flush=2, flush_bytes=30)
        for rank in range(4):
            mine = src == rank
            per_source.emit_run(rank, self.DESTS[mine], "h",
                                (self.KEYS[mine], self.VALS[mine]),
                                self.SIZES[mine], "t")
        per_source.barrier()
        fused, got_f = self._world(flush=2, flush_bytes=30)
        fused.emit_run(src, self.DESTS, "h", (self.KEYS, self.VALS),
                       self.SIZES, "t")
        fused.barrier()
        # Rows arrive in emission order: a rank's rows from several
        # sources interleave as they were emitted, so they compare as sets.
        assert (self._observables(fused, got_f, ordered=False)
                == self._observables(per_source, got_s, ordered=False))

    def test_faulty_network_decides_once_per_flush(self):
        """The fault unit is the flushed buffer: without reliable
        delivery, ``dup_rate=1.0`` duplicates every envelope once, and
        every message in it runs twice."""
        plan = FaultPlan(seed=5, dup_rate=1.0)
        world = make_world(flush=3, injector=make_injector(plan, 4))
        calls = []
        world.register_handler("g", lambda ctx, x: calls.append((ctx.rank, x)))
        for i in range(10):
            world.async_call(0, 1 + i % 2, "g", i, nbytes=8)
        world.barrier()
        assert world.fault_stats.duplicated == world.log.counters()["comm.flushes"] == 4
        assert sorted(calls) == sorted(2 * [(1 + i % 2, i) for i in range(10)])

    @pytest.mark.parametrize("backend,workers", [("sim", 0), ("process", 1)])
    def test_duplicated_envelopes_leave_valid_rows(self, backend, workers):
        """A duplicated envelope hands the same column arrays to its
        handler twice: every row still passes ``check_rows``, so no
        handler writes into the columns it was given."""
        from repro import DNND, DNNDConfig, NNDescentConfig
        from repro.core.heap import check_rows

        data = np.random.default_rng(1).standard_normal((120, 8))
        cfg = DNNDConfig(nnd=NNDescentConfig(k=5, seed=2, max_iters=3),
                         backend=backend, workers=workers)
        dnnd = DNND(data, cfg, cluster=ClusterConfig(nodes=2, procs_per_node=2),
                    fault_plan=FaultPlan(seed=3, dup_rate=1.0))
        try:
            dnnd.build()
            shards = dnnd.host.command("ckpt_get")
            flushes = dnnd.world.log.totals.counts["comm.flushes"]
            duplicated = dnnd.world.log.totals.counts["faults.duplicated"]
        finally:
            dnnd.close()
        assert duplicated == flushes > 0
        assert sorted(shards) == [0, 1, 2, 3]
        for _gids, ids, dists, _flags in shards.values():
            assert check_rows(ids, dists) is None
