"""The DNND rank program in isolation: the columnar message handlers
(Section 4.3 protocol; a lone ``async_call`` arrives as a one-row run),
the feature-by-reference accessors, the Type 1 pair expansion, and the
single-source registration every world shares."""

import numpy as np
import pytest

from repro.config import ClusterConfig, CommOptConfig, DNNDConfig, NNDescentConfig
from repro.core import dnnd_phases
from repro.core.dnnd_phases import (
    build_shards,
    opt_collect,
    register_dnnd_handlers,
    shard_of,
    type1_pairs,
)
from repro.core.nndescent import NNDescent
from repro.errors import PartitionError, RuntimeStateError
from repro.runtime.partition import BlockPartitioner
from repro.runtime.transports import SimCluster
from repro.runtime.ygm import YGMWorld

HANDLER_NAMES = ("init_req", "init_resp", "rev_new", "rev_old",
                 "check_unopt", "feature_unopt", "check_opt", "feature_opt",
                 "distance_reply", "opt_rev_edge")


def make_world_with_shards(n=8, k=3, comm_opts=None, data=None,
                           metric="sqeuclidean"):
    """2-rank world, block partition (ranks own [0,4) and [4,8)),
    1-D features equal to the vertex id."""
    cluster = SimCluster(ClusterConfig(nodes=2, procs_per_node=1))
    world = YGMWorld(cluster, flush_threshold=64)
    register_dnnd_handlers(world)
    part = BlockPartitioner(n, 2)
    cfg = DNNDConfig(
        nnd=NNDescentConfig(k=k, metric=metric),
        comm_opts=comm_opts or CommOptConfig.optimized(),
    )
    if data is None:
        data = np.arange(n, dtype=np.float32).reshape(-1, 1)
    build_shards(world.ranks, part, data, cfg)
    for ctx in world.ranks:
        shard_of(ctx).reset_iteration_scratch()
    return world, part


class TestLocalShard:
    def test_local_index(self):
        world, part = make_world_with_shards()
        shard = shard_of(world.ranks[1])
        assert shard.local(4) == 0
        assert shard.local(7) == 3

    def test_wrong_rank_dereference(self):
        world, part = make_world_with_shards()
        shard = shard_of(world.ranks[0])
        with pytest.raises(PartitionError):
            shard.local(7)

    def test_feature_lookup(self):
        """An own vertex's feature is read the way a foreign one is:
        from the dataset view, by global id."""
        world, _ = make_world_with_shards()
        shard = shard_of(world.ranks[1])
        assert shard.rows([5])[0, 0] == 5.0

    def test_feature_nbytes_dense(self):
        """Section 2's modeled Type 2 size: two ids + the feature (one
        float32 here) + what the message adds; one int for dense rows."""
        world, _ = make_world_with_shards()
        shard = shard_of(world.ranks[0])
        assert shard.feature_bytes == 4
        assert shard.feature_message_bytes(np.array([1, 2])) == 12
        assert shard.feature_message_bytes(np.array([1]), extra=4) == 16

    def test_shard_holds_the_view_and_no_feature_rows(self):
        """One dataset view: every shard of a world references the same
        object, and no field of a shard is a copy of its rows."""
        data = np.arange(8, dtype=np.float32).reshape(-1, 1)
        world, _ = make_world_with_shards(data=data)
        for ctx in world.ranks:
            shard = shard_of(ctx)
            assert shard.data is data
            assert not hasattr(shard, "features")
            for value in vars(shard).values():
                if isinstance(value, np.ndarray) and value is not data:
                    assert value.shape != (shard.n_local, data.shape[1])

    def test_owner(self):
        world, _ = make_world_with_shards()
        shard = shard_of(world.ranks[0])
        assert shard.owner(6) == 1

    def test_row_resolves_any_vertex_own_lookup_stays_local(self):
        """Features travel as global ids: ``rows`` reads the world's
        dataset view for *any* vertex, while mapping an id to a
        neighbor row still refuses a vertex another rank owns."""
        world, _ = make_world_with_shards()
        shard = shard_of(world.ranks[0])
        assert shard.rows([6])[0, 0] == 6.0     # owned by rank 1
        with pytest.raises(PartitionError):
            shard.locals(np.array([6]))

    def test_rows_dense(self):
        world, _ = make_world_with_shards()
        shard = shard_of(world.ranks[1])
        got = shard.rows([7, 0, 3, 0])
        assert got.shape == (4, 1) and got.dtype == np.float32
        assert got[:, 0].tolist() == [7.0, 0.0, 3.0, 0.0]
        got[0, 0] = -1.0                        # a fresh array, not a view
        assert shard.rows([7])[0, 0] == 7.0

    def test_rows_sparse(self, sparse_sets):
        world, _ = make_world_with_shards(
            n=len(sparse_sets), data=sparse_sets, metric="jaccard")
        shard = shard_of(world.ranks[0])
        assert shard.data is sparse_sets
        picked = [len(sparse_sets) - 1, 0]      # one foreign, one own
        got = shard.rows(picked)
        assert isinstance(got, list)
        for rec, gid in zip(got, picked):
            assert rec is sparse_sets[gid]      # the record, not a copy
        # Ragged records: one modeled size per message.
        assert shard.feature_message_bytes(np.array([0, 2])).tolist() == [
            8 + int(sparse_sets[g].nbytes) for g in (0, 2)]


class TestInitProtocol:
    def test_init_request_response(self):
        world, _ = make_world_with_shards()
        shard0 = shard_of(world.ranks[0])
        # Rank 0 asks owner(6)=rank1 for theta(v=1, u=6).
        world.ranks[0].async_call(1, "init_req", 1, 6,
                                  nbytes=12, msg_type="init_req")
        world.barrier()
        heap = shard0.heap(1)
        assert 6 in heap
        entries = dict((i, d) for i, d, _ in heap.entries())
        assert entries[6] == pytest.approx(25.0)  # (6-1)^2

    def test_init_entry_flagged_new(self):
        world, _ = make_world_with_shards()
        shard0 = shard_of(world.ranks[0])
        world.ranks[0].async_call(1, "init_req", 1, 6,
                                  nbytes=12, msg_type="init_req")
        world.barrier()
        assert shard0.heap(1).new_ids() == [6]


class TestReverseProtocol:
    def test_reverse_entries_land_at_owner(self):
        world, _ = make_world_with_shards()
        world.ranks[0].async_call(1, "rev_new", 5, 2, nbytes=8, msg_type="reverse")
        world.ranks[0].async_call(1, "rev_old", 6, 3, nbytes=8, msg_type="reverse")
        world.barrier()
        shard1 = shard_of(world.ranks[1])
        # One ``(rows, values)`` chunk each: the candidate representation.
        (rows, values), = shard1.rev_new
        assert (rows.tolist(), values.tolist()) == ([shard1.local(5)], [2])
        (rows, values), = shard1.rev_old
        assert (rows.tolist(), values.tolist()) == ([shard1.local(6)], [3])


class TestOptimizedCheckProtocol:
    def test_full_chain_updates_both_heaps(self):
        world, _ = make_world_with_shards()
        shard0 = shard_of(world.ranks[0])
        shard1 = shard_of(world.ranks[1])
        # Center (anyone) asks u1=2 (rank0) to check against u2=5 (rank1).
        world.ranks[1].async_call(0, "check_opt", 2, 5, nbytes=8, msg_type="type1")
        world.barrier()
        assert 5 in shard0.heap(2)   # via Type 3 reply
        assert 2 in shard1.heap(5)   # local update at u2
        tallies = world.log.live().ranks
        assert tallies[0]["updates"] == tallies[1]["updates"] == 1

    def test_redundancy_check_suppresses_type2(self):
        world, _ = make_world_with_shards()
        shard0 = shard_of(world.ranks[0])
        # Pre-install 5 in heap(2): the exchange must be skipped.
        shard0.heap(2).checked_push(5, 9.0, True)
        world.ranks[1].async_call(0, "check_opt", 2, 5, nbytes=8, msg_type="type1")
        world.barrier()
        assert world.stats.get("type2+").count == 0
        assert world.stats.get("type3").count == 0

    def test_redundancy_check_on_u2_side_suppresses_type3(self):
        world, _ = make_world_with_shards()
        shard1 = shard_of(world.ranks[1])
        shard1.heap(5).checked_push(2, 9.0, True)
        world.ranks[1].async_call(0, "check_opt", 2, 5, nbytes=8, msg_type="type1")
        world.barrier()
        assert world.stats.get("type2+").count == 1
        assert world.stats.get("type3").count == 0

    def test_distance_pruning_suppresses_type3(self):
        world, _ = make_world_with_shards()
        shard0 = shard_of(world.ranks[0])
        # Fill heap(2) with close neighbors so its bound is tight.
        for vid, d in ((1, 1.0), (3, 1.0), (0, 4.0)):
            shard0.heap(2).checked_push(vid, d, True)
        assert shard0.heap(2).worst_distance() == 4.0
        # theta(2, 7) = 25 >= 4 -> no Type 3.
        world.ranks[1].async_call(0, "check_opt", 2, 7, nbytes=8, msg_type="type1")
        world.barrier()
        assert world.stats.get("type3").count == 0
        # But u2's own heap still learned about u1.
        shard1 = shard_of(world.ranks[1])
        assert 2 in shard1.heap(7)

    def test_pruning_disabled_always_replies(self):
        opts = CommOptConfig(one_sided=True, redundancy_check=False,
                             distance_pruning=False)
        world, _ = make_world_with_shards(comm_opts=opts)
        shard0 = shard_of(world.ranks[0])
        for vid, d in ((1, 1.0), (3, 1.0), (0, 4.0)):
            shard0.heap(2).checked_push(vid, d, True)
        world.ranks[1].async_call(0, "check_opt", 2, 7, nbytes=8, msg_type="type1")
        world.barrier()
        assert world.stats.get("type3").count == 1
        # Message typed plain type2 without the bound attachment.
        assert world.stats.get("type2").count == 1
        assert world.stats.get("type2+").count == 0


class TestUnoptimizedCheckProtocol:
    def test_feature_exchange_both_directions(self):
        opts = CommOptConfig.unoptimized()
        world, _ = make_world_with_shards(comm_opts=opts)
        shard0 = shard_of(world.ranks[0])
        shard1 = shard_of(world.ranks[1])
        # The unoptimized pattern: Type 1 to each endpoint.
        world.ranks[1].async_call(0, "check_unopt", 2, 5, nbytes=8, msg_type="type1")
        world.ranks[1].async_call(1, "check_unopt", 5, 2, nbytes=8, msg_type="type1")
        world.barrier()
        assert 5 in shard0.heap(2)
        assert 2 in shard1.heap(5)
        # Each endpoint shipped its feature: type2 in both directions.
        assert world.stats.get("type2").count == 2
        assert world.stats.get("type3").count == 0

    def test_distance_computed_twice(self):
        opts = CommOptConfig.unoptimized()
        world, _ = make_world_with_shards(comm_opts=opts)
        world.ranks[1].async_call(0, "check_unopt", 2, 5, nbytes=8, msg_type="type1")
        world.ranks[1].async_call(1, "check_unopt", 5, 2, nbytes=8, msg_type="type1")
        world.barrier()
        total = (shard_of(world.ranks[0]).metric.count
                 + shard_of(world.ranks[1]).metric.count)
        assert total == 2  # the redundant compute the one-sided pattern saves


class TestOptimizePhaseHandler:
    def test_reverse_edge_merge(self):
        world, _ = make_world_with_shards()
        shard1 = shard_of(world.ranks[1])
        shard1.heap(5).checked_push(6, 0.5, True)       # a forward edge
        world.ranks[0].async_call(1, "opt_rev_edge", 5, 1, 0.75,
                                  nbytes=12, msg_type="opt_rev")
        world.ranks[0].async_call(1, "opt_rev_edge", 5, 1, 0.25,
                                  nbytes=12, msg_type="opt_rev")
        world.ranks[0].async_call(1, "opt_rev_edge", 5, 3, 0.9,
                                  nbytes=12, msg_type="opt_rev")
        world.barrier()
        gids, counts, nbr, d = opt_collect(world.ranks[1], max_degree=2)
        # Closest copy of the repeated edge, pruned to the 2 closest —
        # as columns: vertex 5's run is the only one.
        assert gids.tolist() == [4, 5, 6, 7]
        assert counts.tolist() == [0, 2, 0, 0]
        assert (nbr.tolist(), d.tolist()) == ([1, 6], [0.25, 0.5])

    def test_register_twice_rejected(self):
        world, _ = make_world_with_shards()
        with pytest.raises(RuntimeStateError):
            register_dnnd_handlers(world)

    def test_no_scalar_engine_to_ask_for(self):
        """The ``batch_exec`` switch is gone, not ignored."""
        cluster = SimCluster(ClusterConfig(nodes=1, procs_per_node=2))
        with pytest.raises(TypeError):
            register_dnnd_handlers(YGMWorld(cluster), False)


class TestType1Generator:
    """The Type 1 expansion is the distributed form of NN-Descent's
    local join: the same pairs for every vertex."""

    NEW = [2, 5, 7]             # ascending, as ``union`` leaves a row
    OLD = [1, 5, 6]             # 5 is in both: exercises the u1 != u2 skip

    @staticmethod
    def _columns(lists):
        """Per-row lists as the shard's ``(rows, values)`` columns."""
        rows = np.repeat(np.arange(len(lists)), list(map(len, lists)))
        return rows, np.array(sum(lists, []), dtype=np.int64)

    def _local_join_pairs(self, new, old):
        oracle = NNDescent(np.zeros((8, 1)), NNDescentConfig(k=3))
        pairs = []
        oracle._push_pair = lambda u1, u2, d: pairs.append((u1, u2)) or 0
        oracle._local_join(0, new, old)
        return pairs

    @pytest.mark.parametrize("one_sided", [True, False])
    def test_matches_local_join_pair_sequence(self, one_sided):
        # Several vertices at once, an empty one among them.
        new_lists = [self.NEW, [], [3, 4], [6]]
        old_lists = [self.OLD, [1, 2], [], [0, 7]]
        u1, u2 = type1_pairs(self._columns(new_lists),
                             self._columns(old_lists), 4, one_sided)
        # Algorithm 1 line 18: a new-new pair is emitted once, as u1 < u2.
        a, b = type1_pairs(self._columns(new_lists),
                           self._columns([[]] * 4), 4, True)
        assert len(a) == 3 + 1 and (a < b).all()
        expected = []
        for new, old in zip(new_lists, old_lists):
            for a, b in self._local_join_pairs(new, old):
                expected.append((a, b))
                if not one_sided:
                    expected.append((b, a))
        assert sorted(zip(u1.tolist(), u2.tolist())) == sorted(expected)
        assert expected

    def test_check_then_pump_asks_the_owner_of_u1(self):
        world, part = make_world_with_shards()
        shard = shard_of(world.ranks[0])
        shard.new = self._columns([[], [], self.NEW, []])
        shard.old = self._columns([[], [], self.OLD, []])
        dnnd_phases.check(world.ranks[0])
        # Staged, not sent: nothing moves until the driver pumps.
        assert world.stats.total_count() == world.log.counters()["comm.local_deliveries"] == 0
        (dests, handler, (u1, _u2), _nbytes, msg_type), = shard.staged
        assert (handler, msg_type) == ("check_opt", "type1")
        n = len(self._local_join_pairs(self.NEW, self.OLD))
        assert len(dests) == n
        assert dnnd_phases.pump(world.ranks[0], count=0) == 0
        remote = sum(part.owner(a) != 0 for a in u1.tolist())
        assert world.stats.get("type1").count == remote
        assert world.log.counters()["comm.local_deliveries"] == n - remote
        assert shard.staged == []


class TestSingleSource:
    """A worker-side world and a driver-side world run the *same*
    program: identical handler function objects, one section table."""

    @pytest.fixture()
    def worker_app(self, tiny_dense):
        from repro.core.dnnd_phases import worker_host
        from repro.runtime.partition import HashPartitioner
        from repro.runtime.transports.process import (WorkerComm,
                                                      WorkerTransport)

        cluster = ClusterConfig(nodes=1, procs_per_node=2)
        transport = WorkerTransport(cluster, [0, 1], [0, 0], [], 0)
        comm = WorkerComm(0, [0, 1], transport)
        return worker_host(comm, {
            "data": tiny_dense,
            "config": DNNDConfig(nnd=NNDescentConfig(k=4)),
            "partitioner": HashPartitioner(len(tiny_dense), 2),
            "world": {"flush_threshold": 1024, "sanitize": False},
            "fault_plan": None})

    def test_worker_host_reads_the_array_it_was_handed(self, worker_app,
                                                       tiny_dense):
        assert worker_app.data is tiny_dense
        assert all(shard_of(ctx).data is tiny_dense
                   for ctx in worker_app.world.ranks)

    def test_same_handler_objects_on_driver_and_worker(self, worker_app,
                                                       tiny_dense):
        from repro import DNND

        driver = DNND(tiny_dense,
                      DNNDConfig(nnd=NNDescentConfig(k=4), backend="sim"),
                      cluster=ClusterConfig(nodes=1, procs_per_node=2),
                      sanitize=False)
        on_driver = driver.world._batch_handlers
        on_worker = worker_app.world._batch_handlers
        assert set(on_driver) == set(on_worker) == set(HANDLER_NAMES)
        for name in HANDLER_NAMES:
            assert on_driver[name] is on_worker[name], name
        # The DNND handlers are columnar: none is registered per message.
        assert not driver.world._per_message
        assert not worker_app.world._per_message

    def test_sections_resolve_from_one_table(self, worker_app, tiny_dense,
                                             monkeypatch):
        from repro import DNND

        seen = []
        monkeypatch.setitem(dnnd_phases.SECTIONS, "probe",
                            lambda ctx, tag: seen.append((tag, ctx.rank)))
        driver = DNND(tiny_dense,
                      DNNDConfig(nnd=NNDescentConfig(k=4), backend="sim"),
                      cluster=ClusterConfig(nodes=1, procs_per_node=2))
        # One class on both sides: the driver's host and the worker's.
        assert type(driver.host) is type(worker_app) is dnnd_phases.RankHost
        driver._run_section("probe", tag="driver")
        worker_app.dispatch("section",
                            {"name": "probe", "params": {"tag": "worker"}})
        assert seen == [("driver", 0), ("driver", 1),
                        ("worker", 0), ("worker", 1)]
        with pytest.raises(RuntimeStateError):
            worker_app.dispatch("section", {"name": "no_such_section",
                                            "params": {}})
        with pytest.raises(RuntimeStateError):
            worker_app.dispatch("no_such_command", None)
