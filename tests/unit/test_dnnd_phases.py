"""The DNND rank program in isolation: the columnar message handlers
(Section 4.3 protocol; a lone ``async_call`` arrives as a one-row run),
the feature-by-reference accessors, the Type 1 pair expansion, and the
single-source registration every world shares."""

import numpy as np
import pytest

from repro.config import ClusterConfig, CommOptConfig, DNNDConfig, NNDescentConfig
from repro.core import dnnd_phases
from repro.core.dnnd_phases import (
    HostBlock,
    block_of,
    build_shards,
    opt_collect,
    register_dnnd_handlers,
    type1_pairs,
)
from repro.core.heap import NeighborHeap
from repro.core.nndescent import NNDescent
from repro.core.order import check_key_range
from repro.errors import ConfigError, PartitionError, RuntimeStateError
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
    block_of(world).forget()
    return world, part


def row_view(world, gid):
    """Row view of vertex ``gid``'s neighbor list, resolved at its
    owner rank."""
    block = block_of(world)
    row = int(block.rows(np.array([gid]), block.owner_of[gid])[0])
    return NeighborHeap.view(block.ids[row], block.dists[row],
                             block.flags[row])


class TestLocalShard:
    """A rank's share of the host block: its rows, features and
    owners."""

    def test_local_index(self):
        world, part = make_world_with_shards()
        block = block_of(world)
        # Rank 1's rows are host rows starts[1]:starts[2].
        assert block.rows(np.array([4]), 1)[0] - block.starts[1] == 0
        assert block.rows(np.array([7]), 1)[0] - block.starts[1] == 3

    def test_wrong_rank_dereference(self):
        world, part = make_world_with_shards()
        block = block_of(world)
        with pytest.raises(PartitionError):
            block.rows(np.array([7]), 0)

    def test_feature_lookup(self):
        """An own vertex's feature is read the way a foreign one is:
        from the dataset view, by global id."""
        world, _ = make_world_with_shards()
        block = block_of(world)
        assert block.features([5])[0, 0] == 5.0

    def test_feature_nbytes_dense(self):
        """Section 2's modeled Type 2 size: two ids + the feature (one
        float32 here) + what the message adds; one int for dense rows."""
        world, _ = make_world_with_shards()
        block = block_of(world)
        rows = block.starts[0] + np.array([1, 2])
        assert block.feature_bytes == 4
        assert block.message_bytes(rows) == 12
        assert block.message_bytes(rows[:1], extra=4) == 16

    def test_shard_holds_the_view_and_no_feature_rows(self):
        """One dataset view: the block of a world references the
        dataset object, and no field of the block is a copy of its
        rows."""
        data = np.arange(8, dtype=np.float32).reshape(-1, 1)
        world, _ = make_world_with_shards(data=data)
        block = block_of(world)
        assert block.data is data
        assert "features" not in vars(block)
        for value in vars(block).values():
            if isinstance(value, np.ndarray) and value is not data:
                assert value.shape != (len(block.global_ids), data.shape[1])

    def test_owner(self):
        world, _ = make_world_with_shards()
        assert block_of(world).owner_of[6] == 1

    def test_row_resolves_any_vertex_own_lookup_stays_local(self):
        """Features travel as global ids: ``block.features`` reads the world's
        dataset view for *any* vertex, while mapping an id to a
        neighbor row still refuses a vertex another rank owns."""
        world, _ = make_world_with_shards()
        block = block_of(world)
        assert block.features([6])[0, 0] == 6.0     # owned by rank 1
        with pytest.raises(PartitionError):
            block.rows(np.array([6]), 0)

    def test_build_refuses_keys_past_int64(self):
        """Packed keys are below n**2 * k; past 2**63 the block is refused
        before anything is allocated."""
        class Huge:
            n = 3_037_000_500        # n**2 alone is past 2**63

        cfg = DNNDConfig(nnd=NNDescentConfig(k=1))
        with pytest.raises(ConfigError, match="2\\*\\*63"):
            HostBlock.build([0], Huge(), None, cfg)
        check_key_range(n=1_000_000, k=100)

    def test_rows_dense(self):
        world, _ = make_world_with_shards()
        block = block_of(world)
        got = block.features([7, 0, 3, 0])
        assert got.shape == (4, 1) and got.dtype == np.float32
        assert got[:, 0].tolist() == [7.0, 0.0, 3.0, 0.0]
        got[0, 0] = -1.0                        # a fresh array, not a view
        assert block.features([7])[0, 0] == 7.0

    def test_rows_sparse(self, sparse_sets):
        world, _ = make_world_with_shards(
            n=len(sparse_sets), data=sparse_sets, metric="jaccard")
        block = block_of(world)
        assert block.data is sparse_sets
        picked = [len(sparse_sets) - 1, 0]      # one foreign, one own
        got = block.features(picked)
        assert isinstance(got, list)
        for rec, gid in zip(got, picked):
            assert rec is sparse_sets[gid]      # the record, not a copy
        # Ragged records: one modeled size per message.
        rows = block.starts[0] + np.array([0, 2])
        assert block.message_bytes(rows).tolist() == [
            8 + int(sparse_sets[g].nbytes) for g in (0, 2)]


class TestInitProtocol:
    def test_init_request_response(self):
        world, _ = make_world_with_shards()
        # Rank 0 asks owner(6)=rank1 for theta(v=1, u=6).
        world.ranks[0].async_call(1, "init_req", 1, 6,
                                  nbytes=12, msg_type="init_req")
        world.barrier()
        heap = row_view(world, 1)
        assert 6 in heap
        entries = dict((i, d) for i, d, _ in heap.entries())
        assert entries[6] == pytest.approx(25.0)  # (6-1)^2

    def test_init_entry_flagged_new(self):
        world, _ = make_world_with_shards()
        world.ranks[0].async_call(1, "init_req", 1, 6,
                                  nbytes=12, msg_type="init_req")
        world.barrier()
        assert row_view(world, 1).new_ids() == [6]


class TestReverseProtocol:
    def test_reverse_entries_land_at_owner(self):
        world, _ = make_world_with_shards()
        world.ranks[0].async_call(1, "rev_new", 5, 2, nbytes=8, msg_type="reverse")
        world.ranks[0].async_call(1, "rev_old", 6, 3, nbytes=8, msg_type="reverse")
        world.barrier()
        block = block_of(world)
        # One ``(rows, values)`` chunk each: the candidate representation.
        (rows, values), = block.rev_new
        assert (rows.tolist(), values.tolist()) == (
            block.rows(np.array([5]), 1).tolist(), [2])
        (rows, values), = block.rev_old
        assert (rows.tolist(), values.tolist()) == (
            block.rows(np.array([6]), 1).tolist(), [3])


class TestOptimizedCheckProtocol:
    def test_full_chain_updates_both_heaps(self):
        world, _ = make_world_with_shards()
        # Center (anyone) asks u1=2 (rank0) to check against u2=5 (rank1).
        world.ranks[1].async_call(0, "check_opt", 2, 5, nbytes=8, msg_type="type1")
        world.barrier()
        assert 5 in row_view(world, 2)   # via Type 3 reply
        assert 2 in row_view(world, 5)   # local update at u2
        tallies = world.log.live().ranks
        assert tallies[0]["updates"] == tallies[1]["updates"] == 1

    def test_redundancy_check_suppresses_type2(self):
        world, _ = make_world_with_shards()
        # Pre-install 5 in heap(2): the exchange must be skipped.
        row_view(world, 2).checked_push(5, 9.0, True)
        world.ranks[1].async_call(0, "check_opt", 2, 5, nbytes=8, msg_type="type1")
        world.barrier()
        assert world.stats.get("type2+").count == 0
        assert world.stats.get("type3").count == 0

    def test_redundancy_check_on_u2_side_suppresses_type3(self):
        world, _ = make_world_with_shards()
        row_view(world, 5).checked_push(2, 9.0, True)
        world.ranks[1].async_call(0, "check_opt", 2, 5, nbytes=8, msg_type="type1")
        world.barrier()
        assert world.stats.get("type2+").count == 1
        assert world.stats.get("type3").count == 0

    def test_distance_pruning_suppresses_type3(self):
        world, _ = make_world_with_shards()
        # Fill heap(2) with close neighbors so its bound is tight.
        for vid, d in ((1, 1.0), (3, 1.0), (0, 4.0)):
            row_view(world, 2).checked_push(vid, d, True)
        assert row_view(world, 2).worst_distance() == 4.0
        # theta(2, 7) = 25 >= 4 -> no Type 3.
        world.ranks[1].async_call(0, "check_opt", 2, 7, nbytes=8, msg_type="type1")
        world.barrier()
        assert world.stats.get("type3").count == 0
        # But u2's own heap still learned about u1.
        assert 2 in row_view(world, 7)

    def test_pruning_disabled_always_replies(self):
        opts = CommOptConfig(one_sided=True, redundancy_check=False,
                             distance_pruning=False)
        world, _ = make_world_with_shards(comm_opts=opts)
        for vid, d in ((1, 1.0), (3, 1.0), (0, 4.0)):
            row_view(world, 2).checked_push(vid, d, True)
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
        # The unoptimized pattern: Type 1 to each endpoint.
        world.ranks[1].async_call(0, "check_unopt", 2, 5, nbytes=8, msg_type="type1")
        world.ranks[1].async_call(1, "check_unopt", 5, 2, nbytes=8, msg_type="type1")
        world.barrier()
        assert 5 in row_view(world, 2)
        assert 2 in row_view(world, 5)
        # Each endpoint shipped its feature: type2 in both directions.
        assert world.stats.get("type2").count == 2
        assert world.stats.get("type3").count == 0

    def test_distance_computed_twice(self):
        opts = CommOptConfig.unoptimized()
        world, _ = make_world_with_shards(comm_opts=opts)
        world.ranks[1].async_call(0, "check_unopt", 2, 5, nbytes=8, msg_type="type1")
        world.ranks[1].async_call(1, "check_unopt", 5, 2, nbytes=8, msg_type="type1")
        world.barrier()
        # One evaluation at each endpoint: the redundant compute the
        # one-sided pattern saves.
        evals = {rank: tally["distance.evals"]
                 for rank, tally in world.log.live().ranks.items()}
        assert evals == {0: 1, 1: 1}
        assert block_of(world).metric.count == 2  # the host's


class TestOptimizePhaseHandler:
    def test_reverse_edge_merge(self):
        world, _ = make_world_with_shards()
        row_view(world, 5).checked_push(6, 0.5, True)       # a forward edge
        world.ranks[0].async_call(1, "opt_rev_edge", 5, 1, 0.75,
                                  nbytes=12, msg_type="opt_rev")
        world.ranks[0].async_call(1, "opt_rev_edge", 5, 1, 0.25,
                                  nbytes=12, msg_type="opt_rev")
        world.ranks[0].async_call(1, "opt_rev_edge", 5, 3, 0.9,
                                  nbytes=12, msg_type="opt_rev")
        world.barrier()
        gids, counts, nbr, d = opt_collect(world, max_degree=2)[1]
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
        """Per-row lists as the block's ``(rows, values)`` columns."""
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
        rows, u1, u2 = type1_pairs(self._columns(new_lists),
                                   self._columns(old_lists), 4, one_sided)
        # Algorithm 1 line 18: a new-new pair is emitted once, as u1 < u2.
        _, a, b = type1_pairs(self._columns(new_lists),
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
        block = block_of(world)
        # Vertex 2 is rank 0's host row 2.
        block.new = self._columns([[], [], self.NEW, []])
        block.old = self._columns([[], [], self.OLD, []])
        dnnd_phases.check(world, [0])
        # Staged, not sent: nothing moves until the driver pumps.
        assert world.stats.total_count() == world.log.counters()["comm.local_deliveries"] == 0
        # Fewer messages than a wave holds: one wave.
        (src, dests, handler, (u1, _u2), _nbytes, msg_type), = block.waves[0]
        assert (handler, msg_type) == ("check_opt", "type1")
        assert (src == 0).all()
        n = len(self._local_join_pairs(self.NEW, self.OLD))
        assert len(dests) == n
        assert dnnd_phases.pump(world, [0]) == {0: 0}
        remote = sum(part.owner(a) != 0 for a in u1.tolist())
        assert world.stats.get("type1").count == remote
        assert world.log.counters()["comm.local_deliveries"] == n - remote
        assert block.waves == {}


class TestWaves:
    """Section 4.4's batching as ``stage`` files it: a message's wave is
    its place among the messages its rank staged since the waves last
    drained, over ``batch_size // world_size``; ``pump`` ships one wave
    a call."""

    RANKS = [0, 1, 2, 3]

    def _world(self, batch_size):
        """A 4-rank world and block whose ``pump`` calls are recorded as
        ``rank -> tags shipped``, one dict per call."""
        world = YGMWorld(SimCluster(ClusterConfig(nodes=2, procs_per_node=2)))
        world.register_batch_handler("h", lambda world, dest, tags: None)
        block = world.state["block"] = HostBlock.build(
            self.RANKS, BlockPartitioner(16, 4), np.zeros((16, 1)),
            DNNDConfig(nnd=NNDescentConfig(k=2), batch_size=batch_size))
        pumps = []
        emit_run = world.emit_run

        def record(src, dests, handler, columns, nbytes, msg_type="other"):
            for rank, tag in zip(src.tolist(), columns[0].tolist()):
                pumps[-1].setdefault(rank, []).append(tag)
            emit_run(src, dests, handler, columns, nbytes, msg_type)

        world.emit_run = record
        return world, block, pumps

    @staticmethod
    def _stage(block, counts, seed):
        """Stage ``counts[r]`` messages of each rank ``r``, the ranks
        interleaved; returns ``rank -> tags`` in emission order."""
        src = np.random.default_rng(seed).permutation(
            np.repeat(np.arange(len(counts)), counts))
        tags = seed * 1000 + np.arange(len(src))
        block.stage(src, src, "h", (tags,), 8, "t")
        return {r: tags[src == r].tolist() for r in range(len(counts))}

    def _pump_all(self, world, pumps):
        """The driver's rule: pump and barrier until no rank has a wave
        left; returns the pumps taken."""
        taken = 0
        while True:
            pumps.append({})
            left = dnnd_phases.pump(world, self.RANKS)
            world.barrier()
            taken += 1
            if not any(left.values()):
                return taken

    def test_pump_k_ships_each_ranks_kth_wave_in_emission_order(self):
        world, block, pumps = self._world(batch_size=12)    # 3 a rank
        sent = self._stage(block, [7, 0, 3, 11], seed=1)
        assert self._pump_all(world, pumps) == 4
        for k, shipped in enumerate(pumps):
            for rank in self.RANKS:
                assert shipped.get(rank, []) == sent[rank][3 * k:3 * k + 3]

    def test_two_stages_before_one_pump_continue_each_ranks_places(self):
        """The ``repair_reinit`` + ``repair_donate`` shape: a second run
        staged before the pumps takes up each rank's places where the
        first left them."""
        world, block, pumps = self._world(batch_size=12)
        first = self._stage(block, [2, 5, 0, 4], seed=1)
        second = self._stage(block, [4, 1, 3, 0], seed=2)
        assert self._pump_all(world, pumps) == 2
        for rank in self.RANKS:
            both = first[rank] + second[rank]
            assert [p.get(rank, []) for p in pumps] == [both[:3], both[3:6]]

    @pytest.mark.parametrize("batch_size,counts", [
        (12, [7, 0, 3, 11]), (12, [3, 3, 3, 3]), (12, [0, 0, 0, 0]),
        (4, [2, 0, 1, 0]), (0, [9, 4, 0, 1])])
    def test_pumps_are_the_most_waves_of_any_rank_and_at_least_one(
            self, batch_size, counts):
        world, block, pumps = self._world(batch_size)
        self._stage(block, counts, seed=3)
        per = max(1, batch_size // 4) if batch_size else max(max(counts), 1)
        want = max(1, max(-(-c // per) for c in counts))
        assert self._pump_all(world, pumps) == want
        assert block.waves == {}
        # A drained phase's successor numbers its places from 0 again.
        self._stage(block, counts, seed=4)
        assert self._pump_all(world, pumps) == want

    def test_forget_after_a_partly_pumped_phase_leaves_nothing_to_ship(self):
        world, block, pumps = self._world(batch_size=12)
        self._stage(block, [7, 0, 3, 11], seed=1)
        pumps.append({})
        assert dnnd_phases.pump(world, self.RANKS) == {0: 2, 1: 0, 2: 0,
                                                       3: 3}
        world.barrier()
        block.forget()
        assert self._pump_all(world, pumps) == 1
        assert pumps[-1] == {} and block.waves == {}
        # The next phase's places start at 0 again.
        sent = self._stage(block, [4, 0, 0, 0], seed=2)
        assert self._pump_all(world, pumps) == 2
        assert pumps[-2:] == [{0: sent[0][:3]}, {0: sent[0][3:]}]


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
        transport = WorkerTransport(cluster, [0, 1], [0, 0], 0)
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
        assert block_of(worker_app.world).data is tiny_dense

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
                            lambda world, live, tag: seen.extend(
                                (tag, rank) for rank in live))
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


class TestEvaluate:
    """``_evaluate`` — the one place a handler computes distances —
    reads its rows' norms from the block's table and charges sparse
    records from the block's length table; neither shows in a result."""

    @staticmethod
    def _block(data, metric, kernel="rowwise"):
        world = YGMWorld(SimCluster(ClusterConfig(nodes=2, procs_per_node=2)))
        block = world.state["block"] = HostBlock.build(
            [0, 1, 2, 3], BlockPartitioner(len(data), 4), data,
            DNNDConfig(nnd=NNDescentConfig(k=3, metric=metric),
                       kernel=kernel))
        return world, block

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint8])
    @pytest.mark.parametrize("kernel", ["rowwise", "blocked"])
    @pytest.mark.parametrize("metric", ["cosine", "euclidean", "sqeuclidean",
                                        "inner_product", "manhattan"])
    def test_equals_rowwise_of_gathered_features(self, metric, kernel, dtype,
                                                 monkeypatch):
        from repro.distances import CountingMetric

        rng = np.random.default_rng(11)
        data = (rng.integers(0, 256, size=(64, 40)) if dtype is np.uint8
                else rng.standard_normal((64, 40))).astype(dtype)
        data[[5, 9]] = 0
        world, block = self._block(data, metric, kernel)
        # Several chunks per call: the table is read chunk by chunk.
        monkeypatch.setattr(dnnd_phases, "_EVAL_BYTES",
                            7 * block.feature_bytes)
        a, b = rng.integers(0, len(data), size=(2, 300))
        got = dnnd_phases._evaluate(world, block, block.owner_of[a], a, b, a)
        ref = CountingMetric(metric, kernel=kernel).rowwise(
            block.features(a), block.features(b))
        assert got.tobytes() == ref.tobytes()
        assert block.metric.count == len(a)

    def test_sparse_charge_is_per_record_distance_cost(self, sparse_sets):
        """The modeled compute of a sparse run is each message's
        ``distance_cost`` at its carried record's length, summed per
        rank — the same float64 values as one call per record."""
        world, block = self._block(sparse_sets, "jaccard")
        rng = np.random.default_rng(2)
        a, b = rng.integers(0, len(sparse_sets), size=(2, 200))
        dest = block.owner_of[a]
        ledger = world.cluster.ledger
        before = np.array(ledger.clocks, dtype=np.float64)
        dnnd_phases._evaluate(world, block, dest, a, b, b)
        net = world.cluster.net
        want = np.bincount(dest, weights=[
            net.distance_cost(len(sparse_sets[int(g)])) for g in b],
            minlength=4)
        for rank in range(4):
            assert ledger.clocks[rank] == before[rank] + float(want[rank])
