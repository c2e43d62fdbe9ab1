"""Process-transport unit surface: how the dataset reaches the workers
(every start method), worker/rank ownership, and the build's teardown.

The heavyweight end-to-end behaviour (graph conformance, crash
recovery, checkpoint round-trips) lives in the integration suites;
these tests pin the local contracts — most importantly that no worker
process outlives its build, even a failed or an unclosed one, and that
a build creates no shared-memory segment that could."""

import gc
import multiprocessing
import os
import pickle
import signal
import time

import numpy as np
import pytest

from repro import DNND, ClusterConfig, DNNDConfig, NNDescentConfig
from repro.config import CommOptConfig
from repro.core.executor import resolve_backend
from repro.errors import ConfigError, RankFailureError
from repro.runtime.faults import FaultPlan, make_injector
from repro.runtime.instrumentation import Delta
from repro.runtime.transports import ProcessTransport, SimCluster
from repro.runtime.transports.process import (START_ENV, ProcessWorld,
                                              WorkerComm, WorkerTransport,
                                              _start_method)
from repro.runtime.ygm import YGMWorld

CLUSTER = ClusterConfig(nodes=2, procs_per_node=2)


def _segments() -> set:
    """Names of live shared-memory segments (POSIX shm is a tmpfs)."""
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        pytest.skip("/dev/shm not available")
    return {name for name in os.listdir("/dev/shm")
            if name.startswith("psm_")}


class TestNoSegmentLeakAfterFailedBuild:
    """The dataset is a start argument of the workers, not a segment:
    what a build could leave behind is a process, never ``/dev/shm``
    space — and it leaves neither."""

    def test_crash_without_recovery_leaves_no_segment(self, tiny_dense):
        """Regression: a build that dies mid-flight (worker SIGKILLed,
        supervisor disabled) is fully torn down by close()."""
        before = _segments()
        cfg = DNNDConfig(nnd=NNDescentConfig(k=4, seed=2),
                         backend="process", workers=4)
        dnnd = DNND(tiny_dense, cfg, cluster=CLUSTER,
                    fault_plan=FaultPlan(crashes=((1, 1),)))
        workers = list(dnnd.cluster._procs)
        assert _segments() <= before        # none while it runs, either
        with pytest.raises(RankFailureError):
            dnnd.build(recover_on_crash=False)
        dnnd.close()
        assert _segments() <= before
        assert not any(proc.is_alive() for proc in workers)

    def test_garbage_collected_build_releases_segment(self, tiny_dense):
        """Dropping the last reference must stop the workers through
        the build's GC finalizer (no explicit close)."""
        before = _segments()
        cfg = DNNDConfig(nnd=NNDescentConfig(k=4, seed=2),
                         backend="process", workers=2)
        dnnd = DNND(tiny_dense, cfg, cluster=CLUSTER)
        dnnd.build()
        workers = list(dnnd.cluster._procs)
        del dnnd
        gc.collect()
        assert _segments() <= before
        assert not any(proc.is_alive() for proc in workers)

    def test_dropped_resume_result_stops_the_workers(self, tiny_dense,
                                                     tmp_path):
        """Regression: ``resume`` hands back a result that references
        its driver, and the driver holds its last result only weakly —
        so dropping the result stops the workers by reference counting
        alone, with the cyclic collector off."""
        ckpt = tmp_path / "ck"
        cfg = DNNDConfig(nnd=NNDescentConfig(k=4, seed=2, max_iters=2))
        DNND(tiny_dense, cfg, cluster=CLUSTER).build(
            checkpoint_path=ckpt, checkpoint_every=1)
        gc.collect()
        gc.disable()
        try:
            result = DNND.resume(tiny_dense, ckpt, cluster=CLUSTER,
                                 backend="process", workers=2)
            workers = list(result.dnnd.cluster._procs)
            assert all(proc.is_alive() for proc in workers)
            result.dnnd.optimize()
            assert result.adjacency is not None  # still updated in place
            del result
            assert not any(proc.is_alive() for proc in workers)
        finally:
            gc.enable()

    def test_close_tears_down_once_and_is_idempotent(self, tiny_dense):
        cfg = DNNDConfig(nnd=NNDescentConfig(k=4, seed=2),
                         backend="process", workers=2)
        dnnd = DNND(tiny_dense, cfg, cluster=CLUSTER)
        workers = list(dnnd.cluster._procs)
        assert all(proc.is_alive() for proc in workers)
        dnnd.close()
        dnnd.close()
        assert not any(proc.is_alive() for proc in workers)


def _envelope(backend: str, **kw) -> DNNDConfig:
    """Delivery-order-invariant configuration: process ≡ sim bit for bit."""
    return DNNDConfig(
        nnd=NNDescentConfig(k=4, rho=0.8, delta=0.0, max_iters=2, seed=5, **kw),
        comm_opts=CommOptConfig.unoptimized(), batch_size=1 << 12,
        backend=backend, workers=2, kernel="rowwise")


class TestDatasetReachesWorkers:
    """One dataset view per address space: the driver's array is the
    workers' array — inherited under ``fork``, pickled once per worker
    under ``spawn`` / ``forkserver`` — for dense and sparse data alike."""

    @pytest.fixture(scope="class")
    def sim_graph(self, tiny_dense):
        return DNND(tiny_dense, _envelope("sim"), cluster=CLUSTER).build().graph

    @pytest.mark.parametrize("method",
                             multiprocessing.get_all_start_methods())
    def test_every_start_method_builds_the_sim_graph(
            self, tiny_dense, sim_graph, method, monkeypatch):
        monkeypatch.setenv(START_ENV, method)
        dnnd = DNND(tiny_dense, _envelope("process"), cluster=CLUSTER)
        workers = list(dnnd.cluster._procs)
        try:
            graph = dnnd.build().graph
        finally:
            dnnd.close()
        np.testing.assert_array_equal(graph.ids, sim_graph.ids)
        assert graph.dists.tobytes() == sim_graph.dists.tobytes()
        assert not any(proc.is_alive() for proc in workers)
        # ... and an unclosed build is stopped by garbage collection.
        dnnd = DNND(tiny_dense, _envelope("process"), cluster=CLUSTER)
        workers = list(dnnd.cluster._procs)
        del dnnd
        gc.collect()
        assert not any(proc.is_alive() for proc in workers)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="inheritance is what fork does")
    def test_fork_hands_workers_the_drivers_array_itself(
            self, tiny_dense, monkeypatch):
        """Under ``fork`` a worker's dataset view *is* the driver's
        array object — same address in the cloned address space — and
        every shard of a worker references that one object."""
        from repro.core import dnnd_phases

        monkeypatch.setenv(START_ENV, "fork")
        # Forked workers inherit the patched table.
        monkeypatch.setitem(
            dnnd_phases.SHARD_OPS, "probe_view",
            lambda world: {rank: (id(dnnd_phases.block_of(world).data),
                                  os.getpid())
                           for rank in dnnd_phases.block_of(world).ranks.tolist()})
        dnnd = DNND(tiny_dense, _envelope("process"), cluster=CLUSTER)
        try:
            probes = dnnd.host.command("probe_view")
        finally:
            dnnd.close()
        assert sorted(probes) == [0, 1, 2, 3]
        assert {view for view, _ in probes.values()} == {id(dnnd._rows)}
        pids = {pid for _, pid in probes.values()}
        assert len(pids) == 2 and os.getpid() not in pids

    def test_sparse_dataset_builds_on_process(self, sparse_sets):
        """The capability matrix lost a row: a ``SparseDataset`` reaches
        the workers exactly as a dense array does."""
        def build(backend):
            dnnd = DNND(sparse_sets, _envelope(backend, metric="jaccard"),
                        cluster=CLUSTER)
            try:
                return dnnd.build()
            finally:
                dnnd.close()

        ref, got = build("sim"), build("process")
        np.testing.assert_array_equal(got.graph.ids, ref.graph.ids)
        assert got.graph.dists.tobytes() == ref.graph.dists.tobytes()
        assert got.distance_evals == ref.distance_evals > 0
        assert got.message_stats.by_type == ref.message_stats.by_type

    def test_recovery_and_repartition_rebuild_shards_over_the_view(
            self, tiny_dense, sim_graph):
        """``build_shards`` copies nothing, so rebuilding shards — crash
        recovery without a checkpoint, ``repartition()`` — yields shards
        over the same view that resolve the right rows."""
        from repro.core.dnnd_phases import block_of

        dnnd = DNND(tiny_dense, _envelope("sim"), cluster=CLUSTER,
                    fault_plan=FaultPlan(crashes=((1, 1),)))
        result = dnnd.build()                # no checkpoint: re-init
        assert result.recoveries == 1
        np.testing.assert_array_equal(result.graph.ids, sim_graph.ids)
        moved = dnnd.repartition()
        np.testing.assert_array_equal(moved.ids, sim_graph.ids)
        owned = []
        block = block_of(dnnd.world)
        assert block.data is dnnd._rows
        for _, lo, hi in block.slices():
            gids = block.global_ids[lo:hi]
            np.testing.assert_array_equal(block.features(gids),
                                          tiny_dense[gids])
            owned += gids.tolist()
        assert sorted(owned) == list(range(len(tiny_dense)))

    @pytest.mark.parametrize("case", ["recover", "repartition"])
    def test_process_workers_rebuild_shards_too(self, tiny_dense, sim_graph,
                                                case):
        plan = FaultPlan(crashes=((1, 1),)) if case == "recover" else None
        dnnd = DNND(tiny_dense, _envelope("process"), cluster=CLUSTER,
                    fault_plan=plan)
        try:
            graph = dnnd.build().graph
            if case == "repartition":
                graph = dnnd.repartition()
        finally:
            dnnd.close()
        np.testing.assert_array_equal(graph.ids, sim_graph.ids)


class TestOwnershipMapping:
    CFG = CLUSTER

    def test_round_robin_ownership(self):
        t = ProcessTransport(self.CFG, workers=2)
        assert t.nworkers == 2
        assert [t.worker_of[r] for r in range(4)] == [0, 1, 0, 1]
        assert list(t.owned_by[0]) == [0, 2]
        assert list(t.owned_by[1]) == [1, 3]

    def test_worker_count_clamped_to_world_size(self):
        t = ProcessTransport(self.CFG, workers=16)
        assert t.nworkers == 4

    def test_start_method_validation(self, monkeypatch):
        monkeypatch.setenv(START_ENV, "not-a-method")
        with pytest.raises(ConfigError, match="start method"):
            _start_method()
        monkeypatch.delenv(START_ENV)
        assert _start_method() in ("fork", "spawn")


class TestExecutorSeam:
    def test_resolve_backend_accepts_process(self):
        assert resolve_backend("process") == "process"
        assert resolve_backend(None, {"REPRO_BACKEND": "process"}) == "process"


class TestRoundFrames:
    """A worker ships at most one frame per destination worker per
    round — its entries for that worker, pickled once — and lands the
    frames it is handed in the order given."""

    @staticmethod
    def _transports(n=3):
        worker_of = [r % n for r in range(CLUSTER.world_size)]
        return [WorkerTransport(CLUSTER, [r for r in range(4) if r % n == w],
                                worker_of, w) for w in range(n)]

    def test_one_frame_per_destination_worker(self):
        w0, w1, _w2 = self._transports()
        for src, dest, item in [(0, 1, "a"), (3, 2, "b"), (0, 1, "c"),
                                (3, 0, "local")]:
            w0._put(src, dest, item)
        assert w0.drain_one(0) == (3, "local")  # co-resident rank
        shipped = w0.ship()
        assert sorted(shipped) == [1, 2]
        assert pickle.loads(shipped[1]) == ([(1, 0, "a"), (1, 0, "c")], [])
        assert pickle.loads(shipped[2]) == ([(2, 3, "b")], [])
        assert w0.ship() == {}                   # nothing held any more
        w1.land([shipped[1]])
        assert [w1.drain_one(1), w1.drain_one(1)] == [(0, "a"), (0, "c")]

    def test_land_keeps_sender_order_and_drops_failed_ranks(self):
        _w0, w1, _w2 = self._transports()
        w1.mark_failed([1])
        w1.land([pickle.dumps(([(1, 0, "to a dead rank")], []))])
        assert w1.mailbox_len(1) == 0
        w1.repair_all()
        w1.land([pickle.dumps(([(1, 0, "first")], [])),
                 pickle.dumps(([(1, 2, "second")], []))])
        assert [w1.drain_one(1), w1.drain_one(1)] == [(0, "first"),
                                                      (2, "second")]

    def test_reset_drops_what_a_worker_holds_for_the_wire(self):
        w0, _w1, _w2 = self._transports()
        w0._put(0, 1, "from before the reset")
        w0.clear_mailboxes()
        assert w0.ship() == {}

    @pytest.mark.parametrize("reliable", [False, True],
                             ids=["bare", "reliable"])
    def test_a_reordered_envelope_arrives_as_on_sim(self, reliable):
        """A reorder fault permutes the entries of the envelope it hits
        at the sender, and the envelope crosses to another worker as
        permuted: a per-message handler there sees the order it sees on
        sim, not the emission order."""
        plan = FaultPlan(seed=5, reorder_rate=1.0)

        def world(transport):
            transport.injector = make_injector(plan, CLUSTER.world_size)
            ygm = YGMWorld(transport, reliable=reliable, sanitize=False)
            seen = []
            ygm.register_handler(
                "note", lambda ctx, tag: seen.append((ctx.rank, tag)))
            return ygm, seen

        sim, on_sim = world(SimCluster(CLUSTER))
        for tag in range(6):
            sim.async_call(0, 1, "note", tag)
        sim.barrier()

        worker_of = [0, 1, 0, 1]
        hosts = []
        for w, owned in enumerate([[0, 2], [1, 3]]):
            transport = WorkerTransport(CLUSTER, owned, worker_of, w)
            hosts.append((WorkerComm(w, owned, transport), *world(transport)))
        for tag in range(6):
            hosts[0][1].async_call(0, 1, "note", tag)
        held = None
        for _ in range(50):     # the driver's relay, until no worker moves
            shipped_to, moved = {}, False
            for w, (comm, ygm, _seen) in enumerate(hosts):
                ran, idle, shipped = comm.round(
                    ygm, None if held is None else held.get(w, []))
                moved = moved or ran > 0 or bool(shipped) or not idle
                for dest, frame in shipped.items():
                    shipped_to.setdefault(dest, []).append(frame)
            if not moved:
                break
            held = shipped_to
        else:
            pytest.fail("the workers never went quiet")

        assert sim.fault_stats.reordered_flushes == 1
        assert hosts[0][1].fault_stats.reordered_flushes == 1
        assert [tag for _rank, tag in on_sim] != list(range(6))
        assert hosts[1][2] == on_sim and hosts[0][2] == []


class _ScriptedCluster:
    """The driver's view of a two-worker pool whose ``__round__``
    replies are scripted."""

    world_size = 4
    injector = None

    def __init__(self, replies, dead_after=None):
        self.replies, self.asked, self.resets = list(replies), [], 0
        self.dead_after, self.failed = dead_after, set()

    def count_into(self, counts):
        pass

    def alive_workers(self):
        return [0, 1]

    def liveness_sweep(self):
        if self.dead_after is not None and len(self.asked) >= self.dead_after:
            self.failed = {1, 3}

    def failed_ranks(self):
        return set(self.failed)

    def command_all(self, cmd, payload=None, per_worker=None):
        if cmd == "__reset__":
            self.resets += 1
            return {0: None, 1: None}
        assert cmd == "__round__"
        self.asked.append(per_worker)
        return self.replies.pop(0)


class TestSuperstepShortfall:
    """The driver holds a round's frames and hands them, unopened and
    in sender order, to their destination in the next round; a sender
    that died in between ends the barrier with ``RankFailureError``
    before any worker is asked to wait for it, and a reset forgets what
    is held."""

    SHIPS = {0: ((0, True, {1: b"from 0"}), Delta()),
             1: ((2, True, {0: b"from 1"}), Delta())}
    QUIET = {0: ((0, True, {}), Delta()), 1: ((0, True, {}), Delta())}

    def test_frames_reach_their_destination_next_round(self):
        world = ProcessWorld(_ScriptedCluster([self.SHIPS, self.QUIET]))
        assert world._superstep(first=True) is True
        assert world._superstep() is False
        assert world.cluster.asked == [{0: None, 1: None},
                                       {0: [b"from 1"], 1: [b"from 0"]}]

    def test_dead_sender_raises_instead(self):
        world = ProcessWorld(_ScriptedCluster([self.SHIPS], dead_after=1))
        world._superstep(first=True)
        with pytest.raises(RankFailureError):
            world._superstep()
        assert len(world.cluster.asked) == 1

    def test_reset_forgets_held_frames(self):
        world = ProcessWorld(_ScriptedCluster([self.SHIPS, self.QUIET]))
        world._superstep(first=True)
        world.reset_in_flight()
        assert world.cluster.resets == 1
        assert world._superstep() is False
        assert world.cluster.asked[-1] == {0: [], 1: []}


class TestWorkerDeathBetweenRounds:
    """Regression: a worker SIGKILLed after it reported shipping a frame
    fails the next round at once — nothing waits for a frame."""

    def test_sigkill_between_rounds_raises_promptly(self, tiny_dense):
        cfg = DNNDConfig(nnd=NNDescentConfig(k=4, seed=2),
                         backend="process", workers=2)
        dnnd = DNND(tiny_dense, cfg, cluster=CLUSTER)
        cluster = dnnd.cluster
        workers = list(cluster._procs)
        command_all = cluster.command_all
        killed, after = [], []

        def kill_after_a_shipping_round(cmd, payload=None, per_worker=None):
            if killed:
                after.append(cmd)
            replies = command_all(cmd, payload, per_worker)
            if (cmd == "__round__" and not killed and 1 in replies
                    and 0 in replies[1][0][2]):
                # Worker 1 shipped worker 0 a frame: the driver holds it
                # for the next round.
                os.kill(workers[1].pid, signal.SIGKILL)
                killed.append(time.monotonic())
            return replies

        cluster.command_all = kill_after_a_shipping_round
        try:
            with pytest.raises(RankFailureError):
                dnnd.build(recover_on_crash=False)
            # At most the next round ran, and it did not wait.
            assert killed and after in ([], ["__round__"])
            assert time.monotonic() - killed[0] < 5.0
        finally:
            dnnd.close()
        assert not any(proc.is_alive() for proc in workers)
