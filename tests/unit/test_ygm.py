"""YGMWorld: async RPC semantics, buffering, barrier, instrumentation."""

import pytest

from repro.config import ClusterConfig
from repro.errors import RuntimeStateError
from repro.runtime.transports import SimCluster
from repro.runtime.ygm import YGMWorld


def make_world(nodes=2, ppn=2, flush=1024):
    cluster = SimCluster(ClusterConfig(nodes=nodes, procs_per_node=ppn))
    return YGMWorld(cluster, flush_threshold=flush)


class TestHandlerRegistry:
    def test_register_and_call(self):
        world = make_world()
        seen = []
        world.register_handler("ping", lambda ctx, x: seen.append((ctx.rank, x)))
        world.async_call(0, 1, "ping", 42)
        world.barrier()
        assert seen == [(1, 42)]

    def test_duplicate_name_rejected(self):
        world = make_world()
        world.register_handler("h", lambda ctx: None)
        with pytest.raises(RuntimeStateError):
            world.register_handler("h", lambda ctx: None)

    def test_unknown_handler_rejected(self):
        world = make_world()
        with pytest.raises(RuntimeStateError):
            world.async_call(0, 1, "nope")

    def test_bad_destination(self):
        world = make_world()
        world.register_handler("h", lambda ctx: None)
        with pytest.raises(RuntimeStateError):
            world.async_call(0, 99, "h")


class TestFireAndForget:
    def test_messages_deferred_until_barrier(self):
        world = make_world()
        seen = []
        world.register_handler("h", lambda ctx: seen.append(ctx.rank))
        world.async_call(0, 1, "h")
        assert seen == []  # not yet delivered
        world.barrier()
        assert seen == [1]

    def test_self_message_also_deferred(self):
        world = make_world()
        seen = []
        world.register_handler("h", lambda ctx: seen.append(ctx.rank))
        world.async_call(2, 2, "h")
        assert seen == []
        world.barrier()
        assert seen == [2]

    def test_handlers_can_send_more(self):
        # A handler chain a -> b -> c must fully drain within one barrier.
        world = make_world()
        log = []

        def a(ctx):
            log.append("a")
            ctx.async_call(2, "b")

        def b(ctx):
            log.append("b")
            ctx.async_call(3, "c")

        def c(ctx):
            log.append("c")

        world.register_handlers(a=a, b=b, c=c)
        world.async_call(0, 1, "a")
        world.barrier()
        assert log == ["a", "b", "c"]

    def test_deep_chain_drains(self):
        world = make_world()
        count = [0]

        def bounce(ctx, hops):
            count[0] += 1
            if hops > 0:
                ctx.async_call((ctx.rank + 1) % ctx.world_size, "bounce", hops - 1)

        world.register_handler("bounce", bounce)
        world.async_call(0, 1, "bounce", 50)
        world.barrier()
        assert count[0] == 51

    def test_deterministic_delivery_order(self):
        def run():
            world = make_world()
            log = []
            world.register_handler("h", lambda ctx, tag: log.append((ctx.rank, tag)))
            for i in range(20):
                world.async_call(i % 4, (i * 7) % 4, "h", i)
            world.barrier()
            return log
        assert run() == run()


class TestInstrumentation:
    def test_message_stats_recorded(self):
        world = make_world()
        world.register_handler("h", lambda ctx: None)
        world.async_call(0, 1, "h", nbytes=100, msg_type="type1")
        world.async_call(0, 2, "h", nbytes=50, msg_type="type1")
        assert world.stats.get("type1").count == 2
        assert world.stats.get("type1").bytes == 150
        # 0 -> 1 is intra-node, 0 -> 2 crosses nodes.
        assert world.stats.get("type1").offnode_count == 1

    def test_self_messages_not_counted(self):
        world = make_world()
        world.register_handler("h", lambda ctx: None)
        world.async_call(1, 1, "h", nbytes=10, msg_type="x")
        assert world.stats.total_count() == 0

    def test_phase_scoping(self):
        world = make_world()
        world.register_handler("h", lambda ctx: None)
        world.set_phase("alpha")
        world.async_call(0, 1, "h", nbytes=1, msg_type="m")
        world.barrier()
        world.set_phase("beta")
        world.async_call(0, 1, "h", nbytes=1, msg_type="m")
        world.barrier()
        assert world.stats_for("alpha").get("m").count == 1
        assert world.stats_for("beta").get("m").count == 1
        assert world.stats.get("m").count == 2

    def test_handler_invocations_counted(self):
        world = make_world()
        world.register_handler("h", lambda ctx: None)
        for _ in range(5):
            world.async_call(0, 1, "h")
        world.barrier()
        assert world.log.counters()["executor.tasks"] == 5


class TestBufferingAndCosts:
    def test_flush_threshold_triggers_early_delivery_to_mailbox(self):
        world = make_world(flush=2)
        world.register_handler("h", lambda ctx: None)
        world.async_call(0, 1, "h")
        assert world.cluster.pending_total() == 0  # buffered
        world.async_call(0, 1, "h")
        # Flushed at the threshold: both messages travel as ONE envelope.
        assert world.cluster.pending_total() == 1
        assert world.log.counters()["comm.flushes"] == 1

    def test_flush_count_depends_on_threshold(self):
        def flush_count(threshold):
            world = make_world(flush=threshold)
            world.register_handler("h", lambda ctx: None)
            for _ in range(64):
                world.async_call(0, 1, "h", nbytes=8)
            world.barrier()
            return world.log.counters()["comm.flushes"]
        assert flush_count(1) > flush_count(64)

    def test_sender_charged_for_traffic(self):
        world = make_world()
        world.register_handler("h", lambda ctx: None)
        world.async_call(0, 2, "h", nbytes=10_000)
        world.flush_all()
        assert world.cluster.ledger.clocks[0] > 0
        assert world.cluster.ledger.clocks[2] == 0

    def test_invalid_flush_threshold(self):
        cluster = SimCluster(ClusterConfig(nodes=1, procs_per_node=2))
        with pytest.raises(RuntimeStateError):
            YGMWorld(cluster, flush_threshold=0)


class TestBarrier:
    def test_returns_superstep_seconds(self):
        world = make_world()
        world.register_handler("h", lambda ctx: ctx.charge_compute(0.5))
        world.async_call(0, 1, "h")
        step = world.barrier()
        assert step >= 0.5

    def test_async_counter_resets(self):
        world = make_world()
        world.register_handler("h", lambda ctx: None)
        world.async_call(0, 1, "h")
        assert world.async_count_since_barrier == 1
        world.barrier()
        assert world.async_count_since_barrier == 0

    def test_nested_barrier_rejected(self):
        world = make_world()

        def bad(ctx):
            ctx.world.barrier()

        world.register_handler("bad", bad)
        world.async_call(0, 1, "bad")
        with pytest.raises(RuntimeStateError):
            world.barrier()

    def test_empty_barrier_ok(self):
        world = make_world()
        assert world.barrier() >= 0.0


class TestRankContext:
    def test_state_is_rank_local(self):
        world = make_world()
        world.ranks[0].state["x"] = 1
        assert "x" not in world.ranks[1].state

    def test_rngs_differ_per_rank(self):
        world = make_world()
        a = world.ranks[0].rng.random(4)
        b = world.ranks[1].rng.random(4)
        assert not (a == b).all()

    def test_charge_helpers(self):
        world = make_world()
        ctx = world.ranks[0]
        ctx.charge_distance(96, count=10)
        ctx.charge_update(5)
        net = world.cluster.net
        expected = 10 * net.distance_cost(96) + 5 * net.compute_per_update
        assert world.cluster.ledger.clocks[0] == pytest.approx(expected)

    def test_run_on_all(self):
        world = make_world()
        visits = []
        world.run_on_all(lambda ctx: visits.append(ctx.rank))
        assert visits == [0, 1, 2, 3]
        world.run_on_all(lambda ctx: visits.append(ctx.rank), ranks=[3, 1])
        assert visits[4:] == [3, 1]

    def test_barrier_inside_a_section_raises(self):
        """The driver owns the schedule: a rank section cannot take a
        barrier, and the guard lifts when the section ends (even by an
        error)."""
        world = make_world()
        with pytest.raises(RuntimeStateError, match="inside an SPMD section"):
            world.run_on_all(lambda ctx: world.barrier())
        world.barrier()

    def test_allreduce_sum_helper(self):
        world = make_world()
        assert world.allreduce_sum(lambda ctx: ctx.rank) == 6
