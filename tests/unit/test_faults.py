"""Fault injection: FaultPlan validation, FaultInjector behaviour, and
the YGMWorld reliable-delivery layer under injected faults."""

import dataclasses

import pytest

from repro.config import ClusterConfig
from repro.errors import (ConfigError, FaultToleranceError,
                          RankFailureError, RuntimeStateError)
from repro.runtime.faults import FaultInjector, FaultPlan, make_injector
from repro.runtime.transports import SimCluster
from repro.runtime.ygm import YGMWorld


def make_world(plan=None, world_size=4, reliable=False, **kw):
    cfg = ClusterConfig(nodes=world_size // 2, procs_per_node=2)
    injector = make_injector(plan, cfg.world_size)
    cluster = SimCluster(cfg, injector=injector)
    world = YGMWorld(cluster, reliable=reliable, **kw)
    calls = []
    world.register_handler("note", lambda ctx, tag: calls.append((ctx.rank, tag)))
    return world, calls


class TestFaultPlan:
    def test_default_is_null(self):
        assert FaultPlan().is_null
        assert FaultPlan(seed=99).is_null

    def test_any_rate_is_not_null(self):
        assert not FaultPlan(drop_rate=0.1).is_null
        assert not FaultPlan(dup_rate=0.1).is_null
        assert not FaultPlan(reorder_rate=0.1).is_null
        assert not FaultPlan(delay_rate=0.1).is_null
        assert not FaultPlan(stall_rate=0.1).is_null
        assert not FaultPlan(crashes=((2, 1),)).is_null

    @pytest.mark.parametrize("field", [
        "drop_rate", "dup_rate", "reorder_rate", "delay_rate", "stall_rate"])
    def test_rates_validated(self, field):
        with pytest.raises(ConfigError):
            FaultPlan(**{field: 1.5})
        with pytest.raises(ConfigError):
            FaultPlan(**{field: -0.1})

    def test_bad_delay_and_crash_iteration(self):
        with pytest.raises(ConfigError):
            FaultPlan(max_delay_ticks=0)
        with pytest.raises(ConfigError):
            FaultPlan(crashes=((-1, 0),))

    def test_crashes_sorted(self):
        plan = FaultPlan(crashes=((5, 1), (2, 0)))
        assert plan.crashes == ((2, 0), (5, 1))

    def test_with_crash(self):
        plan = FaultPlan(drop_rate=0.1).with_crash(rank=3, at_iteration=2)
        assert plan.crashes == ((2, 3),)
        assert plan.drop_rate == 0.1

    def test_with_crash_keeps_every_field(self):
        plan = FaultPlan(seed=9, drop_rate=0.1, dup_rate=0.2,
                         reorder_rate=0.3, delay_rate=0.4, max_delay_ticks=5,
                         stall_rate=0.6, stall_seconds=0.7,
                         crashes=((4, 1),))
        crashed = plan.with_crash(rank=0, at_iteration=2)
        assert crashed.crashes == ((2, 0), (4, 1))   # still sorted
        for field in dataclasses.fields(FaultPlan):
            if field.name != "crashes":
                assert (getattr(crashed, field.name)
                        == getattr(plan, field.name)), field.name

    def test_signature_deterministic(self):
        a = FaultPlan(seed=7, drop_rate=0.5).signature()
        b = FaultPlan(seed=7, dup_rate=0.2).signature()
        c = FaultPlan(seed=8).signature()
        assert a == b          # signature depends only on the seed
        assert a != c

    def test_crash_rank_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            FaultInjector(FaultPlan(crashes=((1, 99),)), 4)

    def test_make_injector_null_returns_none(self):
        assert make_injector(None, 4) is None
        assert make_injector(FaultPlan(), 4) is None
        assert make_injector(FaultPlan(drop_rate=0.1), 4) is not None


class TestFaultInjector:
    def test_drop_everything(self):
        inj = FaultInjector(FaultPlan(drop_rate=1.0), 4)
        assert inj.on_deliver(0, 1) == []
        assert inj.stats.dropped == 1

    def test_duplicate_everything(self):
        inj = FaultInjector(FaultPlan(dup_rate=1.0), 4)
        assert inj.on_deliver(0, 1) == [0, 0]
        assert inj.stats.duplicated == 1

    def test_delay_everything(self):
        inj = FaultInjector(FaultPlan(delay_rate=1.0, max_delay_ticks=2), 4)
        delays = inj.on_deliver(0, 1)
        assert len(delays) == 1 and 1 <= delays[0] <= 2
        assert inj.stats.delayed == 1

    def test_hold_and_tick_release(self):
        inj = FaultInjector(FaultPlan(delay_rate=1.0), 4)
        inj.hold(2, 0, 1, "msg")
        assert inj.pending_delayed() == 1
        assert inj.tick() == []                       # clock 1 < release 2
        assert inj.tick() == [(0, 1, "msg")]          # clock 2 == release
        assert inj.pending_delayed() == 0

    def test_stall_charges(self):
        inj = FaultInjector(FaultPlan(stall_rate=1.0, stall_seconds=0.5), 4)
        assert inj.maybe_stall() == 0.5
        assert inj.stats.stalls == 1

    def test_reorder_is_permutation(self):
        inj = FaultInjector(FaultPlan(seed=3, reorder_rate=1.0), 4)
        order = inj.maybe_reorder(10)
        assert order is not None
        assert sorted(int(i) for i in order) == list(range(10))
        assert inj.maybe_reorder(1) is None           # nothing to permute

    def test_crash_schedule_fires_once(self):
        inj = FaultInjector(FaultPlan(crashes=((2, 1),)), 4)
        assert inj.advance_iteration(0) == []
        assert inj.advance_iteration(2) == [1]
        assert inj.is_crashed(1)
        inj.repair_all()
        assert not inj.is_crashed(1)
        assert inj.stats.recoveries == 1
        # Replaying the iteration after recovery must not re-crash.
        assert inj.advance_iteration(2) == []

    def test_decision_stream_replays_identically(self):
        plan = FaultPlan(seed=11, drop_rate=0.3, dup_rate=0.2, delay_rate=0.2)
        a = FaultInjector(plan, 4)
        b = FaultInjector(plan, 4)
        seq_a = [tuple(a.on_deliver(0, 1)) for _ in range(200)]
        seq_b = [tuple(b.on_deliver(0, 1)) for _ in range(200)]
        assert seq_a == seq_b


class TestClusterFaultPaths:
    def test_dropped_message_never_arrives(self):
        cluster = SimCluster(
            ClusterConfig(nodes=2, procs_per_node=2),
            injector=FaultInjector(FaultPlan(drop_rate=1.0), 4))
        cluster.deliver(0, 1, "x")
        assert cluster.mailbox_empty(1)

    def test_fault_exempt_bypasses_injector(self):
        cluster = SimCluster(
            ClusterConfig(nodes=2, procs_per_node=2),
            injector=FaultInjector(FaultPlan(drop_rate=1.0), 4))
        cluster.deliver(0, 1, "x", fault_exempt=True)
        assert not cluster.mailbox_empty(1)

    def test_local_delivery_never_faulted(self):
        cluster = SimCluster(
            ClusterConfig(nodes=2, procs_per_node=2),
            injector=FaultInjector(FaultPlan(drop_rate=1.0), 4))
        cluster.deliver(1, 1, "self")
        assert not cluster.mailbox_empty(1)

    def test_crashed_rank_traffic_dropped(self):
        inj = FaultInjector(FaultPlan(crashes=((0, 2),)), 4)
        cluster = SimCluster(ClusterConfig(nodes=2, procs_per_node=2),
                             injector=inj)
        inj.advance_iteration(0)
        cluster.deliver(0, 2, "to-dead")
        cluster.deliver(2, 0, "from-dead")
        assert cluster.mailbox_empty(2) and cluster.mailbox_empty(0)
        assert inj.stats.crash_dropped == 2


class TestReliableDelivery:
    def test_unreliable_drops_lose_messages(self):
        world, calls = make_world(FaultPlan(drop_rate=1.0))
        for i in range(10):
            world.async_call(0, 1, "note", i, nbytes=8)
        world.barrier()
        assert calls == []
        # The fault unit is the flushed buffer: one drop loses all ten.
        assert world.flush_count == 1
        assert world.fault_stats.dropped == 1

    def test_reliable_masks_heavy_drops(self):
        world, calls = make_world(FaultPlan(seed=5, drop_rate=0.4),
                                  reliable=True, retry_timeout=1)
        for i in range(50):
            world.async_call(0, 1, "note", i, nbytes=8)
        world.barrier()
        assert sorted(tag for _r, tag in calls) == list(range(50))
        assert world.fault_stats.retransmits > 0

    def test_reliable_dedups_duplicates(self):
        world, calls = make_world(FaultPlan(seed=5, dup_rate=1.0),
                                  reliable=True)
        for i in range(20):
            world.async_call(0, 1, "note", i, nbytes=8)
        world.barrier()
        assert sorted(tag for _r, tag in calls) == list(range(20))
        # One envelope, duplicated once (as is the ack that answers it);
        # its copy is suppressed whole.
        stats = world.fault_stats
        assert world.flush_count == stats.acks_sent == 1
        assert stats.duplicated == world.flush_count + stats.acks_sent
        assert stats.duplicates_suppressed == 1

    def test_reliable_total_loss_exhausts_budget(self):
        world, _calls = make_world(FaultPlan(drop_rate=1.0), reliable=True,
                                   retry_timeout=1, max_retries=3)
        world.async_call(0, 1, "note", 0, nbytes=8)
        with pytest.raises(FaultToleranceError) as exc:
            world.barrier()
        assert exc.value.src == 0 and exc.value.dest == 1
        assert exc.value.attempts == 3

    def test_crashed_rank_fails_barrier(self):
        plan = FaultPlan(crashes=((0, 1),))
        world, _calls = make_world(plan)
        world.injector.advance_iteration(0)
        world.async_call(0, 2, "note", 0, nbytes=8)
        with pytest.raises(RankFailureError) as exc:
            world.barrier()
        assert exc.value.ranks == (1,)

    def test_reset_in_flight_clears_everything(self):
        world, calls = make_world(FaultPlan(seed=1, drop_rate=0.2),
                                  reliable=True)
        for i in range(30):
            world.async_call(0, 1, "note", i, nbytes=8)
        world.flush_all()
        world.reset_in_flight()
        world.barrier()
        assert calls == []
        assert not world._reliable_pending()

    def test_ack_traffic_recorded(self):
        world, _calls = make_world(FaultPlan(seed=2, drop_rate=0.01),
                                   reliable=True)
        for i in range(10):
            world.async_call(0, 1, "note", i, nbytes=8)
        world.barrier()
        assert world.stats.by_type["ack"].count >= 1
        assert world.fault_stats.acks_sent >= 1


class TestFailureDetection:
    """Heartbeat/last-progress failure detector in the comm layer."""

    def test_silent_rank_detected_by_timeout(self):
        """A rank that never acks and never sends counts as failed once
        the timeout elapses — well before the retransmit budget runs
        out (max_retries=32 with doubling backoff takes far longer)."""
        world, _calls = make_world(FaultPlan(drop_rate=1.0), reliable=True,
                                   retry_timeout=1, failure_timeout=8)
        world.async_call(0, 1, "note", 0, nbytes=8)
        with pytest.raises(RankFailureError) as exc:
            world.barrier()
        assert 1 in exc.value.ranks
        assert world.fault_stats.detected >= 1

    def test_timeout_none_leaves_budget_exhaustion(self):
        world, _calls = make_world(FaultPlan(drop_rate=1.0), reliable=True,
                                   retry_timeout=1, max_retries=3,
                                   failure_timeout=None)
        world.async_call(0, 1, "note", 0, nbytes=8)
        with pytest.raises(FaultToleranceError):
            world.barrier()

    def test_lossy_but_alive_link_not_declared_dead(self):
        """Heavy-but-recoverable loss must ride out retransmits: the
        timeout covers several backoff cycles, so a live rank that
        keeps acking (eventually) is never detected as failed."""
        world, calls = make_world(FaultPlan(seed=5, drop_rate=0.3),
                                  reliable=True, retry_timeout=1,
                                  failure_timeout=256)
        for i in range(20):
            world.async_call(0, 1, "note", i, nbytes=8)
        world.barrier()
        assert len(calls) == 20
        assert world.fault_stats.detected == 0

    def test_failure_timeout_validated(self):
        with pytest.raises(RuntimeStateError):
            make_world(reliable=True, failure_timeout=0)


class TestExcludeReadmit:
    """Degraded-mode comm surface: exclusion, then re-admission."""

    def _failed_world(self):
        plan = FaultPlan(crashes=((0, 1),))
        world, calls = make_world(plan)
        world.injector.advance_iteration(0)
        world.async_call(0, 1, "note", 0, nbytes=8)
        with pytest.raises(RankFailureError):
            world.barrier()
        return world, calls

    def test_excluded_rank_no_longer_fails_barriers(self):
        world, calls = self._failed_world()
        world.exclude_ranks({1})
        world.reset_in_flight()
        world.async_call(0, 2, "note", 7, nbytes=8)
        world.barrier()  # does not raise
        assert (2, 7) in calls
        assert world.excluded_ranks == {1}

    def test_run_on_all_skips_excluded(self):
        world, _calls = self._failed_world()
        world.exclude_ranks({1})
        world.reset_in_flight()
        visited = []
        world.run_on_all(lambda ctx: visited.append(ctx.rank))
        assert 1 not in visited
        assert sorted(visited) == [0, 2, 3]

    def test_readmit_restores_full_world(self):
        world, calls = self._failed_world()
        world.exclude_ranks({1})
        world.reset_in_flight()
        returned = world.readmit_ranks()
        assert returned == {1}
        assert world.excluded_ranks == set()
        world.async_call(0, 1, "note", 9, nbytes=8)
        world.barrier()
        assert (1, 9) in calls

    def test_detected_counter_counts_each_failure_once(self):
        world, _calls = self._failed_world()
        assert world.fault_stats.detected == 1
        world.exclude_ranks({1})
        world.reset_in_flight()
        world.barrier()
        assert world.fault_stats.detected == 1
