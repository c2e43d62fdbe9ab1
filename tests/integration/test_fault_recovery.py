"""Fault-tolerant DNND builds: crash recovery and reliable delivery.

The acceptance bar for the fault subsystem:

1. A rank crash mid-build recovers from the latest checkpoint and the
   finished graph — and hence its recall — matches the fault-free build.
2. A seeded drop/dup/reorder/delay plan under reliable delivery yields
   the *identical* final graph to a fault-free run (the recovery layer
   fully masks the adversarial network).
3. With injection disabled, the fault machinery is zero-overhead: the
   message accounting is byte-for-byte what the seed produced.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import (
    DNND,
    ClusterConfig,
    CommOptConfig,
    DNNDConfig,
    FaultPlan,
    NNDescentConfig,
)
from repro.errors import FaultToleranceError, RankFailureError


def config(k=6, seed=43, max_iters=30):
    return DNNDConfig(nnd=NNDescentConfig(k=k, seed=seed, max_iters=max_iters))


CLUSTER = dict(nodes=2, procs_per_node=2)


@pytest.fixture(scope="module")
def reference(small_dense):
    """Fault-free build — the ground truth every faulty build must match."""
    dnnd = DNND(small_dense, config(), cluster=ClusterConfig(**CLUSTER))
    return dnnd.build()


class TestCrashRecovery:
    def test_crash_recovers_to_identical_graph(self, small_dense, tmp_path,
                                               reference):
        """Crash rank 1 at iteration 2; the build detects the failed
        barrier, restores the iteration-1 checkpoint, replays, and
        finishes with the fault-free graph (recall identity is implied
        by graph identity)."""
        ckpt = tmp_path / "ckpt"
        dnnd = DNND(small_dense, config(), cluster=ClusterConfig(**CLUSTER),
                    fault_plan=FaultPlan().with_crash(rank=1, at_iteration=2))
        result = dnnd.build(checkpoint_path=ckpt, checkpoint_every=1)
        assert result.recoveries == 1
        assert result.fault_stats.crashes == 1
        assert result.converged == reference.converged
        assert result.iterations == reference.iterations
        np.testing.assert_array_equal(result.graph.ids, reference.graph.ids)
        np.testing.assert_allclose(result.graph.dists, reference.graph.dists)

    def test_crash_recall_matches_fault_free(self, small_dense, tmp_path,
                                             reference):
        """The paper-facing metric: recall@k against brute force is the
        same for the recovered build and the fault-free build."""
        from repro import brute_force_knn_graph, graph_recall

        ckpt = tmp_path / "ckpt_recall"
        dnnd = DNND(small_dense, config(), cluster=ClusterConfig(**CLUSTER),
                    fault_plan=FaultPlan().with_crash(rank=0, at_iteration=1))
        result = dnnd.build(checkpoint_path=ckpt, checkpoint_every=1)
        truth = brute_force_knn_graph(small_dense, k=6)
        assert result.recoveries == 1
        assert graph_recall(result.graph, truth) == pytest.approx(
            graph_recall(reference.graph, truth), abs=1e-12)

    def test_crash_without_checkpoint_restarts_from_scratch(
            self, small_dense, reference):
        """No checkpoint configured: recovery re-runs init.  Keyed RNG
        makes even that replay land on the identical graph."""
        dnnd = DNND(small_dense, config(), cluster=ClusterConfig(**CLUSTER),
                    fault_plan=FaultPlan().with_crash(rank=2, at_iteration=1))
        result = dnnd.build()
        assert result.recoveries == 1
        np.testing.assert_array_equal(result.graph.ids, reference.graph.ids)

    def test_crash_surfaces_when_recovery_disabled(self, small_dense):
        dnnd = DNND(small_dense, config(), cluster=ClusterConfig(**CLUSTER),
                    fault_plan=FaultPlan().with_crash(rank=1, at_iteration=1))
        with pytest.raises(RankFailureError) as exc:
            dnnd.build(recover_on_crash=False)
        assert exc.value.ranks == (1,)

    def test_multiple_crashes_all_recovered(self, small_dense, tmp_path,
                                            reference):
        ckpt = tmp_path / "ckpt_multi"
        plan = (FaultPlan().with_crash(rank=1, at_iteration=1)
                .with_crash(rank=3, at_iteration=3))
        dnnd = DNND(small_dense, config(), cluster=ClusterConfig(**CLUSTER),
                    fault_plan=plan)
        result = dnnd.build(checkpoint_path=ckpt, checkpoint_every=1)
        assert result.recoveries == 2
        np.testing.assert_array_equal(result.graph.ids, reference.graph.ids)

    def test_failure_storm_surfaces_after_max_recovery_attempts(
            self, small_dense):
        """A rank that dies again on every replay exhausts the
        supervisor's patience: exactly ``max_recovery_attempts``
        recoveries, then the failure itself."""
        dnnd = DNND(small_dense, config(), cluster=ClusterConfig(**CLUSTER),
                    fault_plan=FaultPlan().with_crash(rank=1, at_iteration=0))
        fire = dnnd._injector.advance_iteration

        def fire_again(iteration):
            dnnd._injector._fired_crashes.clear()
            return fire(iteration)

        dnnd._injector.advance_iteration = fire_again
        with pytest.raises(RankFailureError) as exc:
            dnnd.build(max_recovery_attempts=3)
        assert exc.value.ranks == (1,)
        assert dnnd._recoveries == 3
        assert dnnd.world.log.total_fault_events()["crashes"] == 4


class TestReliableDeliveryBuild:
    def test_drop_dup_reorder_graph_identical(self, small_dense, reference):
        """Seeded network faults + reliable delivery mask the adversarial
        network (the second acceptance criterion): the byte-identical
        final graph under the *order-invariant* envelope (the
        unoptimized pattern), for every seed; under the default pattern,
        whose Section 4.3.2 redundancy check reads rows in delivery
        order, the same quality — recall within 0.005, iterations within
        one of the fault-free build."""
        from repro import brute_force_knn_graph, graph_recall

        plan = FaultPlan(seed=17, drop_rate=0.05, dup_rate=0.05,
                         reorder_rate=0.2, delay_rate=0.05)
        for seed in range(43, 48):
            cfg = replace(config(seed=seed, max_iters=4),
                          comm_opts=CommOptConfig.unoptimized())
            clean = DNND(small_dense, cfg,
                         cluster=ClusterConfig(**CLUSTER)).build()
            result = DNND(small_dense, cfg, cluster=ClusterConfig(**CLUSTER),
                          fault_plan=plan, reliable=True).build()
            assert result.fault_stats.dropped > 0
            assert result.fault_stats.retransmits > 0
            assert result.iterations == clean.iterations
            np.testing.assert_array_equal(result.graph.ids, clean.graph.ids)
            np.testing.assert_array_equal(result.graph.dists,
                                          clean.graph.dists)
        result = DNND(small_dense, config(), cluster=ClusterConfig(**CLUSTER),
                      fault_plan=plan, reliable=True).build()
        assert result.fault_stats.dropped > 0
        assert abs(result.iterations - reference.iterations) <= 1
        truth = brute_force_knn_graph(small_dense, k=6)
        assert graph_recall(result.graph, truth) == pytest.approx(
            graph_recall(reference.graph, truth), abs=0.005)

    def test_reliability_overhead_is_accounted(self, small_dense, reference):
        plan = FaultPlan(seed=17, drop_rate=0.05)
        dnnd = DNND(small_dense, config(), cluster=ClusterConfig(**CLUSTER),
                    fault_plan=plan, reliable=True)
        result = dnnd.build()
        assert result.message_stats.by_type["ack"].count > 0
        assert result.message_stats.by_type["retransmit"].count > 0
        # Recovery work costs simulated time.
        assert result.sim_seconds > reference.sim_seconds

    def test_unrecoverable_network_raises(self, small_dense):
        plan = FaultPlan(seed=1, drop_rate=1.0)
        dnnd = DNND(small_dense, config(), cluster=ClusterConfig(**CLUSTER),
                    fault_plan=plan, reliable=True, max_retries=3)
        with pytest.raises(FaultToleranceError):
            dnnd.build()


    @pytest.mark.parametrize("backend", ["sim", "process"])
    def test_exhausted_retry_budget_is_typed_on_both_backends(
            self, small_dense, backend):
        """A worker-side library error reaches the caller as itself —
        attributes and the worker traceback included — not as a
        ``RuntimeStateError`` around its text; and the failed build
        leaves no worker behind."""
        import multiprocessing

        cfg = replace(config(), backend=backend, workers=2)
        dnnd = DNND(small_dense, cfg, cluster=ClusterConfig(**CLUSTER),
                    fault_plan=FaultPlan(drop_rate=1.0), reliable=True,
                    max_retries=1)
        try:
            with pytest.raises(FaultToleranceError) as exc:
                dnnd.build()
        finally:
            dnnd.close()
        assert type(exc.value) is FaultToleranceError
        assert exc.value.attempts == 1
        if backend == "process":
            assert "tick" in str(exc.value.__cause__)  # worker traceback
        assert not multiprocessing.active_children()


class TestZeroOverheadDefault:
    def test_null_plan_build_matches_default_exactly(self, small_dense,
                                                     reference):
        """Passing a null FaultPlan (or none) leaves message accounting
        byte-for-byte unchanged — the regression gate for bench_fig4."""
        dnnd = DNND(small_dense, config(), cluster=ClusterConfig(**CLUSTER),
                    fault_plan=FaultPlan())
        result = dnnd.build()
        assert dnnd._injector is None
        ref_types = {t: (s.count, s.bytes, s.offnode_count, s.offnode_bytes)
                     for t, s in reference.message_stats.by_type.items()}
        got_types = {t: (s.count, s.bytes, s.offnode_count, s.offnode_bytes)
                     for t, s in result.message_stats.by_type.items()}
        assert got_types == ref_types
        assert "ack" not in got_types and "retransmit" not in got_types
        assert result.sim_seconds == reference.sim_seconds
        assert not result.fault_stats.any_faults()
        assert result.recoveries == 0
