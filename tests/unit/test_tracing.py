"""Runtime tracing (Section 7 profiling support)."""

import pytest

from repro import DNND, ClusterConfig, DNNDConfig, NNDescentConfig
from repro.runtime.tracing import attach_tracer


@pytest.fixture(scope="module")
def traced_run(small_dense):
    cfg = DNNDConfig(nnd=NNDescentConfig(k=6, seed=51), batch_size=1 << 11,
                     backend="sim")
    dnnd = DNND(small_dense, cfg, cluster=ClusterConfig(nodes=2, procs_per_node=2))
    tracer = attach_tracer(dnnd.world)
    result = dnnd.build()
    return tracer, result, dnnd


class TestTracer:
    def test_one_record_per_barrier(self, traced_run):
        tracer, _, dnnd = traced_run
        assert tracer.total_supersteps() == dnnd.cluster.ledger.barriers

    def test_durations_sum_to_elapsed(self, traced_run):
        tracer, result, _ = traced_run
        total = sum(r.duration for r in tracer.records)
        assert total == pytest.approx(result.sim_seconds, rel=1e-9)

    def test_phases_labelled(self, traced_run):
        tracer, _, _ = traced_run
        phases = {r.phase for r in tracer.records}
        assert {"init", "reverse", "neighbor_check"} <= phases

    def test_phase_durations_match_ledger(self, traced_run):
        tracer, result, _ = traced_run
        for phase, secs in tracer.phase_durations().items():
            assert secs == pytest.approx(result.phase_seconds[phase], rel=1e-9)

    def test_message_timeline_totals(self, traced_run):
        tracer, result, _ = traced_run
        timeline = tracer.message_timeline("type1")
        assert sum(timeline) == result.message_stats.get("type1").count

    def test_imbalance_recorded(self, traced_run):
        tracer, _, _ = traced_run
        assert tracer.peak_imbalance() >= 1.0

    def test_busiest_supersteps_sorted(self, traced_run):
        tracer, _, _ = traced_run
        busiest = tracer.busiest_supersteps(3)
        durations = [r.duration for r in busiest]
        assert durations == sorted(durations, reverse=True)

    def test_report_renders(self, traced_run):
        tracer, _, _ = traced_run
        text = tracer.report()
        assert "phase breakdown" in text
        assert "busiest supersteps" in text
        assert "neighbor_check" in text

    def test_barrier_semantics_preserved(self, small_dense):
        """A traced build produces the same graph as an untraced one."""
        import numpy as np

        def build(trace):
            cfg = DNNDConfig(nnd=NNDescentConfig(k=5, seed=52),
                             backend="sim")
            dnnd = DNND(small_dense, cfg,
                        cluster=ClusterConfig(nodes=2, procs_per_node=1))
            if trace:
                attach_tracer(dnnd.world)
            return dnnd.build().graph

        np.testing.assert_array_equal(build(True).ids, build(False).ids)


class TestDoubleAttach:
    """Regression: attaching a tracer twice used to wrap the (already
    wrapped) barrier again, firing ``_on_barrier`` twice per superstep
    and double-counting every record.  Nothing is wrapped any more —
    ``attach_tracer`` returns the world's log — so this holds by
    construction."""

    def test_second_attach_returns_existing_tracer(self, tiny_dense):
        cfg = DNNDConfig(nnd=NNDescentConfig(k=5, seed=53), backend="sim")
        dnnd = DNND(tiny_dense, cfg,
                    cluster=ClusterConfig(nodes=2, procs_per_node=1))
        first = attach_tracer(dnnd.world)
        second = attach_tracer(dnnd.world)
        assert second is first

    def test_double_attach_does_not_double_count(self, tiny_dense):
        def build(attaches):
            cfg = DNNDConfig(nnd=NNDescentConfig(k=5, seed=53),
                             backend="sim")
            dnnd = DNND(tiny_dense, cfg,
                        cluster=ClusterConfig(nodes=2, procs_per_node=1))
            tracer = None
            for _ in range(attaches):
                tracer = attach_tracer(dnnd.world)
            result = dnnd.build()
            return tracer, result, dnnd

        once_tracer, once_result, once_dnnd = build(1)
        twice_tracer, twice_result, twice_dnnd = build(3)
        assert (twice_tracer.total_supersteps()
                == once_tracer.total_supersteps()
                == twice_dnnd.cluster.ledger.barriers)
        # Per-superstep deltas (not just totals) must match: a doubled
        # wrapper fired a second record with an empty delta window.
        assert (twice_tracer.message_timeline("type1")
                == once_tracer.message_timeline("type1"))
        import numpy as np
        np.testing.assert_array_equal(once_result.graph.ids,
                                      twice_result.graph.ids)


class TestTracerOnProcess:
    """Regression: ``attach_tracer(ProcessWorld)`` died at the first
    barrier (``AttributeError: 'ProcessWorld' object has no attribute
    '_phase'``) — the wrapper reached into the sim world's state.  As a
    view of the barrier log it needs nothing else from the world."""

    @pytest.fixture(scope="class")
    def traced(self, small_dense):
        from repro.config import CommOptConfig

        def build(backend):
            cfg = DNNDConfig(
                nnd=NNDescentConfig(k=6, seed=54, delta=0.0, max_iters=3),
                comm_opts=CommOptConfig.unoptimized(),
                batch_size=1 << 11, backend=backend, workers=2)
            dnnd = DNND(small_dense, cfg,
                        cluster=ClusterConfig(nodes=2, procs_per_node=2))
            tracer = attach_tracer(dnnd.world)
            try:
                return tracer, dnnd.build()
            finally:
                dnnd.close()
        return {backend: build(backend) for backend in ("sim", "process")}

    @pytest.mark.parametrize("backend", ["sim", "process"])
    def test_one_record_per_barrier_and_timelines_sum(self, traced, backend):
        tracer, result = traced[backend]
        assert (tracer.total_supersteps()
                == result.metrics.counter("comm.barriers") > 0)
        assert result.message_stats.by_type
        for t, stats in result.message_stats.by_type.items():
            assert sum(tracer.message_timeline(t)) == stats.count

    def test_backends_agree_phase_by_phase(self, traced):
        (sim, sim_result), (proc, proc_result) = (traced["sim"],
                                                  traced["process"])
        assert ([r.phase for r in proc.records]
                == [r.phase for r in sim.records])
        assert ({p: s.snapshot() for p, s in proc_result.phase_stats.items()}
                == {p: s.snapshot() for p, s in sim_result.phase_stats.items()})
