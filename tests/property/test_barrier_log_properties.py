"""The barrier log: one time series of counters, everything else a view.

Whatever the world shape, partitioner, message pattern or fault plan,

- per type, the log's per-barrier deltas sum to the running totals and
  to the mirrored ``messages.sent.<type>`` / ``messages.bytes.<type>``
  counters; the rank program's tallies sum to ``distance.evals`` /
  ``heap.updates``,
- ``len(log) == comm.barriers`` (plus one window-closing record per
  failure survived); indices and wall timestamps ascend,
- group-by-iteration *is* ``per_iteration_messages``, and each
  iteration's per-rank ``updates`` sum to its ``update_counts`` entry,
- a supervised recovery leaves the rolled-back iterations out of the
  iteration view while what they sent stays in the totals,
- on the process backend a SIGKILLed worker never makes a total go down
  and never counts twice after the respawn.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DNND, ClusterConfig, CommOptConfig, DNNDConfig, NNDescentConfig
from repro.datasets.synthetic import gaussian_mixture
from repro.runtime.faults import FaultPlan
from repro.runtime.instrumentation import Delta
from repro.runtime.partition import make_partitioner
from repro.runtime.tracing import attach_tracer

SHAPES = [(1, 2), (2, 2), (3, 2)]


def _build(n, k, shape, partitioner, optimized, crash, tmp_path=None,
           backend=None, iterations=3, watch=None):
    """``backend=None`` is the ambient one (``REPRO_BACKEND``): the
    invariants are backend-free, and CI's process sweep runs them on
    worker processes."""
    data = gaussian_mixture(n, 6, n_clusters=3, cluster_std=0.2, seed=n + k)
    cluster = ClusterConfig(*shape)
    cfg = DNNDConfig(
        nnd=NNDescentConfig(k=k, seed=5, delta=0.0, max_iters=iterations),
        comm_opts=(CommOptConfig.optimized() if optimized
                   else CommOptConfig.unoptimized()),
        batch_size=1 << 9, backend=backend, workers=2)
    plan = FaultPlan(crashes=((crash, 1),)) if crash is not None else None
    dnnd = DNND(data, cfg, cluster=cluster, fault_plan=plan,
                partitioner=make_partitioner(partitioner, n,
                                             cluster.world_size,
                                             data=data, seed=5))
    if watch is not None:
        watch(dnnd)
    try:
        kwargs = {}
        if crash is not None:
            kwargs = {"checkpoint_path": tmp_path / "ck",
                      "checkpoint_every": 1}
        return dnnd, dnnd.build(**kwargs)
    finally:
        dnnd.close()


def _check_log_invariants(dnnd, result):
    log = attach_tracer(dnnd.world)
    counters = result.metrics.snapshot()["counters"]
    total = Delta.total(record.delta for record in log.records)

    # The deltas sum to the totals and to the mirrored counters.
    assert total.messages.snapshot() == result.message_stats.snapshot()
    assert total.to_json() == log.totals.to_json()
    for t, stats in result.message_stats.by_type.items():
        assert sum(log.message_timeline(t)) == stats.count
        assert counters[f"messages.sent.{t}"] == stats.count
        assert counters[f"messages.bytes.{t}"] == stats.bytes
    assert counters["distance.evals"] == total.tally("distance.evals")
    assert counters["distance.evals"] == result.distance_evals
    assert counters["heap.updates"] == total.tally("heap.updates")
    assert counters["executor.tasks"] == total.counts["executor.tasks"]
    assert result.fault_stats.snapshot() == {
        event: total.counts["faults." + event]
        for event in result.fault_stats.snapshot()}

    # One record per barrier — plus, per failure survived, the one that
    # closes the abandoned try's window — in order.
    assert len(log.records) == counters["comm.barriers"] + log.attempt
    assert counters["recovery.attempts"] == log.attempt
    assert [r.index for r in log.records] == list(range(len(log.records)))
    times = [r.time for r in log.records]
    assert times == sorted(times) and times[0] > 0.0

    # The phase view partitions the totals.
    by_phase = Delta()
    for stats in result.phase_stats.values():
        by_phase.messages.add(stats)
    assert (by_phase.messages.snapshot()
            == result.message_stats.snapshot())

    # Group-by-iteration.
    groups = log.iterations()
    assert list(groups) == list(range(result.iterations))
    assert result.per_iteration_messages == log.per_iteration_messages()
    for it, records in groups.items():
        sent = Delta.total(record.delta for record in records)
        assert {t: v for t, v in result.per_iteration_messages[it].items()
                if v != (0, 0)} == sent.messages.snapshot()
        assert (sum(log.iteration_tally(it, "updates").values())
                == sent.tally("updates") == result.update_counts[it])
    return log


@settings(max_examples=12, deadline=None, derandomize=True)
@given(n=st.integers(40, 90), k=st.integers(3, 6),
       shape=st.sampled_from(SHAPES),
       partitioner=st.sampled_from(["hash", "rptree"]),
       optimized=st.booleans())
def test_views_agree_with_the_log(n, k, shape, partitioner, optimized):
    dnnd, result = _build(n, k, shape, partitioner, optimized, crash=None)
    log = _check_log_invariants(dnnd, result)
    assert {r.attempt for r in log.records} == {0}


@settings(max_examples=8, deadline=None, derandomize=True)
@given(n=st.integers(40, 90), k=st.integers(3, 6),
       shape=st.sampled_from(SHAPES[1:]),
       partitioner=st.sampled_from(["hash", "rptree"]),
       optimized=st.booleans(), crash=st.integers(1, 2))
def test_recovery_keeps_rolled_back_iterations_out_of_the_view(
        tmp_path_factory, n, k, shape, partitioner, optimized, crash):
    tmp_path = tmp_path_factory.mktemp("log")
    dnnd, result = _build(n, k, shape, partitioner, optimized, crash,
                          tmp_path)
    log = _check_log_invariants(dnnd, result)
    assert result.recoveries == 1 and log.attempt == 1
    # Exactly as without the crash, iteration by iteration ...
    _, clean = _build(n, k, shape, partitioner, optimized, crash=None)
    if not optimized:
        assert result.per_iteration_messages == clean.per_iteration_messages
        if dnnd.cluster.ledger.enabled:
            # Accepted pushes depend on how deliveries were cut into
            # runs: reproducible on sim, scheduling on worker processes.
            assert result.update_counts == clean.update_counts
    # ... while what the abandoned try sent stays in the totals.
    abandoned = [r for r in log.records
                 if r.iteration == crash and r.attempt == 0]
    wasted = sum(r.delta.messages.total_count() for r in abandoned)
    assert (result.message_stats.total_count()
            == sum(sum(c for c, _b in per.values())
                   for per in result.per_iteration_messages)
            + sum(r.delta.messages.total_count() for r in log.records
                  if r.iteration is None) + wasted)
    if not optimized:
        assert (result.message_stats.total_count()
                == clean.message_stats.total_count() + wasted)


@pytest.mark.parametrize("optimized", [False, True])
def test_killed_worker_neither_erases_nor_repeats_history(tmp_path,
                                                          optimized):
    """Process backend, crash plan: the worker owning rank 1 is
    SIGKILLed at iteration 1 and respawned with zeroed counters."""
    seen = []

    def watch(dnnd):
        # Sample the running totals at every barrier the driver takes.
        barrier = dnnd.world.barrier

        def sampling():
            try:
                return barrier()
            finally:
                totals = dnnd.world.log.totals
                seen.append((totals.messages.total_count(),
                             totals.tally("distance.evals"),
                             totals.tally("heap.updates")))
        dnnd.world.barrier = sampling

    dnnd, result = _build(80, 5, (2, 2), "hash", optimized, crash=1,
                          tmp_path=tmp_path, backend="process", watch=watch)
    log = _check_log_invariants(dnnd, result)
    assert result.recoveries == 1 and result.fault_stats.crashes == 1
    assert len(seen) == len(log.records) - 1    # the kill closed a window
    for earlier, later in zip(seen, seen[1:]):
        assert all(a <= b for a, b in zip(earlier, later))
    if not optimized:
        # Nothing counted twice: the replayed build matches sim's, and
        # the totals exceed a crash-free build's by what the abandoned
        # try got to ship before it died.
        _, sim = _build(80, 5, (2, 2), "hash", optimized, crash=1,
                        tmp_path=tmp_path / "sim", backend="sim")
        assert result.per_iteration_messages == sim.per_iteration_messages
        np.testing.assert_array_equal(result.graph.ids, sim.graph.ids)
        _, clean = _build(80, 5, (2, 2), "hash", optimized, crash=None,
                          backend="sim")
        wasted = sum(r.delta.tally("distance.evals") for r in log.records
                     if r.iteration == 1 and r.attempt == 0)
        assert (result.distance_evals
                == clean.distance_evals + wasted)
