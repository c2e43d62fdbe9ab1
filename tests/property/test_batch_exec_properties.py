"""Batch execution engine — bit-identity with the scalar path.

The whole contract of ``DNNDConfig.batch_exec`` (coalesced YGM
delivery, rowwise distance kernels, bulk heap updates) is that it is a
pure implementation optimization: every observable output — the graph
arrays, simulated seconds, per-type message statistics, update counters,
distance-eval counts, and the optimized adjacency — must be *bitwise*
equal to the scalar engine's.  These tests pin that across cluster
shapes, both comm-opt modes, and a fault-injected reliable run.
"""

import numpy as np
import pytest

from repro import DNND, ClusterConfig, CommOptConfig, DNNDConfig, NNDescentConfig
from repro.runtime.faults import FaultPlan

N, DIM, K = 150, 12, 6


def _run(batch_exec, nodes=2, ppn=2, opts=None, plan=None, reliable=False,
         backend="sim", workers=0):
    rng = np.random.default_rng(7)
    data = rng.standard_normal((N, DIM))
    cfg = DNNDConfig(nnd=NNDescentConfig(k=K, seed=3),
                     comm_opts=opts or CommOptConfig.optimized(),
                     batch_size=1 << 10, batch_exec=batch_exec,
                     backend=backend, workers=workers)
    kwargs = {}
    if plan is not None:
        kwargs = {"fault_plan": plan, "reliable": reliable}
    if backend == "process":
        # The sanitizers are sim/thread tools; CI's REPRO_SANITIZE sweep
        # must not veto the explicitly requested backend.
        kwargs["sanitize"] = False
    dnnd = DNND(data, cfg,
                cluster=ClusterConfig(nodes=nodes, procs_per_node=ppn),
                **kwargs)
    try:
        res = dnnd.build()
        adjacency = dnnd.optimize().to_arrays()
    finally:
        dnnd.close()
    return res, adjacency


def _assert_identical(scalar, batched):
    res_s, adj_s = scalar
    res_b, adj_b = batched
    # Graph bits: ids exactly, distances byte-for-byte.
    assert np.array_equal(res_s.graph.ids, res_b.graph.ids)
    assert res_s.graph.dists.tobytes() == res_b.graph.dists.tobytes()
    # Cost model and counters.
    assert res_s.sim_seconds == res_b.sim_seconds
    assert res_s.iterations == res_b.iterations
    assert res_s.distance_evals == res_b.distance_evals
    assert list(res_s.update_counts) == list(res_b.update_counts)
    assert res_s.message_stats.snapshot() == res_b.message_stats.snapshot()
    # Optimized adjacency (Section 4.5 output), array for array.
    assert set(adj_s) == set(adj_b)
    for key in adj_s:
        a, b = adj_s[key], adj_b[key]
        if hasattr(a, "shape"):
            assert np.array_equal(a, b), key
        else:
            assert a == b, key


@pytest.mark.parametrize("nodes,ppn", [(1, 2), (2, 2), (3, 2)])
def test_batched_bit_identical_across_cluster_shapes(nodes, ppn):
    _assert_identical(_run(False, nodes=nodes, ppn=ppn),
                      _run(True, nodes=nodes, ppn=ppn))


def test_batched_bit_identical_unoptimized_comm():
    opts = CommOptConfig.unoptimized()
    _assert_identical(_run(False, opts=opts), _run(True, opts=opts))


@pytest.mark.parametrize("opts", [CommOptConfig.optimized(),
                                  CommOptConfig.unoptimized()],
                         ids=["optimized", "unoptimized"])
def test_batched_bit_identical_on_process_backend(opts):
    # The tests above are the sim legs; this is the scalar engine off
    # the sim schedule.  Worker processes run the same sections and
    # handlers, and a single worker delivers in sim order (DESIGN
    # section 15), so scalar and batched must agree there bit for bit.
    _assert_identical(_run(False, opts=opts, backend="process", workers=1),
                      _run(True, opts=opts, backend="process", workers=1))


def test_batched_bit_identical_under_faults_with_reliable_delivery():
    # Coalescing must compose with the reliable seq/ack protocol: the
    # fault injector sees the same per-message stream either way.
    plan = FaultPlan(seed=11, drop_rate=0.02, dup_rate=0.02,
                     reorder_rate=0.05, delay_rate=0.03)
    scalar = _run(False, plan=plan, reliable=True)
    batched = _run(True, plan=plan, reliable=True)
    _assert_identical(scalar, batched)
    assert scalar[0].fault_stats.snapshot() == batched[0].fault_stats.snapshot()
