"""The columnar rank program — what must not depend on how messages are
batched.

There is one handler per message type and it takes a whole run of
messages as columns, so the contract that used to be "batch ≡ scalar
engine" is now a property of the handlers themselves:

- the same multiset of ``feature_opt`` / ``distance_reply`` /
  ``init_resp`` messages delivered as one batch, as one-row batches, or
  permuted leaves identical shard matrices, each row a valid neighbor
  row (unique ids, no self-loop, ``dists[:, 0]`` the row maximum),
- a build whose flushed buffers travel as bare ``bflush`` envelopes is
  bit-identical to one whose envelopes are framed, acked and deduplicated
  (reliable delivery), across cluster shapes and comm-opt modes, and on
  the process backend's workers; under a faulty network with reliable
  delivery the rows match a fault-free build's,
- a host evaluates a run's distances in chunks under a byte budget, and
  where the chunks cut does not show: a build under any budget is
  bit-identical to one under the default, counters included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DNND, ClusterConfig, CommOptConfig, DNNDConfig, NNDescentConfig
from repro.core import dnnd_phases
from repro.core.dnnd_phases import block_of, build_shards, register_dnnd_handlers
from repro.core.heap import EMPTY, check_rows
from repro.runtime.faults import FaultPlan
from repro.runtime.partition import BlockPartitioner
from repro.runtime.transports import SimCluster
from repro.runtime.ygm import YGMWorld

N_IDS = 12
#: 1-D features with repeats: many exact distance ties, zeros included.
FEATURES = (np.arange(N_IDS) // 2).astype(np.float64).reshape(-1, 1)


def _theta(a, b):
    return float((FEATURES[a, 0] - FEATURES[b, 0]) ** 2)


def _world(k):
    world = YGMWorld(SimCluster(ClusterConfig(nodes=2, procs_per_node=1)))
    register_dnnd_handlers(world)
    cfg = DNNDConfig(nnd=NNDescentConfig(k=k, metric="sqeuclidean"))
    build_shards(world.ranks, BlockPartitioner(N_IDS, 2), FEATURES, cfg)
    return world


def _columns(handler, pairs, bounds):
    """Message columns for ``pairs`` of (row vertex, candidate): the
    distance a message carries is a function of its pair, the bound a
    function of the vertex it speaks for — as in a real build."""
    row, cand = (np.array(col, dtype=np.int64) for col in zip(*pairs))
    if handler == "feature_opt":
        return row, cand, np.array([bounds[c] for c in cand.tolist()])
    return row, cand, np.array([_theta(a, b) for a, b in pairs])


def _deliver(handler, pairs, bounds, k, mode):
    world = _world(k)
    owner = block_of(world).owner_of
    columns = _columns(handler, pairs, bounds)
    if mode == "rows":
        for dest, *args in zip(owner[columns[0]].tolist(),
                               *(c.tolist() for c in columns)):
            world.async_call(0, dest, handler, *args)
            world.barrier()
    else:
        world.emit_run(0, owner[columns[0]], handler, columns, 8)
        world.barrier()
    block = block_of(world)
    return [(block.ids[lo:hi].copy(), block.dists[lo:hi].copy(),
             block.flags[lo:hi].copy())
            for _, lo, hi in block.slices()], world


pair_lists = st.lists(
    st.tuples(st.integers(0, N_IDS - 1), st.integers(0, N_IDS - 1))
    .filter(lambda p: p[0] != p[1]), min_size=1, max_size=60)


@pytest.mark.parametrize("handler",
                         ["feature_opt", "distance_reply", "init_resp"])
@given(pairs=pair_lists, k=st.integers(1, 4), data=st.data())
@settings(max_examples=40, deadline=None)
def test_columnar_handlers_ignore_order_and_batch_split(handler, pairs, k,
                                                       data):
    bounds = data.draw(st.lists(st.sampled_from([np.inf, 0.0, 1.0, 4.0, 9.0]),
                                min_size=N_IDS, max_size=N_IDS))
    permuted = data.draw(st.permutations(pairs))
    whole, world = _deliver(handler, pairs, bounds, k, "batch")
    for other in (_deliver(handler, pairs, bounds, k, "rows")[0],
                  _deliver(handler, permuted, bounds, k, "batch")[0]):
        for got, want in zip(other, whole):
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()
    offered = {}
    for row, cand in pairs:
        offered.setdefault(row, set()).add(cand)
        if handler == "feature_opt" and _theta(row, cand) < bounds[cand]:
            offered.setdefault(cand, set()).add(row)  # the Type 3 reply
    block = block_of(world)
    for (_, lo, hi), (ids, dists, flags) in zip(block.slices(), whole):
        assert check_rows(ids, dists) is None
        assert (dists[:, 0] == dists.max(axis=1)).all()
        gids = block.global_ids[lo:hi]
        assert not (ids == gids[:, None]).any()
        assert (flags == (ids != EMPTY)).all()
        for gid, row_ids, row_dists in zip(gids.tolist(), ids, dists):
            want = sorted((_theta(gid, c), c) for c in offered.get(gid, ()))[:k]
            got = sorted((d, c) for c, d in zip(row_ids.tolist(),
                                                row_dists.tolist())
                         if c != EMPTY)
            assert got == want


# ---------------------------------------------------------------------------
# Whole builds: bare envelopes vs reliably framed ones
# ---------------------------------------------------------------------------

N, DIM, K = 150, 12, 6


def _run(nodes=2, ppn=2, opts=None, plan=None, reliable=False,
         backend="sim", workers=0, pinned=False):
    rng = np.random.default_rng(7)
    data = rng.standard_normal((N, DIM))
    nnd = (NNDescentConfig(k=K, seed=3, max_iters=4, delta=0.0) if pinned
           else NNDescentConfig(k=K, seed=3))
    cfg = DNNDConfig(nnd=nnd, comm_opts=opts or CommOptConfig.optimized(),
                     batch_size=1 << 10, backend=backend, workers=workers)
    kwargs = {"fault_plan": plan, "reliable": reliable}
    if backend == "process":
        # The sanitizer is a sim tool; CI's REPRO_SANITIZE sweep must
        # not veto the explicitly requested backend.
        kwargs = {"sanitize": False}
    dnnd = DNND(data, cfg,
                cluster=ClusterConfig(nodes=nodes, procs_per_node=ppn),
                **kwargs)
    try:
        res = dnnd.build()
        adjacency = dnnd.optimize().to_arrays()
    finally:
        dnnd.close()
    return res, adjacency


def _assert_identical(left, right, counters=True):
    res_l, adj_l = left
    res_r, adj_r = right
    # Graph bits: ids exactly, distances byte-for-byte.
    assert np.array_equal(res_l.graph.ids, res_r.graph.ids)
    assert res_l.graph.dists.tobytes() == res_r.graph.dists.tobytes()
    assert res_l.iterations == res_r.iterations
    assert res_l.distance_evals == res_r.distance_evals
    if counters:
        assert list(res_l.update_counts) == list(res_r.update_counts)
        # The application's own messages, type for type (a reliable run
        # adds "ack"/"retransmit" traffic next to them).
        snap_l, snap_r = (r.message_stats.snapshot() for r in (res_l, res_r))
        for msg_type in ("init_req", "init_resp", "reverse", "type1",
                         "type2", "type2+", "type3", "opt_rev"):
            assert snap_l.get(msg_type) == snap_r.get(msg_type), msg_type
        # One schedule: the driver takes every barrier, paced by what
        # the ranks staged, whoever hosts them.
        assert (res_l.metrics.counter("comm.barriers")
                == res_r.metrics.counter("comm.barriers") > 0)
    # Optimized adjacency (Section 4.5 output), array for array.
    assert set(adj_l) == set(adj_r)
    for key in adj_l:
        a, b = adj_l[key], adj_r[key]
        if hasattr(a, "shape"):
            assert np.array_equal(a, b), key
        else:
            assert a == b, key


@given(rows=st.integers(1, 300))
@settings(max_examples=6, deadline=None)
def test_kernel_chunks_do_not_show_in_a_build(rows):
    """``_EVAL_BYTES`` only sizes the kernel calls of a host's run: any
    budget — one row pair per call up to the whole run — builds the same
    graph with the same counters and per-rank tallies."""
    default = _run(pinned=True)
    budget = rows * 2 * DIM * np.dtype(np.float64).itemsize
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dnnd_phases, "_EVAL_BYTES", budget)
        chunked = _run(pinned=True)
    _assert_identical(default, chunked)
    assert ({r: dict(t) for r, t in default[0].metrics.log.totals.ranks.items()}
            == {r: dict(t) for r, t in chunked[0].metrics.log.totals.ranks.items()})


@pytest.mark.parametrize("nodes,ppn", [(1, 2), (2, 2), (3, 2)])
def test_batched_bit_identical_across_cluster_shapes(nodes, ppn):
    # Same shape, same schedule on both sides (default pattern, no
    # faults) — identity here is between delivery modes, not across
    # shapes: reliable=True frames every flushed buffer with a sequence
    # number and acks it; the receiver unwraps it into the same runs.
    _assert_identical(_run(nodes=nodes, ppn=ppn),
                      _run(nodes=nodes, ppn=ppn, reliable=True))


def test_batched_bit_identical_unoptimized_comm():
    opts = CommOptConfig.unoptimized()
    _assert_identical(_run(opts=opts), _run(opts=opts, reliable=True))


@pytest.mark.parametrize("opts", [CommOptConfig.optimized(),
                                  CommOptConfig.unoptimized()],
                         ids=["optimized", "unoptimized"])
def test_batched_bit_identical_on_process_backend(opts):
    # A worker process holds the same rank host over pickled chunk
    # envelopes, and a single worker delivers in sim order (DESIGN
    # section 11) — one schedule on both sides, so even the default
    # pattern must agree bit for bit: graphs, per-type message counts
    # and the barrier count.
    _assert_identical(_run(opts=opts),
                      _run(opts=opts, backend="process", workers=1))


def test_batched_bit_identical_under_faults_with_reliable_delivery():
    # Envelopes are dropped, duplicated, reordered and delayed whole;
    # reliable delivery makes their effect once each.  Under the
    # order-invariant envelope (unoptimized pattern, pinned iterations)
    # the rows then hold the same k smallest (dist, id) of the same
    # offers as a fault-free build — ties included.  Update counts are
    # per run of messages, and a faulty network cuts runs differently.
    opts = CommOptConfig.unoptimized()
    plan = FaultPlan(seed=11, drop_rate=0.02, dup_rate=0.02,
                     reorder_rate=0.05, delay_rate=0.03)
    clean = _run(opts=opts, pinned=True)
    faulty = _run(opts=opts, pinned=True, plan=plan, reliable=True)
    stats = faulty[0].fault_stats
    assert stats.dropped and stats.duplicated and stats.reordered_flushes
    _assert_identical(clean, faulty, counters=False)
