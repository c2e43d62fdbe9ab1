"""YGM delivery properties over random message storms."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ClusterConfig
from repro.runtime.transports import SimCluster
from repro.runtime.ygm import YGMWorld


@st.composite
def storms(draw):
    """A random batch of (src, dest, forward_hops) messages."""
    p = draw(st.integers(1, 6))
    msgs = draw(st.lists(
        st.tuples(st.integers(0, p - 1), st.integers(0, p - 1),
                  st.integers(0, 3)),
        min_size=0, max_size=60,
    ))
    flush = draw(st.integers(1, 16))
    return p, msgs, flush


def build_world(p: int, flush: int):
    cluster = SimCluster(ClusterConfig(nodes=p, procs_per_node=1))
    world = YGMWorld(cluster, flush_threshold=flush)
    log = []

    def relay(ctx, hops, tag):
        log.append((ctx.rank, hops, tag))
        if hops > 0:
            ctx.async_call((ctx.rank + 1) % ctx.world_size, "relay",
                           hops - 1, tag)

    world.register_handler("relay", relay)
    return world, log


@given(storm=storms())
@settings(max_examples=80, deadline=None)
def test_exactly_once_delivery(storm):
    """Every message (including handler-generated forwards) runs exactly
    once: handler invocations == primary messages + total forward hops."""
    p, msgs, flush = storm
    world, log = build_world(p, flush)
    expected = 0
    for tag, (src, dest, hops) in enumerate(msgs):
        world.async_call(src, dest, "relay", hops, tag, nbytes=8)
        expected += 1 + hops
    world.barrier()
    assert world.log.counters()["executor.tasks"] == expected
    assert len(log) == expected
    assert world.cluster.all_quiescent()


@given(storm=storms())
@settings(max_examples=60, deadline=None)
def test_delivery_deterministic(storm):
    p, msgs, flush = storm
    def run():
        world, log = build_world(p, flush)
        for tag, (src, dest, hops) in enumerate(msgs):
            world.async_call(src, dest, "relay", hops, tag, nbytes=8)
        world.barrier()
        return log
    assert run() == run()


@given(storm=storms())
@settings(max_examples=60, deadline=None)
def test_flush_threshold_does_not_change_semantics(storm):
    """Buffering policy affects cost, never the set of deliveries."""
    p, msgs, _ = storm
    def deliveries(flush):
        world, log = build_world(p, flush)
        for tag, (src, dest, hops) in enumerate(msgs):
            world.async_call(src, dest, "relay", hops, tag, nbytes=8)
        world.barrier()
        return sorted(log)
    assert deliveries(1) == deliveries(64)


@given(storm=storms())
@settings(max_examples=60, deadline=None)
def test_stats_count_remote_messages_only(storm):
    p, msgs, flush = storm
    world, _ = build_world(p, flush)
    remote = 0
    for tag, (src, dest, hops) in enumerate(msgs):
        world.async_call(src, dest, "relay", hops, tag, nbytes=8,
                         msg_type="m")
        if src != dest:
            remote += 1
    # Before the barrier, only primary sends are recorded.
    assert world.stats.get("m").count == remote


# -- the column store's accounting -------------------------------------------

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from repro.runtime.faults import FaultPlan, make_injector  # noqa: E402
from repro.runtime.netmodel import NetworkModel  # noqa: E402


@st.composite
def run_storms(draw):
    """Random runs on a 2-node cluster: per run a handler (two handlers
    share every pair), a source rank or a source column, destinations
    (self-sends included), a message type and a uniform or ragged size,
    under thresholds small enough to trip by count and by bytes in the
    middle of a run."""
    nodes, procs = draw(st.sampled_from([(1, 2), (2, 2), (2, 3)]))
    ws = nodes * procs
    # A few destinations (and sizes that divide the byte threshold)
    # make a pair flush several times within one run.
    ranks = st.sampled_from(draw(st.lists(st.integers(0, ws - 1),
                                          min_size=1, max_size=3)))
    unit = draw(st.integers(1, 16))
    sizes = st.integers(0, 64) | st.integers(0, 4).map(lambda m: m * unit)
    runs = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, 60))
        dests = draw(st.lists(ranks, min_size=n, max_size=n))
        if draw(st.booleans()):
            src = draw(st.integers(0, ws - 1))
        else:
            src = draw(st.lists(st.integers(0, ws - 1), min_size=n,
                                max_size=n))
        if draw(st.booleans()):
            nbytes = draw(sizes)
        else:
            nbytes = draw(st.lists(sizes, min_size=n, max_size=n))
        runs.append((draw(st.sampled_from(["a", "b"])), src, dests, nbytes,
                     draw(st.sampled_from(["t1", "t2"]))))
    flush = draw(st.integers(1, 12))
    flush_bytes = draw(st.integers(1, 200)
                       | st.integers(1, 12).map(lambda m: m * unit))
    return (nodes, procs), runs, flush, flush_bytes


def _accounting_world(shape, flush, flush_bytes, plan=None):
    config = ClusterConfig(*shape)
    world = YGMWorld(SimCluster(config, net=NetworkModel(),
                                injector=make_injector(plan,
                                                       config.world_size)),
                     flush_threshold=flush, flush_threshold_bytes=flush_bytes)
    got = []
    world.register_batch_handler(
        "a", lambda w, dest, x, y: got.append(
            ("a", dest.tolist(), x.tolist(), y.tolist())))
    world.register_batch_handler(
        "b", lambda w, dest, x: got.append(("b", dest.tolist(), x.tolist())))
    return world, got


def _observed(world, got):
    """What the accounting shows, and every row delivered (as a sorted
    list: rows arrive in emission order, which the reference changes)."""
    counters = world.log.counters()
    rows = sorted((handler, *row) for handler, *columns in got
                  for row in zip(*columns))
    return (world.stats.snapshot(), counters["comm.flushes"],
            counters["comm.local_deliveries"], counters["executor.tasks"],
            list(world.cluster.ledger.clocks), rows)


#: Envelope faults on ids: every draw but the reorder (whose draw
#: depends on how many runs share an envelope) is the same for a run
#: and for its loop of single sends.
FAULTS = FaultPlan(seed=11, drop_rate=0.2, dup_rate=0.3, delay_rate=0.2,
                   stall_rate=0.3)


@pytest.mark.parametrize("plan", [None, FAULTS], ids=["bare", "faulty"])
@given(storm=run_storms())
@settings(max_examples=100, deadline=None)
def test_column_store_accounting_is_a_loop_of_async_call(plan, storm):
    """``emit_run`` keeps its runs whole and counts flushes in arrays;
    a loop of single-message ``async_call``\\ s over each run's rows,
    taken pair by pair (``(src, dest)`` ascending, emission order within
    a pair: the order a run's flushes are charged in), is the reference:
    the same flushes, per-type and off-node message and byte counts,
    local deliveries and ledger clocks (compared exactly, before and
    after the barrier), and the same rows delivered to every rank — with
    envelopes dropped, duplicated, delayed and senders stalled, too."""
    shape, runs, flush, flush_bytes = storm
    looped, got_l = _accounting_world(shape, flush, flush_bytes, plan)
    fused, got_f = _accounting_world(shape, flush, flush_bytes, plan)
    for handler, src, dests, nbytes, msg_type in runs:
        n = len(dests)
        x = np.arange(n, dtype=np.int64) * 7
        y = np.arange(n) / 4.0
        columns = (x, y) if handler == "a" else (x,)
        srcs = src if isinstance(src, list) else [src] * n
        sizes = nbytes if isinstance(nbytes, list) else [nbytes] * n
        ws = looped.world_size
        pairs = np.array(srcs) * ws + np.array(dests)
        for i in np.argsort(pairs, kind="stable").tolist():
            looped.async_call(srcs[i], dests[i], handler,
                              *(col[i] for col in columns),
                              nbytes=sizes[i], msg_type=msg_type)
        fused.emit_run(np.array(src), np.array(dests), handler, columns,
                       np.array(nbytes) if isinstance(nbytes, list)
                       else nbytes, msg_type)
    before = _observed(looped, got_l)
    assert _observed(fused, got_f) == before
    looped.barrier()
    fused.barrier()
    after = _observed(looped, got_l)
    assert _observed(fused, got_f) == after
    assert fused.cluster.ledger.elapsed == looped.cluster.ledger.elapsed
    assert fused.log.counters() == looped.log.counters()


@pytest.mark.parametrize("plan", [None, FaultPlan(seed=5, drop_rate=0.5)],
                         ids=["bare", "dropping"])
@given(storm=run_storms())
@settings(max_examples=60, deadline=None)
def test_flushes_and_clocks_match_a_per_message_buffer_model(plan, storm):
    """The flush arithmetic against the buffer it stands for: one
    ``(src, dest)`` buffer per pair, filled a message at a time, shipped
    when it reaches the count threshold or the byte threshold, each
    flush charging its sender ``flush_cost + message_cost(bytes)`` in
    order (a run's rows pair by pair); the barrier flushes what is
    left, pair by pair.  On a dropping network a row travels with the
    envelope of that buffer: what arrives is whole envelopes, and as
    many are missing as were dropped."""
    shape, runs, flush, flush_bytes = storm
    world, got = _accounting_world(shape, flush, flush_bytes, plan)
    net, ws = world.cluster.net, world.world_size
    count = {}
    held = {}
    rows = {}
    envelopes = []
    clocks = [0.0] * ws
    flushes = 0

    def ship(s, d):
        nonlocal flushes
        off = world.cluster.is_offnode(s, d)
        clocks[s] += net.flush_cost(off) + net.message_cost(held[s, d], off)
        envelopes.append(frozenset(rows.pop((s, d))))
        count[s, d] = held[s, d] = 0
        flushes += 1

    sent = 0
    local = set()
    for handler, src, dests, nbytes, msg_type in runs:
        n = len(dests)
        srcs = src if isinstance(src, list) else [src] * n
        sizes = nbytes if isinstance(nbytes, list) else [nbytes] * n
        ids = np.arange(sent, sent + n, dtype=np.int64)
        sent += n
        for i in np.argsort(np.array(srcs) * ws + np.array(dests),
                            kind="stable").tolist():
            s, d, nb = srcs[i], dests[i], sizes[i]
            if s == d:
                local.add(int(ids[i]))
                continue
            count[s, d] = count.get((s, d), 0) + 1
            held[s, d] = held.get((s, d), 0) + nb
            rows.setdefault((s, d), []).append(int(ids[i]))
            if count[s, d] >= flush or held[s, d] >= flush_bytes:
                ship(s, d)
        columns = (ids, np.zeros(n)) if handler == "a" else (ids,)
        world.emit_run(np.array(src), np.array(dests), handler, columns,
                       np.array(nbytes) if isinstance(nbytes, list)
                       else nbytes, msg_type)
    assert world.log.counters()["comm.flushes"] == flushes
    assert world.cluster.ledger.clocks == clocks
    for s, d in sorted(count):
        if count[s, d]:
            ship(s, d)
    world.barrier()
    counters = world.log.counters()
    assert counters["comm.flushes"] == flushes
    arrived = {x for _handler, _dest, ids, *_rest in got for x in ids}
    assert local <= arrived
    whole = [env <= arrived for env in envelopes]
    assert all(whole[i] or not (env & arrived)
               for i, env in enumerate(envelopes))
    assert whole.count(False) == counters.get("faults.dropped", 0)
