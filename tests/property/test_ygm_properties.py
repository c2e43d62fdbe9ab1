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
    assert world.handler_invocations == expected
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
