"""Fault-tolerance properties over random fault plans and message storms.

The contract under test: with reliable delivery on, *any* seeded plan of
drop/duplicate/delay/reorder faults yields exactly-once handler effects
and a terminating barrier — the injected network is an adversary the
recovery layer must fully mask.  Drop rates are capped below 1.0 so the
default retry budget (32 attempts) makes residual failure probability
negligible (< 1e-12 per flushed buffer at rate 0.4).  The fault unit is
the flushed buffer: one decision drops or duplicates every message it
holds.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ClusterConfig
from repro.runtime.faults import FaultInjector, FaultPlan, make_injector
from repro.runtime.transports import SimCluster
from repro.runtime.ygm import YGMWorld


@st.composite
def fault_plans(draw):
    return FaultPlan(
        seed=draw(st.integers(0, 2**31 - 1)),
        drop_rate=draw(st.floats(0.0, 0.4)),
        dup_rate=draw(st.floats(0.0, 0.5)),
        reorder_rate=draw(st.floats(0.0, 1.0)),
        delay_rate=draw(st.floats(0.0, 0.5)),
        max_delay_ticks=draw(st.integers(1, 4)),
    )


@st.composite
def faulty_storms(draw):
    p = draw(st.integers(2, 5))
    msgs = draw(st.lists(
        st.tuples(st.integers(0, p - 1), st.integers(0, p - 1),
                  st.integers(0, 2)),
        min_size=1, max_size=40,
    ))
    flush = draw(st.integers(1, 16))
    plan = draw(fault_plans())
    return p, msgs, flush, plan


def build_world(p, flush, plan, reliable):
    cfg = ClusterConfig(nodes=p, procs_per_node=1)
    cluster = SimCluster(cfg, injector=make_injector(plan, cfg.world_size))
    world = YGMWorld(cluster, flush_threshold=flush, reliable=reliable,
                     retry_timeout=1)
    log = []

    def relay(ctx, hops, tag):
        log.append((ctx.rank, hops, tag))
        if hops > 0:
            ctx.async_call((ctx.rank + 1) % ctx.world_size, "relay",
                           hops - 1, tag)

    world.register_handler("relay", relay)
    return world, log


def run_storm(p, msgs, flush, plan, reliable):
    world, log = build_world(p, flush, plan, reliable)
    expected = 0
    for tag, (src, dest, hops) in enumerate(msgs):
        world.async_call(src, dest, "relay", hops, tag, nbytes=8)
        expected += 1 + hops
    world.barrier()
    return world, log, expected


@given(storm=faulty_storms())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_reliable_mode_is_exactly_once_under_any_plan(storm):
    """Drop/dup/delay/reorder faults never change handler effects:
    every message (including handler-generated forwards) runs exactly
    once and the barrier terminates quiescent."""
    p, msgs, flush, plan = storm
    world, log, expected = run_storm(p, msgs, flush, plan, reliable=True)
    assert len(log) == expected
    assert world.log.counters()["executor.tasks"] == expected
    assert world.cluster.all_quiescent()
    assert not world._reliable_pending()


@given(storm=faulty_storms())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_reliable_mode_matches_fault_free_effects(storm):
    """The multiset of handler effects equals the fault-free run's —
    reliability makes the adversarial network indistinguishable."""
    p, msgs, flush, plan = storm
    _w1, faulty_log, _n = run_storm(p, msgs, flush, plan, reliable=True)
    _w2, clean_log, _n2 = run_storm(p, msgs, flush, None, reliable=False)
    assert sorted(faulty_log) == sorted(clean_log)


@given(storm=faulty_storms())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_faulty_run_replays_identically(storm):
    """Same plan + same program => bit-identical delivery log and fault
    counters (the injector draws from a keyed stream in call order)."""
    p, msgs, flush, plan = storm
    w1, log1, _ = run_storm(p, msgs, flush, plan, reliable=True)
    w2, log2, _ = run_storm(p, msgs, flush, plan, reliable=True)
    assert log1 == log2
    assert w1.fault_stats.snapshot() == w2.fault_stats.snapshot()


@given(plan=fault_plans(), n=st.integers(1, 512))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_plan_signature_replays_byte_identically(plan, n):
    clone = FaultPlan(
        seed=plan.seed, drop_rate=plan.drop_rate, dup_rate=plan.dup_rate,
        reorder_rate=plan.reorder_rate, delay_rate=plan.delay_rate,
        max_delay_ticks=plan.max_delay_ticks)
    assert plan.signature(n) == clone.signature(n)
    assert plan.signature(n) == FaultPlan(seed=plan.seed).signature(n)


@given(plan=fault_plans())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_injector_decision_stream_deterministic(plan):
    a, b = FaultInjector(plan, 4), FaultInjector(plan, 4)
    for _ in range(100):
        assert a.on_deliver(0, 1) == b.on_deliver(0, 1)
        ra, rb = a.maybe_reorder(5), b.maybe_reorder(5)
        assert (ra is None) == (rb is None)
        if ra is not None:
            assert list(ra) == list(rb)
        assert a.maybe_stall() == b.maybe_stall()
    assert a.counts == b.counts


@given(storm=faulty_storms())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_unreliable_mode_still_terminates(storm):
    """Without reliability, faults may lose messages but the barrier
    must still quiesce (no hangs from delayed/duplicated traffic).  A
    duplicated buffer holds at most ``flush`` messages, each running at
    most three handlers (itself and two forwards)."""
    p, msgs, flush, plan = storm
    world, log, expected = run_storm(p, msgs, flush, plan, reliable=False)
    assert len(log) <= expected + world.fault_stats.duplicated * flush * 3
    assert world.cluster.all_quiescent()
