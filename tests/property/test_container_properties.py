"""Distributed-container invariants over random workloads."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ClusterConfig
from repro.runtime.containers import DistributedBag, DistributedCounter, DistributedMap
from repro.runtime.faults import FaultPlan, make_injector
from repro.runtime.transports import SimCluster
from repro.runtime.ygm import YGMWorld


def make_world(p: int) -> YGMWorld:
    return YGMWorld(SimCluster(ClusterConfig(nodes=p, procs_per_node=1)))


@given(p=st.integers(1, 6),
       items=st.lists(st.integers(-100, 100), max_size=80))
@settings(max_examples=50, deadline=None)
def test_bag_multiset_semantics(p, items):
    world = make_world(p)
    bag = DistributedBag(world, "b")
    for i, item in enumerate(items):
        bag.async_insert(i % p, item)
    world.barrier()
    assert Counter(bag.gather()) == Counter(items)
    assert bag.size() == len(items)


@given(p=st.integers(1, 6),
       adds=st.lists(st.tuples(st.integers(0, 10), st.integers(1, 5)),
                     max_size=60))
@settings(max_examples=50, deadline=None)
def test_counter_totals_match_model(p, adds):
    world = make_world(p)
    counter = DistributedCounter(world, "c")
    model: Counter = Counter()
    for i, (key, amount) in enumerate(adds):
        counter.async_add(i % p, key, amount)
        model[key] += amount
    world.barrier()
    for key, want in model.items():
        assert counter.count_of(key) == want
    assert counter.total() == sum(model.values())
    top = counter.top_k(len(model) + 1)
    assert dict(top) == dict(model)


@given(p=st.integers(1, 6),
       writes=st.lists(st.tuples(st.integers(0, 12), st.integers(-50, 50)),
                       max_size=60))
@settings(max_examples=50, deadline=None)
def test_map_converges_to_some_written_value(p, writes):
    """Across *different* source ranks there is no global write order
    (fire-and-forget semantics, exactly like real YGM): the final value
    must be one of the values written to that key, and every written
    key must exist."""
    world = make_world(p)
    dmap = DistributedMap(world, "m")
    written = {}
    for i, (key, value) in enumerate(writes):
        dmap.async_insert(i % p, key, value)
        written.setdefault(key, set()).add(value)
    world.barrier()
    assert dmap.size() == len(written)
    for key, candidates in written.items():
        assert dmap.get(key) in candidates


@given(writes=st.lists(st.tuples(st.integers(0, 12), st.integers(-50, 50)),
                       max_size=60))
@settings(max_examples=50, deadline=None)
def test_map_single_source_is_last_writer_wins(writes):
    """From one source rank, program order is preserved end to end
    (FIFO buffers + FIFO mailboxes), so last-writer-wins holds."""
    world = make_world(4)
    dmap = DistributedMap(world, "m")
    model = {}
    for key, value in writes:
        dmap.async_insert(0, key, value)
        model[key] = value
    world.barrier()
    assert dict(dmap.items()) == model


@given(seed=st.integers(0, 2**16),
       writes=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 3),
                                 st.integers(0, 5), st.integers(-50, 50)),
                       max_size=60))
@settings(max_examples=50, deadline=None)
def test_map_last_writer_wins_across_sources_handles_and_faults(seed, writes):
    """Writes ``(handle, source rank, key, value)`` through two handles
    of one map, from every source rank, over a network that duplicates,
    reorders and delays flushed buffers (masked by reliable delivery):
    each key ends at the value of its last write in send order — the
    insert sequence is one counter per world, not one per handle."""
    cfg = ClusterConfig(nodes=2, procs_per_node=2)
    plan = FaultPlan(seed=seed, dup_rate=0.3, reorder_rate=0.5,
                     delay_rate=0.3)
    cluster = SimCluster(cfg, injector=make_injector(plan, cfg.world_size))
    world = YGMWorld(cluster, flush_threshold=3, reliable=True)
    handles = [DistributedMap(world, "m"), DistributedMap(world, "m")]
    model = {}
    for handle, src, key, value in writes:
        handles[handle].async_insert(src, key, value)
        model[key] = value
    world.barrier()
    assert dict(handles[0].items()) == model
    assert dict(handles[1].items()) == model
