"""The rank program's one source of randomness: ``draw_key`` and the
``Sample(S, n)`` built on it (DESIGN.md section 10).

``Sample(S, n)`` is "the ``n`` members of ``S`` with the smallest
keys", and a key is a hash of ``(seed, purpose, iteration, vertex,
element)`` — so what is drawn depends on *which* elements a vertex
holds and on nothing else:

- exactly ``min(n, |S|)`` distinct members of ``S``, whatever the order
  of the entries and however reversed entries were cut into chunks,
- another purpose, iteration or vertex is another draw, and over many
  vertices every element is drawn about equally often,
- the candidate lists ``union`` leaves are the same, vertex by vertex,
  on every cluster shape given the same neighbor rows,
- ``init`` asks every vertex for ``K`` distinct others, and the
  degraded-repair replay asks for the same ones.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DNND, ClusterConfig, DNNDConfig, NNDescentConfig
from repro.core import dnnd_phases
from repro.core.dnnd_phases import (SAMPLE, UNION, HostBlock, block_of,
                                    build_shards, draw_key,
                                    register_dnnd_handlers, sample_smallest)
from repro.runtime.partition import HashPartitioner
from repro.runtime.transports import SimCluster
from repro.runtime.ygm import YGMWorld

#: vertex -> the distinct elements listed for it.
vertex_sets = st.dictionaries(
    st.integers(0, 40), st.sets(st.integers(0, 200), max_size=25),
    min_size=1, max_size=8)


def _columns(sets, order=None):
    vertex = np.array([v for v, s in sets.items() for _ in s], dtype=np.int64)
    element = np.array([e for s in sets.values() for e in sorted(s)],
                       dtype=np.int64)
    if order is not None:
        vertex, element = vertex[order], element[order]
    return vertex, element


def _drawn(sets, n, order=None, seed=0, purpose=SAMPLE, iteration=0):
    """vertex -> the elements ``Sample(S_v, n)`` draws."""
    vertex, element = _columns(sets, order)
    mask = sample_smallest(seed, purpose, iteration, vertex, element, n)
    out = {v: [] for v in sets}
    for v, e in zip(vertex[mask].tolist(), element[mask].tolist()):
        out[v].append(e)
    return out


@settings(max_examples=60, deadline=None)
@given(sets=vertex_sets, n=st.integers(1, 12), seed=st.integers(0, 2**31),
       data=st.data())
def test_sample_draws_n_distinct_members_whatever_the_order(sets, n, seed,
                                                            data):
    total = sum(map(len, sets.values()))
    order = np.array(data.draw(st.permutations(range(total))), dtype=np.int64)
    drawn = _drawn(sets, n, seed=seed)
    for v, members in sets.items():
        assert len(drawn[v]) == len(set(drawn[v])) == min(n, len(members))
        assert set(drawn[v]) <= members
    permuted = _drawn(sets, n, order=order, seed=seed)
    assert {v: set(d) for v, d in permuted.items()} == {
        v: set(d) for v, d in drawn.items()}


def test_other_purpose_iteration_vertex_seed_is_another_draw():
    members = set(range(64))
    base = _drawn({3: members}, 8)[3]
    assert _drawn({3: members}, 8, purpose=UNION)[3] != base
    assert _drawn({3: members}, 8, iteration=1)[3] != base
    assert _drawn({3: members}, 8, seed=1)[3] != base
    assert _drawn({4: members}, 8)[4] != base
    assert _drawn({3: members}, 8)[3] == base


@settings(max_examples=60, deadline=None)
@given(sets=vertex_sets, n=st.integers(1, 12), seed=st.integers(0, 2**31),
       data=st.data())
def test_sample_equals_a_stable_sort_reference(sets, n, seed, data):
    """``sample_smallest`` sorts without stability; it marks exactly the
    entries a stable ``lexsort`` by ``(vertex, key)`` ranks below ``n``,
    for shuffled entries."""
    total = sum(map(len, sets.values()))
    order = np.array(data.draw(st.permutations(range(total))), dtype=np.int64)
    vertex, element = _columns(sets, order)
    keys = draw_key(seed, SAMPLE, 0, vertex, element)
    by_key = np.lexsort((keys, vertex))
    grouped = vertex[by_key]
    head = np.ones(total, dtype=bool)
    head[1:] = grouped[1:] != grouped[:-1]
    rank = np.arange(total) - np.flatnonzero(head)[np.cumsum(head) - 1]
    want = np.zeros(total, dtype=bool)
    want[by_key[rank < n]] = True
    got = sample_smallest(seed, SAMPLE, 0, vertex, element, n)
    np.testing.assert_array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(calls=st.lists(st.tuples(
           st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                    max_size=30),
           st.booleans()),
           max_size=6))
def test_unchecked_equals_a_stable_unique_reference(calls):
    """``HostBlock.unchecked`` over a call sequence, with iteration
    starts (``forget``) between calls, returns what
    ``np.unique(return_index=True)`` and a set of seen pairs say: where
    each pair not checked yet first appears, in key order."""
    n = 10
    cfg = DNNDConfig(nnd=NNDescentConfig(k=2, seed=0))
    block = HostBlock.build([0], HashPartitioner(n, 1), np.zeros((n, 1)), cfg)
    seen = set()
    for pairs, forget in calls:
        rows = np.array([p[0] for p in pairs], dtype=np.int64)
        other = np.array([p[1] for p in pairs], dtype=np.int64)
        keys, first = np.unique(rows * n + other, return_index=True)
        fresh = np.array([key not in seen for key in keys.tolist()], dtype=bool)
        np.testing.assert_array_equal(block.unchecked(rows, other),
                                      first[fresh])
        seen.update(keys.tolist())
        if forget:
            block.forget()
            seen = set()


@settings(max_examples=60, deadline=None)
@given(calls=st.lists(st.tuples(
           st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)),
                    max_size=40),
           st.integers(0, 7)),
           max_size=25))
def test_checked_pairs_are_one_sorted_array_of_the_one_set(calls):
    """Many calls, an iteration start now and then: ``unchecked`` still
    answers what one set of the pairs seen since the last ``forget``
    says, and ``check_seen`` holds exactly that set, sorted."""
    n = 30
    cfg = DNNDConfig(nnd=NNDescentConfig(k=2, seed=0))
    block = HostBlock.build([0], HashPartitioner(n, 1), np.zeros((n, 1)), cfg)
    seen = set()
    for pairs, forget in calls:
        rows = np.array([p[0] for p in pairs], dtype=np.int64)
        other = np.array([p[1] for p in pairs], dtype=np.int64)
        keys, first = np.unique(rows * n + other, return_index=True)
        fresh = np.array([key not in seen for key in keys.tolist()], dtype=bool)
        np.testing.assert_array_equal(block.unchecked(rows, other),
                                      first[fresh])
        seen.update(keys.tolist())
        assert block.check_seen.tolist() == sorted(seen)
        if not forget:
            block.forget()
            seen = set()


def test_every_element_is_drawn_about_equally_often():
    n_vertices, size, n = 2000, 20, 5
    drawn = _drawn({v: set(range(size)) for v in range(n_vertices)}, n)
    share = np.bincount(np.concatenate(list(drawn.values())),
                        minlength=size) / n_vertices
    # Expected n / size = 0.25; one standard deviation is 0.0097.
    assert (np.abs(share - n / size) < 0.05).all()


def _world(n, k, world_size, seed=0):
    world = YGMWorld(SimCluster(ClusterConfig(nodes=world_size,
                                              procs_per_node=1)))
    register_dnnd_handlers(world)
    cfg = DNNDConfig(nnd=NNDescentConfig(k=k, seed=seed))
    data = np.zeros((n, 1))
    build_shards(world.ranks, HashPartitioner(n, world_size), data, cfg)
    return world


@settings(max_examples=40, deadline=None)
@given(entries=st.sets(st.tuples(st.integers(0, 11), st.integers(0, 11)),
                       max_size=100),
       cuts=st.lists(st.integers(0, 100), max_size=5), data=st.data())
def test_union_ignores_how_reversed_entries_were_chunked(entries, cuts, data):
    """``(u, v)`` reversed entries delivered as one run, or permuted and
    cut into several, leave the same candidate columns."""
    u, v = (np.array([e[i] for e in sorted(entries)], dtype=np.int64)
            for i in (0, 1))
    order = np.array(data.draw(st.permutations(range(len(u)))),
                     dtype=np.int64)
    cut_at = sorted(c for c in cuts if c <= len(u))
    states = []
    for chunks in ([(u, v)], list(zip(np.split(u[order], cut_at),
                                      np.split(v[order], cut_at)))):
        world = _world(n=12, k=3, world_size=1)
        dnnd_phases.sample(world, [0], iteration=0)
        for cu, cv in chunks:
            dnnd_phases.h_rev_new(world, np.zeros(len(cu), dtype=np.int64),
                                  cu, cv)
        dnnd_phases.union(world, [0], iteration=0)
        states.append(block_of(world).new)
    for left, right in zip(*states):
        np.testing.assert_array_equal(left, right)
    rows, values = states[0]
    # Ascending by (row, id), ids distinct within a row, at most rho*K
    # of each row's reversed entries.
    packed = rows * 12 + values
    assert (np.diff(packed) > 0).all()
    assert (np.bincount(rows, minlength=12) <= 2).all()


def test_candidates_after_union_identical_on_every_cluster_shape(small_dense):
    """Same neighbor rows in, same ``new[v]`` / ``old[v]`` out — on 1x2,
    2x2 and 4x2 clusters, whoever owns ``v`` and in whatever order its
    reversed entries arrived."""
    cfg = DNNDConfig(nnd=NNDescentConfig(k=6, seed=13), backend="sim")
    first = DNND(small_dense, cfg, cluster=ClusterConfig(2, 2))
    first._init_phase()
    first._iteration(0)
    rows = first._collect_heap_state()
    per_shape = []
    for nodes in (1, 2, 4):
        dnnd = DNND(small_dense, cfg, cluster=ClusterConfig(nodes, 2))
        dnnd._restore_heaps(*rows)
        dnnd._run_section("sample", iteration=1)
        dnnd._run_section("reverse", iteration=1)
        dnnd._pump()
        dnnd._run_section("union", iteration=1)
        candidates = {}
        block = block_of(dnnd.world)
        for name in ("new", "old"):
            at, values = getattr(block, name)
            for gid, u in zip(block.global_ids[at].tolist(),
                              values.tolist()):
                candidates.setdefault((name, gid), []).append(u)
        per_shape.append(candidates)
    assert per_shape[0] == per_shape[1] == per_shape[2]
    assert len(per_shape[0]) > len(small_dense)     # new and old lists both


def _staged_pairs(world):
    """Every staged ``(v, u)`` request of a world, sorted."""
    return sorted((a, b) for runs in block_of(world).waves.values()
                  for run in runs
                  for a, b in zip(*(col.tolist() for col in run[3])))


@settings(max_examples=25, deadline=None)
@given(k=st.integers(1, 8), extra=st.integers(3, 40),
       world_size=st.integers(1, 4), seed=st.integers(0, 2**31))
def test_init_asks_k_distinct_others_and_repair_replays_them(k, extra,
                                                             world_size, seed):
    n = k + extra
    world = _world(n, k, world_size, seed)
    block = block_of(world)
    live = list(range(world_size))
    dnnd_phases.init(world, live)
    # Fewer messages than a wave holds: one wave.
    (src, dests, handler, (v, u), _nbytes, _type), = block.waves[0]
    assert handler == "init_req"
    np.testing.assert_array_equal(dests, block.owner_of[u])
    np.testing.assert_array_equal(src, block.owner_of[v])
    for gid in block.global_ids.tolist():
        mine = u[v == gid].tolist()
        assert len(mine) == len(set(mine)) == k
        assert gid not in mine and all(0 <= x < n for x in mine)
    pairs = _staged_pairs(world)
    # The degraded-repair replay of each rank: the same requests.
    for rank in live:
        block.forget()
        dnnd_phases.repair_reset(world, live, ranks=[rank])
        dnnd_phases.repair_reinit(world, live, ranks=[rank])
        own = src == rank
        if not own.any():
            assert block.waves == {}
            continue
        (_s, _d, _h, (v2, u2), _b, _t), = block.waves[0]
        np.testing.assert_array_equal(v[own], v2)
        np.testing.assert_array_equal(u[own], u2)
    # A vertex draws the same others whoever owns it.
    other = _world(n, k, world_size % 4 + 1, seed)
    dnnd_phases.init(other, list(range(other.world_size)))
    assert pairs == _staged_pairs(other)
