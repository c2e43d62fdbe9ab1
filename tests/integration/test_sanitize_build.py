"""A sanitized DNND build must be bit-identical to an unsanitized one —
the sanitizer observes, it never perturbs (same regression contract as
the fault injector)."""

import numpy as np
import pytest

from repro.config import (ClusterConfig, CommOptConfig, DNNDConfig,
                          NNDescentConfig)
from repro.core.dist_search import DistributedKNNGraphSearcher
from repro.core.dnnd import DNND
from repro.core.dnnd_phases import block_of
from repro.core.heap import NeighborHeap


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(42)
    return rng.standard_normal((150, 8))


def _cfg():
    return DNNDConfig(nnd=NNDescentConfig(k=6, seed=3, max_iters=4))


def _cluster():
    return ClusterConfig(nodes=2, procs_per_node=2)


def test_sanitized_build_bit_identical(data):
    # sanitize is pinned on both sides so the comparison holds even when
    # the suite itself runs under REPRO_SANITIZE=1 (the CI sanitize job).
    d_off = DNND(data, _cfg(), cluster=_cluster(), sanitize=False)
    d_on = DNND(data, _cfg(), cluster=_cluster(), sanitize=True)
    r_off = d_off.build()
    r_on = d_on.build()

    assert np.array_equal(r_off.graph.ids, r_on.graph.ids)
    assert np.array_equal(r_off.graph.dists, r_on.graph.dists)
    assert r_off.sim_seconds == r_on.sim_seconds
    assert r_off.message_stats.snapshot() == r_on.message_stats.snapshot()
    assert r_off.update_counts == r_on.update_counts
    assert r_off.distance_evals == r_on.distance_evals

    adj_off = d_off.optimize()
    adj_on = d_on.optimize()
    for key in ("indptr", "indices", "dists"):
        assert np.array_equal(adj_off.to_arrays()[key],
                              adj_on.to_arrays()[key])
    # A clean run records zero violations.
    assert d_on.world.sanitizer.violations == 0
    # Row writes are checked against the world's sanitizer, by the rank
    # each row belongs to.
    block = block_of(d_on.world)
    assert block.sanitizer is d_on.world.sanitizer
    assert block.rank_of[block.starts[1]] == 1


def test_zero_overhead_structures_when_off(data):
    d = DNND(data, _cfg(), cluster=_cluster(), sanitize=False)
    assert d.world.sanitizer is None
    for ctx in d.world.ranks:
        assert type(ctx.state) is dict
    block = block_of(d.world)
    assert block.sanitizer is None
    assert not hasattr(NeighborHeap.view(block.ids[0], block.dists[0],
                                         block.flags[0]), "_san")


def test_sanitized_distributed_search_matches(data):
    base = DNND(data, _cfg(), cluster=_cluster())
    base.build()
    adjacency = base.optimize()

    s_off = DistributedKNNGraphSearcher(adjacency, data, seed=7,
                                        sanitize=False)
    s_on = DistributedKNNGraphSearcher(adjacency, data, seed=7,
                                       sanitize=True)
    q = data[11]
    r_off = s_off.query(q, l=5)
    r_on = s_on.query(q, l=5)
    assert np.array_equal(r_off.ids, r_on.ids)
    assert np.array_equal(r_off.dists, r_on.dists)
    assert s_on.world.sanitizer.violations == 0


def test_env_var_enables_for_whole_build(data, monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    d = DNND(data, _cfg(), cluster=_cluster())
    assert d.world.sanitizer is not None
    result = d.build()
    assert result.converged or result.iterations == 4
    assert d.world.sanitizer.violations == 0


def test_sanitized_process_build_matches_unsanitized(data):
    """Every worker's world runs the sanitizer like the sim world does:
    on two workers the sanitized graph is the unsanitized one (in the
    order-invariant envelope — two workers do not repeat one delivery
    order), and no cross-rank access is reported back as an error."""
    cfg = DNNDConfig(nnd=NNDescentConfig(k=6, seed=3, max_iters=4, delta=0.0),
                     comm_opts=CommOptConfig.unoptimized(),
                     backend="process", workers=2)
    graphs = []
    for sanitize in (False, True):
        d = DNND(data, cfg, cluster=_cluster(), sanitize=sanitize)
        try:
            graphs.append(d.build().graph)
        finally:
            d.close()
    assert np.array_equal(graphs[0].ids, graphs[1].ids)
    assert graphs[0].dists.tobytes() == graphs[1].dists.tobytes()
