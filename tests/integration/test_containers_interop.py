"""Distributed containers composed with a live DNND world.

The real YGM applications mix algorithm handlers with container
handlers on one communicator; this test does the same: after a DNND
build, a DistributedCounter on the *same world* aggregates the built
graph's reverse-degree distribution across ranks.
"""

import numpy as np
import pytest

from repro import ClusterConfig, DNND, DNNDConfig, NNDescentConfig
from repro.core.dnnd_phases import block_of
from repro.runtime.containers import DistributedCounter


@pytest.fixture(scope="module")
def built(small_dense):
    cfg = DNNDConfig(nnd=NNDescentConfig(k=6, seed=91))
    dnnd = DNND(small_dense, cfg,
                cluster=ClusterConfig(nodes=2, procs_per_node=2))
    result = dnnd.build()
    return dnnd, result


class TestCounterOnDnndWorld:
    def test_reverse_degree_histogram(self, built, small_dense):
        dnnd, result = built
        counter = DistributedCounter(dnnd.world, "rev_degree")
        # Each rank contributes one async_add per outgoing edge it owns,
        # keyed by the edge target — the reverse-degree count.
        block = block_of(dnnd.world)
        for ctx in dnnd.world.ranks:
            for u in block.edges(block.of_ranks([ctx.rank]))[1].tolist():
                counter.async_add(ctx.rank, u)
        dnnd.world.barrier()
        # Totals must equal the edge count of the gathered graph...
        n_edges = len(result.graph.edge_set())
        assert counter.total() == n_edges
        # ...and per-key counts must match the true reverse degrees.
        rev = np.zeros(len(small_dense), dtype=int)
        for _v, u in result.graph.edge_set():
            rev[u] += 1
        for vid in range(0, len(small_dense), 37):
            assert counter.count_of(vid) == rev[vid]

    def test_top_k_matches_numpy(self, built, small_dense):
        dnnd, result = built
        counter = DistributedCounter(dnnd.world, "rev_degree2")
        block = block_of(dnnd.world)
        for ctx in dnnd.world.ranks:
            for u in block.edges(block.of_ranks([ctx.rank]))[1].tolist():
                counter.async_add(ctx.rank, u)
        dnnd.world.barrier()
        rev = np.zeros(len(small_dense), dtype=int)
        for _v, u in result.graph.edge_set():
            rev[u] += 1
        top = counter.top_k(3)
        assert top[0][1] == rev.max()
