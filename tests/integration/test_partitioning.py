"""Partitioning as a first-class layer.

Placement is orthogonal to result *quality*: whichever partitioner
placed the rows, the built graph recovers the same neighborhoods
(recall parity — heap tie-breaks may arrive in a different message
order, so bit-identity is only pinned for the default hash layout, by
the golden trace).  What placement changes is traffic — and the
repartition pass exists to cut it.
"""

import numpy as np
import pytest

from repro import DNND, ClusterConfig, DNNDConfig, NNDescentConfig
from repro.core.dist_search import DistributedKNNGraphSearcher
from repro.errors import ConfigError, RuntimeStateError
from repro.runtime.partition import (
    BlockPartitioner,
    ExplicitPartitioner,
    HashPartitioner,
    edge_cut_fraction,
    make_partitioner,
)

BACKENDS = ("sim", "process")


def config(backend="sim", max_iters=8, k=6):
    return DNNDConfig(
        nnd=NNDescentConfig(k=k, rho=0.8, delta=0.001, max_iters=max_iters,
                            seed=1),
        batch_size=1 << 12, backend=backend,
        workers=2 if backend != "sim" else 0)


@pytest.fixture(scope="module")
def hash_reference(small_dense):
    dnnd = DNND(small_dense, config(),
                cluster=ClusterConfig(nodes=2, procs_per_node=2))
    return dnnd.build()


def _recall(graph_ids, exact_ids):
    hits = sum(len(set(row) & set(truth))
               for row, truth in zip(graph_ids, exact_ids))
    return hits / exact_ids.size


@pytest.fixture(scope="module")
def exact_knn(small_dense):
    d2 = ((small_dense[:, None, :].astype(np.float64)
           - small_dense[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    return np.argsort(d2, axis=1, kind="stable")[:, :6]


class TestPlacementIndependence:
    @pytest.mark.parametrize("name", ("block", "rptree"))
    def test_recall_parity_under_any_partitioner(self, small_dense,
                                                 hash_reference, exact_knn,
                                                 name):
        part = make_partitioner(name, len(small_dense), 4,
                                data=small_dense, seed=1)
        result = DNND(small_dense, config(),
                      cluster=ClusterConfig(nodes=2, procs_per_node=2),
                      partitioner=part).build()
        got = _recall(result.graph.ids, exact_knn)
        ref = _recall(hash_reference.graph.ids, exact_knn)
        assert abs(got - ref) <= 0.005

    def test_partitioner_gauges_published(self, small_dense):
        dnnd = DNND(small_dense, config(),
                    cluster=ClusterConfig(nodes=2, procs_per_node=2))
        dnnd.build()
        gauges = dnnd.metrics.snapshot()["gauges"]
        assert gauges["partition.imbalance"] >= 1.0
        assert 0.0 <= gauges["partition.edge_cut"] <= 1.0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_delivery_counters_on_every_backend(self, small_dense, backend):
        dnnd = DNND(small_dense, config(backend=backend),
                    cluster=ClusterConfig(nodes=2, procs_per_node=2))
        dnnd.build()
        counters = dnnd.metrics.snapshot()["counters"]
        assert counters["comm.local_deliveries"] > 0
        assert counters["comm.remote_deliveries"] > 0

    def test_rptree_cuts_traffic_on_clustered_data(self, small_dense):
        """The tentpole claim: locality-aware placement means fewer
        remote deliveries and a lower edge cut than hashing."""
        cluster = ClusterConfig(nodes=2, procs_per_node=2)
        stats = {}
        for name in ("hash", "rptree"):
            part = make_partitioner(name, len(small_dense), 4,
                                    data=small_dense, seed=1)
            dnnd = DNND(small_dense, config(), cluster=cluster,
                        partitioner=part)
            dnnd.build()
            snap = dnnd.metrics.snapshot()
            stats[name] = (snap["counters"]["comm.remote_deliveries"],
                           snap["gauges"]["partition.edge_cut"])
        assert stats["rptree"][0] < stats["hash"][0]
        assert stats["rptree"][1] < stats["hash"][1]


class TestRepartition:
    @pytest.mark.parametrize("backend", ("sim", "process"))
    def test_repartition_reduces_edge_cut(self, small_dense, backend):
        dnnd = DNND(small_dense, config(backend=backend),
                    cluster=ClusterConfig(nodes=2, procs_per_node=2))
        result = dnnd.build()
        before = dnnd.metrics.snapshot()["gauges"]["partition.edge_cut"]
        graph = dnnd.repartition()
        after = dnnd.metrics.snapshot()["gauges"]["partition.edge_cut"]
        assert after < before
        # Re-homing moves rows, not edges: the graph itself is unchanged.
        np.testing.assert_array_equal(graph.ids, result.graph.ids)
        assert dnnd.partitioner.kind == "explicit"
        assert dnnd.partitioner.source == "repartition"

    def test_repartition_with_explicit_override(self, tiny_dense):
        dnnd = DNND(tiny_dense, config(),
                    cluster=ClusterConfig(nodes=2, procs_per_node=2))
        dnnd.build()
        override = ExplicitPartitioner(
            np.arange(len(tiny_dense)) % 4, 4, source="custom")
        dnnd.repartition(override)
        assert dnnd.partitioner is override

    def test_repartition_rejects_mismatched_override(self, tiny_dense):
        dnnd = DNND(tiny_dense, config(),
                    cluster=ClusterConfig(nodes=2, procs_per_node=2))
        dnnd.build()
        with pytest.raises(ConfigError):
            dnnd.repartition(HashPartitioner(len(tiny_dense) + 1, 4))
        with pytest.raises(ConfigError):
            dnnd.repartition(HashPartitioner(len(tiny_dense), 8))

    def test_repartition_requires_built(self, tiny_dense):
        dnnd = DNND(tiny_dense, config(),
                    cluster=ClusterConfig(nodes=2, procs_per_node=2))
        with pytest.raises(RuntimeStateError):
            dnnd.repartition()

    def test_optimize_after_repartition(self, tiny_dense):
        """The instance stays fully usable after re-homing."""
        dnnd = DNND(tiny_dense, config(),
                    cluster=ClusterConfig(nodes=2, procs_per_node=2))
        dnnd.build()
        dnnd.repartition()
        adjacency = dnnd.optimize()
        adjacency.validate()


class TestCheckpointPartitionerRoundTrip:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_round_trip(self, small_dense, tmp_path, backend):
        """A checkpoint written under any partitioner resumes under the
        same ownership — on every backend."""
        ckpt = tmp_path / f"ckpt_{backend}"
        part = make_partitioner("block", len(small_dense), 4,
                                data=small_dense, seed=1)
        partial = DNND(small_dense, config(backend=backend, max_iters=2),
                       cluster=ClusterConfig(nodes=2, procs_per_node=2),
                       partitioner=part)
        partial.build(checkpoint_path=ckpt, checkpoint_every=1)

        resumed = DNND.resume(
            small_dense, ckpt,
            cluster=ClusterConfig(nodes=2, procs_per_node=2),
            backend=backend, workers=2 if backend != "sim" else 0,
            partitioner="block")
        assert resumed.dnnd.partitioner.kind == "block"

    def test_rptree_persists_as_explicit(self, small_dense, tmp_path):
        """rptree serializes to its explicit table: the resumed run
        reuses the *same assignment* without rebuilding the tree."""
        ckpt = tmp_path / "ckpt_rptree"
        part = make_partitioner("rptree", len(small_dense), 4,
                                data=small_dense, seed=1)
        partial = DNND(small_dense, config(max_iters=2),
                       cluster=ClusterConfig(nodes=2, procs_per_node=2),
                       partitioner=part)
        partial.build(checkpoint_path=ckpt, checkpoint_every=1)

        resumed = DNND.resume(small_dense, ckpt,
                              cluster=ClusterConfig(nodes=2, procs_per_node=2),
                              partitioner="rptree")
        restored = resumed.dnnd.partitioner
        assert restored.kind == "explicit"
        assert restored.source == "rptree"
        np.testing.assert_array_equal(
            restored.owner_array(np.arange(len(small_dense))),
            part.owner_array(np.arange(len(small_dense))))

    def test_resume_conflicting_partitioner_rejected(self, small_dense,
                                                     tmp_path):
        ckpt = tmp_path / "ckpt_conflict"
        partial = DNND(small_dense, config(max_iters=2),
                       cluster=ClusterConfig(nodes=2, procs_per_node=2),
                       partitioner=BlockPartitioner(len(small_dense), 4))
        partial.build(checkpoint_path=ckpt, checkpoint_every=1)
        with pytest.raises(ConfigError, match="partitioner"):
            DNND.resume(small_dense, ckpt,
                        cluster=ClusterConfig(nodes=2, procs_per_node=2),
                        partitioner="rptree")

    def test_legacy_checkpoint_assumed_hash(self, small_dense, tmp_path):
        """Checkpoints from before the partitioner spec resume as hash;
        asserting anything else is a conflict."""
        from repro.runtime.metall import MetallStore

        ckpt = tmp_path / "ckpt_legacy"
        partial = DNND(small_dense, config(max_iters=2),
                       cluster=ClusterConfig(nodes=2, procs_per_node=2))
        partial.build(checkpoint_path=ckpt, checkpoint_every=1)
        with MetallStore.open(ckpt) as store:
            meta = dict(store["ckpt_meta"])
            del meta["partitioner"]
            store["ckpt_meta"] = meta

        resumed = DNND.resume(small_dense, ckpt,
                              cluster=ClusterConfig(nodes=2, procs_per_node=2),
                              partitioner="hash")
        assert resumed.dnnd.partitioner.kind == "hash"
        with pytest.raises(ConfigError, match="partitioner"):
            DNND.resume(small_dense, ckpt,
                        cluster=ClusterConfig(nodes=2, procs_per_node=2),
                        partitioner="block")

    def test_explicit_checkpoint_pins_world_size(self, small_dense,
                                                 tmp_path):
        """Parametric partitioners reshape with the cluster; explicit
        tables cannot, so resuming on a new shape must fail loudly."""
        ckpt = tmp_path / "ckpt_pinned"
        part = make_partitioner("rptree", len(small_dense), 4,
                                data=small_dense, seed=1)
        partial = DNND(small_dense, config(max_iters=2),
                       cluster=ClusterConfig(nodes=2, procs_per_node=2),
                       partitioner=part)
        partial.build(checkpoint_path=ckpt, checkpoint_every=1)
        with pytest.raises(ConfigError, match="ranks"):
            DNND.resume(small_dense, ckpt,
                        cluster=ClusterConfig(nodes=4, procs_per_node=2))


class TestSearcherIntegration:
    def test_searcher_accepts_repartitioned_ownership(self, small_dense):
        dnnd = DNND(small_dense, config(),
                    cluster=ClusterConfig(nodes=2, procs_per_node=2))
        dnnd.build()
        dnnd.repartition()
        adjacency = dnnd.optimize()
        searcher = DistributedKNNGraphSearcher(
            adjacency, small_dense, metric="sqeuclidean",
            cluster=ClusterConfig(nodes=2, procs_per_node=2),
            partitioner=dnnd.partitioner)
        ids, _dists, _stats = searcher.query_batch(small_dense[:4], l=10)
        assert ids.shape[0] == 4

    def test_searcher_rejects_mismatched_partitioner(self, small_dense):
        dnnd = DNND(small_dense, config(),
                    cluster=ClusterConfig(nodes=2, procs_per_node=2))
        dnnd.build()
        adjacency = dnnd.optimize()
        with pytest.raises(ConfigError):
            DistributedKNNGraphSearcher(
                adjacency, small_dense, metric="sqeuclidean",
                cluster=ClusterConfig(nodes=2, procs_per_node=2),
                partitioner=HashPartitioner(len(small_dense), 8))


class TestEdgeCutAccounting:
    def test_edge_cut_matches_gauge(self, small_dense):
        dnnd = DNND(small_dense, config(),
                    cluster=ClusterConfig(nodes=2, procs_per_node=2))
        result = dnnd.build()
        gauge = dnnd.metrics.snapshot()["gauges"]["partition.edge_cut"]
        direct = edge_cut_fraction(dnnd.partitioner, result.graph.ids)
        assert gauge == pytest.approx(direct)
