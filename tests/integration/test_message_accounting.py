"""Wire-size accounting matches Section 2's byte formulas.

Figure 4's bytes axis is meaningful only if each message type is priced
exactly: ids 4 B, distances 4 B, feature vectors dim * itemsize.  These
tests derive per-message sizes from the instrumented totals and check
them against the formulas.
"""

import pytest

from repro import (
    DNND,
    ClusterConfig,
    CommOptConfig,
    DNNDConfig,
    NNDescentConfig,
)
from repro.datasets.ann_benchmarks import load_dataset
from repro.types import DIST_BYTES, ID_BYTES, feature_bytes


def build(data, comm_opts, k=6, seed=31):
    cfg = DNNDConfig(nnd=NNDescentConfig(k=k, seed=seed), comm_opts=comm_opts)
    dnnd = DNND(data, cfg, cluster=ClusterConfig(nodes=2, procs_per_node=2))
    return dnnd.build()


@pytest.fixture(scope="module")
def float_run(small_dense):
    return small_dense, build(small_dense, CommOptConfig.optimized())


@pytest.fixture(scope="module")
def unopt_run(small_dense):
    return build(small_dense, CommOptConfig.unoptimized())


def per_message(stats, msg_type):
    s = stats.get(msg_type)
    assert s.count > 0, msg_type
    return s.bytes / s.count


class TestOptimizedSizes:
    def test_type1_is_two_ids(self, float_run):
        _, res = float_run
        assert per_message(res.message_stats, "type1") == 2 * ID_BYTES

    def test_type2plus_is_ids_feature_bound(self, float_run):
        data, res = float_run
        fb = feature_bytes(data.shape[1], data.dtype)
        want = 2 * ID_BYTES + fb + DIST_BYTES
        assert per_message(res.message_stats, "type2+") == want

    def test_type3_is_ids_plus_distance(self, float_run):
        _, res = float_run
        assert per_message(res.message_stats, "type3") == 2 * ID_BYTES + DIST_BYTES

    def test_reverse_is_two_ids(self, float_run):
        _, res = float_run
        assert per_message(res.message_stats, "reverse") == 2 * ID_BYTES

    def test_init_request_carries_feature(self, float_run):
        data, res = float_run
        fb = feature_bytes(data.shape[1], data.dtype)
        assert per_message(res.message_stats, "init_req") == 2 * ID_BYTES + fb

    def test_init_response_is_small(self, float_run):
        _, res = float_run
        assert per_message(res.message_stats, "init_resp") == 2 * ID_BYTES + DIST_BYTES


class TestUnoptimizedSizes:
    def test_type2_lacks_the_bound(self, small_dense, unopt_run):
        fb = feature_bytes(small_dense.shape[1], small_dense.dtype)
        # Plain Type 2 (Figure 1a): ids + feature, no attached bound.
        assert per_message(unopt_run.message_stats, "type2") == 2 * ID_BYTES + fb


class TestDtypeDependence:
    def test_uint8_features_shrink_type2(self):
        """BigANN uses uint8: 'BigAnn's message size is smaller than
        DEEP 1B's' (Section 5.3.5)."""
        deep, _ = load_dataset("deep1b", n=300, seed=7)     # 96 x f32
        bigann, _ = load_dataset("bigann", n=300, seed=7)   # 128 x u8
        res_deep = build(deep, CommOptConfig.optimized())
        res_big = build(bigann, CommOptConfig.optimized())
        per_deep = per_message(res_deep.message_stats, "type2+")
        per_big = per_message(res_big.message_stats, "type2+")
        assert per_deep == 2 * ID_BYTES + 96 * 4 + DIST_BYTES
        assert per_big == 2 * ID_BYTES + 128 * 1 + DIST_BYTES
        assert per_big < per_deep

    def test_sparse_records_priced_by_actual_size(self, sparse_sets):
        cfg = DNNDConfig(nnd=NNDescentConfig(k=4, metric="jaccard", seed=31))
        dnnd = DNND(sparse_sets, cfg,
                    cluster=ClusterConfig(nodes=2, procs_per_node=2))
        res = dnnd.build()
        s = res.message_stats.get("type2+")
        if s.count:
            mean_payload = s.bytes / s.count - 2 * ID_BYTES - DIST_BYTES
            expected = sparse_sets.mean_record_size() * 8  # int64 items
            # Ragged records: average within 3x of the dataset mean.
            assert expected / 3 < mean_payload < expected * 3


class TestBytesRatioStructure:
    def test_type2_dominates_bytes(self, float_run):
        """Section 4.3: 'the communication cost is high' because Type 2
        carries the feature vector — it must dominate total bytes."""
        _, res = float_run
        stats = res.message_stats
        t2 = stats.get("type2+").bytes
        others = stats.total_bytes() - t2
        assert t2 > others


class TestPhaseView:
    """``phase_stats`` is the barrier log grouped by phase: a phase's
    table holds everything sent inside it.  The reliability layer's
    ``ack`` / ``retransmit`` traffic used to reach only the totals."""

    def test_phases_sum_to_the_totals_for_every_type(self, small_dense):
        from repro.runtime.faults import FaultPlan
        from repro.runtime.instrumentation import MessageStats

        cfg = DNNDConfig(nnd=NNDescentConfig(k=6, seed=31, max_iters=3),
                         backend="sim")
        res = DNND(small_dense, cfg,
                   cluster=ClusterConfig(nodes=2, procs_per_node=2),
                   fault_plan=FaultPlan(seed=4, drop_rate=0.05),
                   reliable=True).build()
        assert res.message_stats.get("ack").count > 0
        assert res.message_stats.get("retransmit").count > 0
        summed = MessageStats()
        for stats in res.phase_stats.values():
            summed.add(stats)
        assert summed.by_type == res.message_stats.by_type
        assert res.phase_stats["neighbor_check"].get("ack").count > 0
