"""SimCluster: mailboxes and collectives."""

import pytest

from repro.config import ClusterConfig
from repro.errors import RuntimeStateError
from repro.runtime.transports import SimCluster


@pytest.fixture()
def cluster():
    return SimCluster(ClusterConfig(nodes=2, procs_per_node=2))


class TestTopology:
    def test_world_size(self, cluster):
        assert cluster.world_size == 4

    def test_offnode_detection(self, cluster):
        assert not cluster.is_offnode(0, 1)  # same node
        assert cluster.is_offnode(0, 2)      # different nodes
        assert not cluster.is_offnode(2, 3)


class TestMailboxes:
    def test_deliver_and_drain(self, cluster):
        cluster.deliver(0, 1, "hello")
        assert not cluster.mailbox_empty(1)
        src, item = cluster.drain_one(1)
        assert src == 0 and item == "hello"
        assert cluster.mailbox_empty(1)

    def test_fifo_order(self, cluster):
        cluster.deliver(0, 1, "a")
        cluster.deliver(2, 1, "b")
        assert cluster.drain_one(1)[1] == "a"
        assert cluster.drain_one(1)[1] == "b"

    def test_drain_empty_returns_none(self, cluster):
        assert cluster.drain_one(0) is None

    def test_quiescence(self, cluster):
        assert cluster.all_quiescent()
        cluster.deliver(0, 3, 1)
        assert not cluster.all_quiescent()
        assert cluster.pending_total() == 1

    def test_bad_destination(self, cluster):
        with pytest.raises(RuntimeStateError):
            cluster.deliver(0, 9, "x")

    def test_shutdown_blocks_traffic(self, cluster):
        cluster.shutdown()
        with pytest.raises(RuntimeStateError):
            cluster.deliver(0, 1, "x")


class TestCollectives:
    def test_allreduce_sum(self, cluster):
        out = cluster.allreduce([1, 2, 3, 4])
        assert out == [10, 10, 10, 10]

    def test_allreduce_sum_convenience(self, cluster):
        assert cluster.allreduce_sum([1.5, 2.5, 0, 0]) == 4.0

    def test_allreduce_custom_op(self, cluster):
        out = cluster.allreduce([3, 9, 1, 7], op=max)
        assert out == [9, 9, 9, 9]

    def test_allreduce_wrong_arity(self, cluster):
        with pytest.raises(RuntimeStateError):
            cluster.allreduce([1, 2])

    def test_gather(self, cluster):
        out = cluster.gather(["a", "b", "c", "d"], root=0)
        assert out == [["a", "b", "c", "d"], None, None, None]

    def test_gather_nonzero_root(self, cluster):
        out = cluster.gather(["a", "b", "c", "d"], root=2)
        assert out[2] == ["a", "b", "c", "d"]
        assert [out[r] for r in (0, 1, 3)] == [None, None, None]

    def test_gather_bad_root(self, cluster):
        with pytest.raises(RuntimeStateError):
            cluster.gather(["a", "b", "c", "d"], root=4)

    def test_allgather(self, cluster):
        out = cluster.allgather([10, 20, 30, 40])
        assert len(out) == 4
        assert all(row == [10, 20, 30, 40] for row in out)

    def test_bcast(self, cluster):
        assert cluster.bcast("v", root=2) == ["v"] * 4

    def test_bcast_bad_root(self, cluster):
        with pytest.raises(RuntimeStateError):
            cluster.bcast("v", root=4)

    def test_alltoallv_routes(self, cluster):
        sends = [[[f"{s}->{d}"] for d in range(4)] for s in range(4)]
        recv = cluster.alltoallv(sends)
        for d in range(4):
            assert recv[d] == [f"{s}->{d}" for s in range(4)]

    def test_alltoallv_wrong_row_length(self, cluster):
        with pytest.raises(RuntimeStateError):
            cluster.alltoallv([[[]] * 3] * 4)

    def test_collectives_charge_time(self, cluster):
        before = sum(cluster.ledger.clocks)
        cluster.allreduce([0, 0, 0, 0])
        assert sum(cluster.ledger.clocks) > before

    def test_alltoallv_charges_senders_only_offdiagonal(self):
        c = SimCluster(ClusterConfig(nodes=1, procs_per_node=2))
        # Only diagonal traffic: no charges.
        c.alltoallv([[["x"], []], [[], ["y"]]])
        assert sum(c.ledger.clocks) == 0.0
