"""The Transport protocol — the seam under the YGM comm layer.

The point-to-point + collectives contract every transport inherits,
exercised on SimCluster (which adds cost modeling and fault injection
on top); the process backend's transports have their own suite
(``test_process_transport.py``).
"""

import pytest

from repro.config import ClusterConfig
from repro.errors import RuntimeStateError
from repro.runtime.transports import SimCluster

CFG = ClusterConfig(nodes=2, procs_per_node=2)


def make_transports():
    return [SimCluster(CFG)]


class TestPointToPoint:
    @pytest.mark.parametrize("t", make_transports(),
                             ids=["sim"])
    def test_fifo_per_mailbox(self, t):
        for i in range(5):
            t.deliver(0, 2, ("msg", i))
        assert t.mailbox_len(2) == 5
        assert not t.all_quiescent()
        got = [t.drain_one(2) for _ in range(5)]
        assert got == [(0, ("msg", i)) for i in range(5)]
        assert t.drain_one(2) is None
        assert t.all_quiescent()

    @pytest.mark.parametrize("t", make_transports(),
                             ids=["sim"])
    def test_clear_mailboxes(self, t):
        t.deliver(0, 1, "a")
        t.deliver(2, 3, "b")
        assert t.pending_total() == 2
        t.clear_mailboxes()
        assert t.pending_total() == 0
        assert t.all_quiescent()

    @pytest.mark.parametrize("t", make_transports(),
                             ids=["sim"])
    def test_destination_range_checked(self, t):
        with pytest.raises(RuntimeStateError):
            t.deliver(0, CFG.world_size, "x")

    @pytest.mark.parametrize("t", make_transports(),
                             ids=["sim"])
    def test_shutdown_refuses_traffic(self, t):
        t.shutdown()
        with pytest.raises(RuntimeStateError):
            t.deliver(0, 1, "x")

    @pytest.mark.parametrize("t", make_transports(),
                             ids=["sim"])
    def test_offnode_topology(self, t):
        # 2 nodes x 2 procs: ranks {0,1} on node 0, {2,3} on node 1.
        assert not t.is_offnode(0, 1)
        assert t.is_offnode(1, 2)


class TestCollectives:
    @pytest.mark.parametrize("t", make_transports(),
                             ids=["sim"])
    def test_allreduce_sum(self, t):
        assert t.allreduce_sum([1, 2, 3, 4]) == 10
        assert t.allreduce([1, 2, 3, 4]) == [10] * 4

    @pytest.mark.parametrize("t", make_transports(),
                             ids=["sim"])
    def test_allreduce_custom_op(self, t):
        assert t.allreduce([3, 1, 4, 1], op=max) == [4] * 4

    @pytest.mark.parametrize("t", make_transports(),
                             ids=["sim"])
    def test_gather_root_only(self, t):
        out = t.gather(["a", "b", "c", "d"], root=2)
        assert out[2] == ["a", "b", "c", "d"]
        assert out[0] is None and out[1] is None and out[3] is None

    @pytest.mark.parametrize("t", make_transports(),
                             ids=["sim"])
    def test_allgather_and_bcast(self, t):
        assert t.allgather([1, 2, 3, 4]) == [[1, 2, 3, 4]] * 4
        assert t.bcast("v", root=1) == ["v"] * 4

    @pytest.mark.parametrize("t", make_transports(),
                             ids=["sim"])
    def test_alltoallv_routing(self, t):
        send = [[[s * 10 + d] for d in range(4)] for s in range(4)]
        recv = t.alltoallv(send)
        for dest in range(4):
            assert recv[dest] == [s * 10 + dest for s in range(4)]

    @pytest.mark.parametrize("t", make_transports(),
                             ids=["sim"])
    def test_collectives_require_full_contribution(self, t):
        with pytest.raises(RuntimeStateError):
            t.allreduce([1, 2])
        with pytest.raises(RuntimeStateError):
            t.alltoallv([[[]] * 3] * 4)


class TestSimClusterExtras:
    def test_cost_model_attached(self):
        t = SimCluster(CFG)
        assert t.ledger.enabled
        assert t.net is not None
