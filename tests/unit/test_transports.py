"""The Transport protocol — the seam under the YGM comm layer.

The point-to-point + collectives contract every transport inherits,
exercised on SimCluster (which adds cost modeling on top), and the one
delivery decision — failure marks, fault injection — driven through a
fake ``_put`` on both subclasses; the process backend's transports have
their own suite (``test_process_transport.py``).
"""

import numpy as np
import pytest

from repro.config import ClusterConfig
from repro.errors import RuntimeStateError
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.transports import SimCluster
from repro.runtime.transports.process import WorkerTransport

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
    def test_collectives_require_full_contribution(self, t):
        with pytest.raises(RuntimeStateError):
            t.allreduce([1, 2])
        with pytest.raises(RuntimeStateError):
            t.gather([1, 2, 3])


class TestSimClusterExtras:
    def test_cost_model_attached(self):
        t = SimCluster(CFG)
        assert t.ledger.enabled
        assert t.net is not None


def _worker():
    # Owns ranks 0 and 2; 1 and 3 would travel as frames.
    return WorkerTransport(CFG, [0, 2], [0, 1, 0, 1], worker_id=0)


class TestOneDeliver:
    """``Transport.deliver`` / ``release_due_faults`` decide; a subclass
    only supplies ``_put``."""

    @pytest.mark.parametrize("make", [lambda: SimCluster(CFG), _worker],
                             ids=["sim", "worker"])
    @pytest.mark.parametrize("case, plan, landed", [
        ("clean", FaultPlan(), [(0, 1, "x")]),
        ("drop", FaultPlan(drop_rate=1.0), []),
        ("dup", FaultPlan(dup_rate=1.0), [(0, 1, "x"), (0, 1, "x")]),
        ("delay", FaultPlan(delay_rate=1.0, max_delay_ticks=1), []),
        ("crash-drop", FaultPlan(crashes=((0, 1),)), []),
        ("marked-failed", FaultPlan(dup_rate=1.0), []),
    ])
    def test_decision_is_the_base_class(self, make, case, plan, landed):
        t = make()
        assert "deliver" not in vars(type(t))
        assert "release_due_faults" not in vars(type(t))
        put = []
        t._put = lambda src, dest, item: put.append((src, dest, item))
        t.injector = inj = FaultInjector(plan, CFG.world_size)
        inj.advance_iteration(0)
        if case == "marked-failed":
            t.mark_failed([1])
        t.deliver(0, 1, "x")
        assert put == landed
        # A self-send is never perturbed.
        t.deliver(0, 0, "self")
        assert put.pop() == (0, 0, "self")
        if case == "delay":
            assert inj.pending_delayed() == 1
            assert t.release_due_faults() == 1
            assert put == [(0, 1, "x")] and inj.counts["faults.delayed"] == 1
        else:
            assert t.release_due_faults() == 0
        assert inj.counts["faults.crash_dropped"] == (case == "crash-drop")

    def test_held_copy_of_a_rank_that_died_is_discarded(self):
        t = SimCluster(CFG)
        t.injector = inj = FaultInjector(
            FaultPlan(delay_rate=1.0, max_delay_ticks=1, crashes=((0, 1),)),
            CFG.world_size)
        t.deliver(0, 1, "x")
        inj.advance_iteration(0)
        assert t.release_due_faults() == 1
        assert t.all_quiescent() and inj.counts["faults.crash_dropped"] == 1


class TestRowsInFlight:
    """Runs ``(handler, dest, columns)`` are in flight whole from the
    moment they are posted; the mailboxes carry only items."""

    @staticmethod
    def _run(dest):
        dest = np.asarray(dest, dtype=np.int64)
        return ("h", dest, (dest * 10,))

    @pytest.mark.parametrize("make", [lambda: SimCluster(CFG), _worker],
                             ids=["sim", "worker"])
    def test_posted_runs_are_taken_whole_in_order(self, make):
        t = make()
        first, second = self._run([2, 0, 2]), self._run([0])
        t.post(1, first)
        t.post(np.array([3]), second)
        assert not t.all_quiescent() and t.pending_total() == 0
        assert t.take_rows() == [first, second]
        assert t.all_quiescent() and t.take_rows() == []

    def test_rows_touching_a_failed_rank_are_discarded(self):
        t = SimCluster(CFG)
        t.mark_failed([2])
        t.post(np.array([0, 2, 1]), self._run([1, 0, 2]))
        t.post(2, self._run([0]))
        (run,) = t.take_rows()
        assert run[1].tolist() == [1] and run[2][0].tolist() == [10]

    def test_rows_of_envelopes_are_filed_until_their_envelope_ships(self):
        t = SimCluster(CFG)
        t.post(0, self._run([1, 1, 2]), env=np.array([7, 7, 8]))
        t.post(0, self._run([3]), env=np.array([7]))
        assert t.all_quiescent() and t.rows == []   # nothing until shipped
        assert sorted(t.envelopes) == [7, 8]
        rows = t.take_envelope(7)
        assert [run[1].tolist() for run in rows] == [[1, 1], [3]]
        assert sorted(t.envelopes) == [8] and t.take_envelope(7) == []
        t.clear_mailboxes()
        assert t.envelopes == {} and t.pending_total() == 0
