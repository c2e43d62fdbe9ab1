"""The deterministic, single-process simulated MPI transport.

This is the substitution for the paper's MPI (MVAPICH2) layer: per-rank
FIFO mailboxes for point-to-point traffic and driver-level collectives
(allreduce / gather / bcast / alltoallv) with modeled costs.  The
higher-level YGM layer (:mod:`repro.runtime.ygm`) builds its buffered
asynchronous RPC on these mailboxes, exactly as the real YGM builds on
MPI.

:class:`SimCluster` is the :class:`~repro.runtime.transports.base.Transport`
that preserves the pre-seam runtime bit-for-bit: deterministic delivery
order, the alpha-beta/compute cost ledger, and optional fault injection
(:mod:`repro.runtime.faults`).
"""

from __future__ import annotations

from typing import Any

from ...config import ClusterConfig
from ...errors import RuntimeStateError
from ..faults import FaultInjector
from ..netmodel import CostLedger, NetworkModel
from .base import Transport


class SimCluster(Transport):
    """World state shared by all simulated ranks.

    Parameters
    ----------
    config:
        Node/process shape (``nodes`` x ``procs_per_node``).
    net:
        Cost-model constants; defaults to Omni-Path-class numbers.
    injector:
        Optional :class:`~repro.runtime.faults.FaultInjector`; when set,
        remote deliveries consult it for drop/duplicate/delay decisions
        and traffic touching a crashed rank is discarded.
    """

    def __init__(self, config: ClusterConfig, net: NetworkModel | None = None,
                 injector: FaultInjector | None = None) -> None:
        super().__init__(config, net,
                         CostLedger(world_size=config.world_size))
        self.injector = injector

    # -- point-to-point transport ---------------------------------------------

    def deliver(self, src: int, dest: int, item: Any,
                fault_exempt: bool = False) -> None:
        """Enqueue ``item`` into ``dest``'s mailbox (already-flushed data).

        With a fault injector attached, remote (``src != dest``)
        deliveries may be dropped, duplicated, or delayed, and any
        traffic from or to a crashed rank is discarded — exactly what a
        dead MPI process does to its peers.  ``fault_exempt`` bypasses
        the injector (used when releasing already-injected delayed
        copies, which must not be re-perturbed).
        """
        self._check_alive()
        if not 0 <= dest < self.world_size:
            raise RuntimeStateError(f"destination rank {dest} out of range")
        if self.marked_failed and (src in self.marked_failed
                                   or dest in self.marked_failed):
            return
        inj = self.injector
        if inj is not None and not fault_exempt:
            if inj.is_crashed(src) or inj.is_crashed(dest):
                inj.stats.crash_dropped += 1
                return
            if src != dest:
                for delay in inj.on_deliver(src, dest):
                    if delay == 0:
                        self._mailboxes[dest].append((src, item))
                    else:
                        inj.hold(delay, src, dest, item)
                return
        self._mailboxes[dest].append((src, item))

    def release_due_faults(self) -> int:
        """Advance the injector's delay clock one tick and deliver any
        now-due delayed messages; returns how many were released."""
        inj = self.injector
        if inj is None:
            return 0
        due = inj.tick()
        for src, dest, item in due:
            if inj.is_crashed(src) or inj.is_crashed(dest):
                inj.stats.crash_dropped += 1
                continue
            if self.marked_failed and (src in self.marked_failed
                                       or dest in self.marked_failed):
                continue
            self._mailboxes[dest].append((src, item))
        return len(due)

    # -- cost hooks ------------------------------------------------------------
    # Each collective charges a log2(P)-depth tree of alpha+beta*size to
    # every rank, matching the usual MPI collective cost models.

    def _charge_collective(self, item_bytes: int) -> None:
        depth = max(1, (self.world_size - 1).bit_length())
        cost = depth * (self.net.alpha + self.net.beta * item_bytes)
        for r in range(self.world_size):
            self.ledger.charge(r, cost)

    def _charge_transfer(self, src: int, dest: int, nbytes: int) -> None:
        offnode = self.is_offnode(src, dest)
        cost = self.net.message_cost(nbytes, offnode)
        self.ledger.charge(src, cost + self.net.flush_cost(offnode))
