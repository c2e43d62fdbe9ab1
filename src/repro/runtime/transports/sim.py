"""The deterministic, single-process simulated MPI transport.

This is the substitution for the paper's MPI (MVAPICH2) layer: per-rank
FIFO mailboxes for point-to-point traffic and driver-level collectives
(allreduce / gather) with modeled costs.  The
higher-level YGM layer (:mod:`repro.runtime.ygm`) builds its buffered
asynchronous RPC on these mailboxes, exactly as the real YGM builds on
MPI.

:class:`SimCluster` is the :class:`~repro.runtime.transports.base.Transport`
that preserves the pre-seam runtime bit-for-bit: deterministic delivery
order and the alpha-beta/compute cost ledger.  It adds only the ledger
and the cost hook — delivery, fault injection and reliable delivery are
the base class's, shared with the process backend.
"""

from __future__ import annotations

from ...config import ClusterConfig
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
        Optional :class:`~repro.runtime.faults.FaultInjector` for
        :meth:`Transport.deliver <repro.runtime.transports.base.Transport.deliver>`
        to consult.
    """

    def __init__(self, config: ClusterConfig, net: NetworkModel | None = None,
                 injector: FaultInjector | None = None) -> None:
        super().__init__(config, net,
                         CostLedger(world_size=config.world_size))
        self.injector = injector

    # -- cost hook -------------------------------------------------------------
    # Each collective charges a log2(P)-depth tree of alpha+beta*size to
    # every rank, matching the usual MPI collective cost models.

    def _charge_collective(self, item_bytes: int) -> None:
        depth = max(1, (self.world_size - 1).bit_length())
        cost = depth * (self.net.alpha + self.net.beta * item_bytes)
        for r in range(self.world_size):
            self.ledger.charge(r, cost)

