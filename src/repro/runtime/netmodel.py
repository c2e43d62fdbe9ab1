"""Network/compute cost model and per-rank simulated clocks.

Figure 3 of the paper plots construction time in hours against node
count.  Our runtime is a single-process simulation, so wall-clock time
does not scale with simulated ranks — instead we *model* time with the
standard alpha-beta (latency-bandwidth) communication model plus a
per-work-unit compute model, and advance per-rank clocks as the engine
runs:

- each distance evaluation charges ``compute_per_distance * dim_factor``
  seconds to the rank that performed it (plus a small per-heap-update
  charge),
- each message charges the *sender* ``beta * nbytes`` seconds
  (bandwidth), discounted for intra-node traffic,
- each buffer flush to a destination charges the sender one ``alpha``
  (latency) — so many small unbatched sends are penalized, which is
  exactly the congestion behaviour Section 4.4's application-level
  batching addresses,
- a barrier synchronizes all clocks to the maximum (BSP semantics): a
  phase takes as long as its slowest rank, so load imbalance degrades
  scaling just as on the real machine.

The default constants model Omni-Path-class bandwidth (beta ~ 10 GB/s,
alpha ~ 1 us) with a per-distance compute cost that *includes the
candidate-handling overhead around each evaluation* (sampling, heap
maintenance), chosen so that laptop-scale runs keep the paper's
compute-to-communication ratio — roughly one feature-vector message per
distance evaluation, each costing the same order of time.  That ratio,
not the absolute numbers, is what Figure 3's scaling shape and Figure
4's savings depend on (see ``benchmarks/bench_fig3_scaling.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np


@dataclass(frozen=True)
class NetworkModel:
    """Cost constants for the simulated cluster.

    Attributes
    ----------
    alpha:
        Per-flush latency for inter-node traffic, seconds.  Set well
        below a raw MPI message latency because YGM amortizes it with
        hierarchical (node-level) routing and aggregation — without the
        discount, barrier-forced flushes of near-empty buffers would
        dominate at high rank counts, which is not what the real system
        exhibits.
    beta:
        Per-byte cost for inter-node traffic, seconds (1/bandwidth).
    intra_node_discount:
        Multiplier applied to both alpha and beta for messages whose
        source and destination ranks share a node (shared-memory
        transport is far cheaper than the wire).
    compute_per_distance:
        Seconds charged per scalar distance evaluation of a
        reference-dimension vector.
    reference_dim:
        Dimensionality at which ``compute_per_distance`` applies; actual
        charges scale linearly with ``dim / reference_dim``.
    compute_per_update:
        Seconds charged per neighbor-heap update attempt.
    barrier_alpha:
        Latency of one global barrier (tree reduction), seconds; charged
        ``ceil(log2(P))`` times per barrier.
    """

    alpha: float = 1.0e-7
    beta: float = 1.0 / 10.0e9  # ~10 GB/s effective per-rank injection
    intra_node_discount: float = 0.1
    compute_per_distance: float = 2.0e-7
    reference_dim: int = 96
    compute_per_update: float = 2.0e-8
    barrier_alpha: float = 1.0e-6

    def message_cost(self, nbytes: int, offnode: bool) -> float:
        """Per-message bandwidth cost (latency is charged per flush)."""
        cost = self.beta * nbytes
        return cost if offnode else cost * self.intra_node_discount

    def flush_cost(self, offnode: bool) -> float:
        return self.alpha if offnode else self.alpha * self.intra_node_discount

    def distance_cost(self, dim: int) -> float:
        return self.compute_per_distance * (max(1, dim) / self.reference_dim)

    def distance_costs(self, dims: np.ndarray) -> np.ndarray:
        """:meth:`distance_cost` of every entry of ``dims``, as one array
        expression: the same float64 values, element for element."""
        return self.compute_per_distance * (
            np.maximum(1, dims) / self.reference_dim)


@dataclass
class CostLedger:
    """Per-rank simulated clocks plus an elapsed-time accumulator.

    ``clocks[r]`` is rank *r*'s time since the last barrier.  A barrier
    folds ``max(clocks)`` into ``elapsed`` and zeroes the per-rank
    clocks.  ``elapsed`` is therefore the BSP makespan of the run so far.
    """

    world_size: int = 1
    clocks: List[float] = field(default_factory=list)
    elapsed: float = 0.0
    barriers: int = 0
    phase_elapsed: Dict[str, float] = field(default_factory=dict)

    #: Whether charges actually accumulate — hot paths branch on this to
    #: skip cost arithmetic entirely (see :class:`NullLedger`).
    enabled = True

    def __post_init__(self) -> None:
        if not self.clocks:
            self.clocks = [0.0] * self.world_size

    def charge(self, rank: int, seconds: float) -> None:
        self.clocks[rank] += seconds

    def charge_each(self, ranks: np.ndarray, seconds: np.ndarray) -> None:
        """``charge(ranks[i], seconds[i])`` for every ``i``, in order —
        the same float sums, one rank's charges added left to right
        (``ranks`` grouped, ascending)."""
        if not len(ranks):
            return
        counts = np.bincount(ranks, minlength=self.world_size)
        sums = np.zeros((self.world_size, 1 + int(counts.max())))
        sums[:, 0] = self.clocks
        # Trailing zeros leave a sum unchanged: x + 0.0 == x.
        sums[ranks, 1 + np.arange(len(ranks))
             - (np.cumsum(counts) - counts)[ranks]] = seconds
        self.clocks[:] = np.add.accumulate(sums, axis=1)[:, -1].tolist()

    def barrier(self, model: NetworkModel, phase: str | None = None) -> float:
        """Synchronize clocks; returns the superstep duration."""
        step = max(self.clocks) if self.clocks else 0.0
        depth = max(1, (self.world_size - 1).bit_length())
        step += model.barrier_alpha * depth
        self.elapsed += step
        self.barriers += 1
        if phase is not None:
            self.phase_elapsed[phase] = self.phase_elapsed.get(phase, 0.0) + step
        for r in range(self.world_size):
            self.clocks[r] = 0.0
        return step

    def imbalance(self) -> float:
        """max/mean of current per-rank clocks (1.0 = perfectly balanced)."""
        if not self.clocks:
            return 1.0
        mean = sum(self.clocks) / len(self.clocks)
        if mean == 0.0:
            return 1.0
        return max(self.clocks) / mean

    def reset(self) -> None:
        self.elapsed = 0.0
        self.barriers = 0
        self.phase_elapsed.clear()
        for r in range(self.world_size):
            self.clocks[r] = 0.0


@dataclass
class NullLedger(CostLedger):
    """A ledger that accepts charges and discards them.

    The cost model is a *simulation* feature: it exists to predict
    Figure 3's scaling shape from deterministic replay, which is
    meaningless where the figure of merit is the host wall clock.  The
    process backend's transports carry a ``NullLedger`` so driver and
    handler code can keep calling ``ledger.barrier()`` /
    ``ctx.charge_*`` unconditionally; hot paths
    that *compute* cost values before charging should branch on
    ``ledger.enabled`` and skip the arithmetic.
    """

    enabled = False

    def charge(self, rank: int, seconds: float) -> None:
        pass

    def charge_each(self, ranks: np.ndarray, seconds: np.ndarray) -> None:
        pass

    def barrier(self, model: NetworkModel, phase: str | None = None) -> float:
        self.barriers += 1
        return 0.0
