"""DNND — Distributed NN-Descent (Section 4), the paper's contribution.

The driver owns the *schedule* — which section runs when, and every
barrier of a build; what a rank does in each phase — sections, handlers,
shard state — lives once in :mod:`.dnnd_phases`, executed by the
:class:`~.dnnd_phases.RankHost` that holds the ranks: one in-process
host over all of them (sim), or one per worker process behind a
:class:`~repro.runtime.transports.ProcessWorld`.  The backend is chosen
once, at construction; every other method talks to ``self.host`` through
the same ``rank -> value`` calls:

1. **distribute** — hash-partition vertices over ranks (Section 4:
   vertex and neighbor list co-located on the owner rank); features stay
   in the one dataset view of each address space (``self._rows``), which
   shards read by global id and never copy.
2. **init** — Algorithm 1 lines 2-5 through the Section 4.1 async
   request/response pattern.
3. **iterate** — per NN-Descent round: local old/new sampling, the
   Section 4.2 reversed-matrix exchange (with destination shuffling),
   and the Section 4.3 neighbor checks (optimized or unoptimized
   message pattern); every emitting phase is shipped under Section 4.4's
   application-level batching — a barrier every ``batch_size`` global
   async requests (:meth:`DNND._pump`); terminate when the allreduced
   update counter drops below ``delta * K * N``.
4. **persist** — store the graph + dataset into a Metall-style store
   (the paper's first executable ends here).
5. **optimize** — Section 4.5 reverse-edge merge + degree pruning, again
   by messages (the paper's second executable).

The result carries the gathered :class:`~repro.core.graph.KNNGraph`,
per-type message statistics (Figure 4), and the simulated construction
time from the cost model (Figure 3).  Every counter in it is a view of
the comm facade's barrier log (:mod:`repro.runtime.tracing`) — running
totals, group-by-phase, group-by-iteration; the driver records nothing
itself.
"""

from __future__ import annotations

import weakref
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..config import ClusterConfig, CommOptConfig, DNNDConfig, NNDescentConfig
from ..distances.blocked import resolve_kernel
from ..distances.counting import CountingMetric
from ..errors import (CheckpointCorruptError, ConfigError, RankFailureError,
                      RuntimeStateError, StoreCorruptError, StoreError)
from ..runtime.faults import FaultPlan, make_injector
from ..runtime.instrumentation import FaultStats, MessageStats
from ..runtime.metall import MetallStore
from ..runtime.metrics import MetricsRegistry
from ..runtime.netmodel import NetworkModel
from ..runtime.partition import (ExplicitPartitioner, HashPartitioner,
                                 Partitioner, edge_cut_fraction,
                                 graph_locality_assignment,
                                 partitioner_from_spec, partitioner_spec,
                                 spec_matches)
from ..runtime.transports import ProcessTransport, ProcessWorld, SimCluster
from ..runtime.ygm import YGMWorld
from .executor import resolve_backend, resolve_workers
from ..types import ID_BYTES
from ..utils.arrays import as_finite_matrix
from .dnnd_phases import RankHost
from .graph import EMPTY, AdjacencyGraph, KNNGraph
from .heap import check_rows


@dataclass
class DNNDResult:
    """Outcome of a distributed build.

    Attributes
    ----------
    graph:
        The gathered fixed-degree k-NNG.
    adjacency:
        The Section 4.5-optimized graph, present after ``optimize()``.
    message_stats:
        Global per-type message counters (Figure 4's measurement): the
        barrier log's running totals.
    phase_stats:
        The log grouped by phase.  A phase's table holds everything
        sent inside it — under reliable delivery that includes the
        ``ack`` and ``retransmit`` traffic — so the phases sum to
        ``message_stats`` for every type.
    per_iteration_messages:
        The log grouped by iteration, ``{type: (count, bytes)}`` each,
        one entry per ``update_counts`` entry of this run (degraded
        mode's repair rounds included); iterations rolled back by a
        crash recovery are left out (their traffic stays in the totals).
    sim_seconds:
        Modeled construction time (Figure 3's y-axis, in seconds).
    distance_evals:
        Total scalar distance evaluations across all ranks.
    metrics:
        The build's metrics registry (``repro.runtime.metrics``) — the
        backend-agnostic observability surface; its counters are a view
        of the build's barrier log.  ``result.metrics.snapshot()`` is the
        JSON export, ``result.metrics.to_chrome_trace()`` the
        Perfetto-loadable timeline.
    """

    graph: KNNGraph
    iterations: int
    update_counts: List[int]
    converged: bool
    message_stats: MessageStats
    phase_stats: Dict[str, MessageStats]
    sim_seconds: float
    phase_seconds: Dict[str, float]
    distance_evals: int
    world_size: int
    metrics: MetricsRegistry = field(repr=False, compare=False)
    adjacency: Optional[AdjacencyGraph] = None
    optimize_sim_seconds: float = 0.0
    per_iteration_messages: List[Dict[str, tuple]] = field(default_factory=list)
    recoveries: int = 0
    """Checkpoint-recovery cycles the build survived (rank crashes)."""
    degraded_ranks: tuple = ()
    """Ranks that spent part of the build excluded (degraded mode) and
    were re-admitted + repaired before the final graph was gathered."""
    dnnd: Optional["DNND"] = field(default=None, repr=False, compare=False)
    """Set by :meth:`DNND.resume` so callers can keep driving the
    instance (e.g. run ``optimize()``) after a resumed build."""

    @property
    def fault_stats(self) -> FaultStats:
        """Fault and recovery events (a view of the build's barrier log)."""
        return FaultStats(**self.metrics.log.total_fault_events())

    def summary(self) -> str:
        """Human-readable build report (used by the CLI and examples)."""
        from ..utils.timing import format_duration

        lines = [
            f"DNND build: n={self.graph.n}, k={self.graph.k}, "
            f"{self.world_size} ranks",
            f"iterations: {self.iterations} "
            f"({'converged' if self.converged else 'hit max_iters'})",
            f"updates per iteration: "
            f"{', '.join(f'{c:,}' for c in self.update_counts)}",
            f"distance evaluations: {self.distance_evals:,}",
            f"simulated time: {format_duration(self.sim_seconds)}",
        ]
        if self.phase_seconds:
            total = sum(self.phase_seconds.values()) or 1.0
            breakdown = ", ".join(
                f"{phase} {secs / total:.0%}"
                for phase, secs in sorted(self.phase_seconds.items(),
                                          key=lambda t: -t[1]))
            lines.append(f"phase breakdown: {breakdown}")
        if self.adjacency is not None:
            lines.append(
                f"optimized graph: {self.adjacency.n_edges:,} edges, "
                f"max degree {int(self.adjacency.degrees().max())}")
        if self.fault_stats.total_events():
            lines.append(self.fault_stats.format_line())
        if self.recoveries:
            lines.append(f"checkpoint recoveries: {self.recoveries}")
        if self.degraded_ranks:
            lines.append("degraded ranks (excluded, then repaired): "
                         f"{list(self.degraded_ranks)}")
        lines.append(self.message_stats.format_table("message totals"))
        return "\n".join(lines)


class DNND:
    """Distributed NN-Descent builder on a simulated cluster.

    Parameters
    ----------
    data:
        Dense ``(n, dim)`` matrix or sparse record dataset.
    config:
        Algorithm + communication configuration.
    cluster:
        Simulated cluster shape (nodes x procs_per_node).
    net:
        Cost-model constants (defaults in :class:`NetworkModel`).
    flush_threshold:
        YGM internal per-destination buffer size in messages.
    partitioner:
        Override the vertex partitioner (default: hash, as in the paper);
        it must cover this dataset's ``n`` rows on the cluster's world
        size, else :class:`~repro.errors.ConfigError` before anything
        starts.
    fault_plan:
        Optional :class:`~repro.runtime.faults.FaultPlan`; a non-null
        plan attaches a fault injector to the transport (every
        worker's, under process) and schedules its crashes.
    reliable:
        Run YGM in reliable delivery mode (acks + retransmits + dedup)
        so injected drop/duplicate/delay/reorder faults cannot corrupt
        the build; see :class:`~repro.runtime.ygm.YGMWorld`.
    max_retries:
        Retransmit budget per flushed buffer in reliable mode.
    failure_timeout:
        Heartbeat threshold for the comm layer's failure detector (in
        delivery rounds): a rank that holds an unacked frame *and*
        drains nothing for this long is declared failed and surfaces as
        :class:`~repro.errors.RankFailureError`.  Only active in
        reliable mode on sim; ``None`` disables detection-by-timeout.
        The default covers several retransmit backoff cycles (the
        backoff caps at 32 rounds), so a lossy-but-alive link is retried
        rather than declared dead.
    sanitize:
        Run under the runtime ownership sanitizer
        (:mod:`repro.analysis.sanitizer`): rank-owned heaps and state
        are tagged and cross-rank access from handler/SPMD context
        raises.  ``None`` (default) defers to ``REPRO_SANITIZE``.

    The execution backend comes from ``config.backend`` (``"sim"`` |
    ``"process"`` | ``None`` = defer to ``REPRO_BACKEND``, default
    sim).  Both run the same rank program (:mod:`.dnnd_phases`) over the
    same comm layer: sim is the deterministic cost-modeled simulation;
    process runs ranks in ``config.workers`` worker processes, which
    receive the driver's dataset view — dense or sparse — as a start
    argument (inherited copy-on-write under ``fork``).  Fault plans,
    reliable delivery, supervised and degraded recovery and the
    sanitizer run on both (a planned crash SIGKILLs the owning worker
    under process).  Two things are sim by definition: ``net=`` — a
    cost model is a simulation, so it raises
    :class:`~repro.errors.ConfigError` under process however the backend
    was selected — and the heartbeat ``failure_timeout``, which counts
    simulated delivery rounds; process detects a dead worker by
    liveness.
    """

    def __init__(self, data, config: DNNDConfig | None = None,
                 cluster: ClusterConfig | None = None,
                 net: NetworkModel | None = None,
                 flush_threshold: int = 1024,
                 partitioner: Optional[Partitioner] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 reliable: bool = False,
                 max_retries: int = 32,
                 failure_timeout: int | None = 256,
                 sanitize: bool | None = None) -> None:
        self.data = data
        self.config = config or DNNDConfig()
        self.cluster_config = cluster or ClusterConfig()
        self.n = len(data)
        if self.config.k >= self.n:
            raise ConfigError(
                f"k={self.config.k} must be smaller than dataset size {self.n}"
            )
        # One metrics registry per build: its counters are a view of the
        # comm facade's barrier log, the driver adds wall-clock phase
        # spans and gauges.
        self.metrics = MetricsRegistry()
        backend = resolve_backend(self.config.backend)
        self._sparse = CountingMetric(self.config.nnd.metric).sparse_input
        # The one dataset view of this address space — the sparse
        # record dataset itself, or the dense data as one contiguous
        # (n, dim) array, checked here, once, to be 2-D and finite.
        # Process workers inherit (fork) or unpickle (spawn) this very
        # object.
        self._rows = (self.data if self._sparse
                      else as_finite_matrix(self.data, "dataset"))
        self.backend = backend
        self.fault_plan = fault_plan
        world_size = self.cluster_config.world_size
        self.partitioner = partitioner or HashPartitioner(self.n, world_size)
        self.partitioner.require_covers(self.n, world_size, "this build")
        self._finalizer: Optional[weakref.finalize] = None
        # The plan's crash clock on either backend (and, on sim, the
        # transport's message-level injector as well).
        self._injector = make_injector(fault_plan, world_size)
        # What a comm world is built with — here, or by every worker.
        world_opts = dict(flush_threshold=flush_threshold,
                          seed=self.config.nnd.seed, reliable=reliable,
                          max_retries=max_retries, sanitize=sanitize)
        # The one backend branch: who hosts the ranks.  ``self.host``
        # runs sections and shard-state ops (``rank -> value``),
        # ``self.world`` is the comm surface the schedule drives.
        if backend == "process":
            if net is not None:
                raise ConfigError(
                    "the network cost model (net=...) requires "
                    "backend='sim': a cost model is a simulation, the "
                    "process backend runs ranks on real processes")
            self.cluster = ProcessTransport(
                self.cluster_config,
                workers=resolve_workers(self.config.workers, world_size))
            self.cluster.injector = self._injector
            self.world = self.host = ProcessWorld(self.cluster,
                                                  metrics=self.metrics)
            # Stops the workers on close() or when the last reference
            # to this build is dropped.
            self._finalizer = weakref.finalize(self, self.cluster.shutdown)
            # Each worker builds a comm world (its own injector for the
            # plan's message faults attached) and a host over its owned
            # ranks and the dataset view in its bootstrap.
            self.cluster.start(
                ("repro.core.dnnd_phases", "worker_host"),
                {"data": self._rows, "config": self.config,
                 "partitioner": self.partitioner, "world": world_opts,
                 "fault_plan": fault_plan})
        else:
            self.cluster = SimCluster(self.cluster_config, net,
                                      injector=self._injector)
            self.world = YGMWorld(self.cluster, metrics=self.metrics,
                                  failure_timeout=failure_timeout,
                                  **world_opts)
            self.host = RankHost(self.world, range(world_size),
                                 self._rows, self.config, self.partitioner)
        self._open_span = None
        self._recoveries = 0
        self._degraded_ranks: set = set()
        self._built = False
        self.metrics.set_gauge("partition.imbalance",
                               self.partitioner.max_imbalance())
        self.metrics.set_gauge("degraded.ranks", 0.0)

    # -- setup -----------------------------------------------------------------

    def _distribute(self) -> None:
        """Rebuild every shard under the current partitioner — on
        recovery without a checkpoint and when the repartition pass
        swaps the ownership layer (construction built them; not timed:
        the paper excludes data loading from construction time)."""
        self.host.command("build_shards", {"partitioner": self.partitioner})

    def _run_section(self, name: str, **params) -> Dict[int, Any]:
        """Run SPMD section ``name`` of the rank program on the live
        ranks, wherever they are hosted; returns ``rank -> result``."""
        return self.host.run_section(name, params)

    def _pump(self) -> None:
        """Ship what the emitting sections just staged, in global chunks
        of ``batch_size // world_size`` messages per rank with a barrier
        after each (Section 4.4's application-level batching; why chunk
        at all: see :func:`dnnd_phases.stage`).  Every barrier of a
        build is taken by the driver, here or in the schedule."""
        bs = self.config.batch_size
        chunk = max(1, bs // self.cluster.world_size) if bs else 0
        while True:
            left = self._run_section("pump", count=chunk)
            self.world.barrier()
            if not any(left.values()):
                return

    def close(self) -> None:
        """Release the backend's resources (nothing to release on sim;
        stops the process backend's workers).  Safe to call more than
        once; also triggered by garbage collection."""
        if self._finalizer is not None:
            self._finalizer()

    def _enter_phase(self, name: str, **args) -> None:
        """Start phase ``name``: label the barrier records that follow
        with it (and the iteration) *and* open a wall-clock span on the
        metrics timeline.  The previous phase's span is closed first, so
        phase spans form a strictly sequential, non-overlapping timeline
        (the golden-trace contract)."""
        self._close_phase()
        self.world.set_phase(name, args.get("iteration"))
        span = self.metrics.span(f"phase.{name}", **args)
        span.__enter__()
        self._open_span = span

    def _close_phase(self) -> None:
        if self._open_span is not None:
            self._open_span.__exit__(None, None, None)
            self._open_span = None

    # -- build ------------------------------------------------------------------

    def build(self, store_path=None, checkpoint_path=None,
              checkpoint_every: int = 0,
              recover_on_crash: bool = True,
              degraded: bool = False,
              max_recovery_attempts: int = 8) -> DNNDResult:
        """Construct the k-NNG; optionally persist graph + dataset.

        Parameters
        ----------
        store_path:
            If given, persist the final graph + dataset (the paper's
            first executable).
        checkpoint_path / checkpoint_every:
            Checkpoint the in-progress build every ``checkpoint_every``
            iterations into a Metall store at ``checkpoint_path``.
            :meth:`resume` continues an interrupted build from such a
            checkpoint, producing the *identical* final graph (all
            per-iteration randomness is keyed, not streamed) — the
            natural extension of Section 4.6's persistence to the
            hours-long billion-scale construction itself.
        recover_on_crash:
            When the fault injector crashes a rank mid-build, restore
            from the latest checkpoint (or restart initialization if
            none was written yet) and replay — keyed randomness makes
            the recovered build identical to a fault-free one.  Set to
            False to let :class:`~repro.errors.RankFailureError`
            propagate instead.
        degraded:
            Degraded-mode recovery: instead of rolling back, *exclude*
            the detected-failed ranks and continue the build without
            them (their traffic is discarded, their shards contribute
            nothing to convergence).  Before the final gather the
            excluded ranks are re-admitted and a neighborhood-repair
            pass rebuilds their shards (keyed re-initialization +
            survivor edge donation + bounded extra NN-Descent rounds).
            Takes precedence over checkpoint rollback when both apply.
        max_recovery_attempts:
            Bound on *consecutive* recovery cycles (supervised rollback
            or degraded exclusion) without a completed iteration; when
            exceeded the failure propagates.
        """
        if self._built:
            raise RuntimeStateError("build() already ran on this DNND instance")
        if checkpoint_every and checkpoint_path is None:
            raise ConfigError("checkpoint_every requires checkpoint_path")
        if max_recovery_attempts < 1:
            raise ConfigError("max_recovery_attempts must be >= 1")
        self._built = True
        self._init_phase()
        return self._run_iterations(
            start_iteration=0, update_counts=[],
            store_path=store_path, checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            recover_on_crash=recover_on_crash,
            degraded=degraded,
            max_recovery_attempts=max_recovery_attempts)

    @classmethod
    def resume(cls, data, checkpoint_path,
               cluster: ClusterConfig | None = None,
               net: NetworkModel | None = None,
               store_path=None,
               checkpoint_every: int = 0,
               fault_plan: Optional[FaultPlan] = None,
               reliable: bool = False,
               backend: str | None = None,
               workers: int = 0,
               partitioner: "str | Partitioner | None" = None) -> DNNDResult:
        """Continue an interrupted build from a checkpoint store.

        ``data`` must be the same dataset the original build ran on
        (the checkpoint records its fingerprint and refuses otherwise).
        The cluster shape may differ for the parametric partitioners —
        hash/block reassign vertices deterministically at the new size —
        but an explicit assignment table is pinned to its world size.
        The execution backend is likewise free: checkpoints record
        algorithm state, not the execution choice, so a build
        checkpointed under sim may resume under ``backend="process"``
        and vice versa.

        ``partitioner`` optionally *asserts* the ownership layer: a name
        (``"hash"``/``"block"``/``"rptree"``) or instance that conflicts
        with the one recorded in the checkpoint raises
        :class:`~repro.errors.ConfigError` — resume always reconstructs
        the stored ownership, never silently reassigns it.
        """
        meta, heap_ids, heap_dists, heap_flags = _load_checkpoint(
            checkpoint_path, "on resume")
        if meta["n"] != len(data):
            raise ConfigError(
                f"checkpoint was built on {meta['n']} rows, got {len(data)}"
            )
        if abs(float(meta["data_fingerprint"]) - _fingerprint(data)) > 1e-6:
            raise ConfigError(
                "checkpoint data fingerprint mismatch: not the same dataset"
            )
        config = DNNDConfig(
            nnd=NNDescentConfig(**meta["nnd"]),
            comm_opts=CommOptConfig(**meta["comm_opts"]),
            batch_size=meta["batch_size"],
            pruning_factor=meta["pruning_factor"],
            shuffle_reverse_destinations=meta["shuffle_reverse_destinations"],
            # Checkpoints older than the key resume under the ambient
            # default, as they always did.
            kernel=meta.get("kernel"),
            backend=backend,
            workers=workers,
        )
        cluster_config = cluster or ClusterConfig()
        spec = meta.get("partitioner")
        if spec is None:
            # Pre-partitioner-layer checkpoint: hash was the only form.
            spec = {"type": "hash", "n": int(meta["n"]),
                    "world_size": cluster_config.world_size}
        if partitioner is not None and not spec_matches(spec, partitioner):
            stored = spec.get("source") or spec["type"]
            wanted = (partitioner if isinstance(partitioner, str)
                      else getattr(partitioner, "source", partitioner.kind))
            raise ConfigError(
                f"checkpoint at {checkpoint_path} was built with the "
                f"{stored!r} partitioner; resume requested {wanted!r}. "
                f"Resume must reuse the stored ownership — omit the "
                f"partitioner argument to reconstruct it automatically.")
        if spec["type"] in ("hash", "block"):
            # Parametric ownership reassigns deterministically at the
            # (possibly different) resumed cluster size.
            restored = partitioner_from_spec(
                {**spec, "world_size": cluster_config.world_size})
        else:
            if int(spec["world_size"]) != cluster_config.world_size:
                raise ConfigError(
                    f"checkpoint pins an explicit id->rank assignment for "
                    f"{spec['world_size']} ranks; the resumed cluster has "
                    f"{cluster_config.world_size}. Resume with the "
                    f"original cluster shape.")
            restored = partitioner_from_spec(spec)
        dnnd = cls(data, config, cluster=cluster, net=net,
                   fault_plan=fault_plan, reliable=reliable,
                   partitioner=restored)
        dnnd._built = True
        try:
            dnnd._restore_heaps(heap_ids, heap_dists, heap_flags)
        except StoreError:
            dnnd.close()  # no workers left behind
            raise
        result = dnnd._run_iterations(
            start_iteration=int(meta["iteration"]),
            update_counts=list(meta["update_counts"]),
            store_path=store_path,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every)
        dnnd._last_result = result
        result.dnnd = dnnd  # so callers can run optimize() afterwards
        return result

    def _run_iterations(self, start_iteration: int, update_counts: List[int],
                        store_path, checkpoint_path,
                        checkpoint_every: int,
                        recover_on_crash: bool = True,
                        degraded: bool = False,
                        max_recovery_attempts: int = 8) -> DNNDResult:
        cfg = self.config.nnd
        threshold = cfg.delta * cfg.k * self.n
        self.metrics.set_gauge("convergence.threshold", threshold)
        converged = False
        iterations = start_iteration
        consecutive_failures = 0
        it = start_iteration
        while it < cfg.max_iters:
            iterations = it + 1
            if self._injector is not None:
                # Planned crashes fire here, each once; under process
                # the owning worker is SIGKILLed.  Detection surfaces at
                # the next barrier.
                for rank in self._injector.advance_iteration(it):
                    self.cluster.kill_rank(rank)
            try:
                c = self._iteration(it)
            except RankFailureError as failure:
                if not recover_on_crash and not degraded:
                    raise
                # End the failed phase's span before the recovery span
                # opens — timeline spans stay sequential even across
                # crash-recovery cycles.
                self._close_phase()
                self.world.log.abandon(self.metrics.now())
                consecutive_failures += 1
                if consecutive_failures > max_recovery_attempts:
                    # The supervisor's patience is bounded: a failure
                    # storm that never completes an iteration must
                    # surface, not loop forever.
                    raise
                if degraded:
                    # Write the dead ranks out of the build and replay
                    # the iteration without them; they are repaired and
                    # re-admitted before the final gather.
                    self._exclude_failed(failure.ranks)
                    continue
                # The barrier failed under us: roll back to the latest
                # checkpoint (message/time costs stay on the ledger —
                # the work wasted by the crash was genuinely spent) and
                # replay.  Keyed per-iteration randomness guarantees the
                # replay reconstructs the fault-free trajectory.
                self._charge_recovery_backoff(consecutive_failures)
                it = self._recover(checkpoint_path, update_counts)
                continue
            consecutive_failures = 0
            update_counts.append(c)
            if checkpoint_every and (it + 1) % checkpoint_every == 0:
                self._write_checkpoint(checkpoint_path, it + 1, update_counts)
            if c < threshold:
                converged = True
                break
            it += 1
        if self._degraded_ranks:
            self._repair_degraded(update_counts, threshold)
        graph = self._gather_graph()
        self._publish_partition_metrics(graph.ids)
        self._publish_sim_enrichment()
        log = self.world.log
        result = DNNDResult(
            graph=graph,
            iterations=iterations,
            update_counts=update_counts,
            converged=converged,
            message_stats=log.totals.messages,
            phase_stats=log.phase_stats(),
            sim_seconds=self.cluster.ledger.elapsed,
            phase_seconds=dict(self.cluster.ledger.phase_elapsed),
            distance_evals=log.totals.tally("distance.evals"),
            world_size=self.cluster.world_size,
            per_iteration_messages=log.per_iteration_messages(),
            recoveries=self._recoveries,
            degraded_ranks=tuple(sorted(self._degraded_ranks)),
            metrics=self.metrics,
        )
        if store_path is not None:
            self._persist(store_path, result)
        self._last_result = result
        return result

    def _publish_partition_metrics(self, neighbor_ids: np.ndarray) -> None:
        """Partition-layer gauges: placement balance and the fraction of
        graph edges crossing a rank boundary.  Driver-side and O(n*k),
        so every backend publishes the same names from the same code."""
        m = self.metrics
        m.set_gauge("partition.imbalance", self.partitioner.max_imbalance())
        m.set_gauge("partition.edge_cut",
                    edge_cut_fraction(self.partitioner, neighbor_ids))

    def _publish_sim_enrichment(self) -> None:
        """Sim cost-model decomposition as *enrichment* gauges
        (``sim.seconds`` / ``sim.phase.<name>.seconds``): deterministic
        modeled time, only present when the transport carries a real
        ledger — the process backend's phase timing comes from the
        wall-clock spans instead."""
        m = self.metrics
        ledger = self.cluster.ledger
        if not ledger.enabled:
            return
        m.set_gauge("sim.seconds", ledger.elapsed)
        for phase, secs in ledger.phase_elapsed.items():
            m.set_gauge(f"sim.phase.{phase}.seconds", secs)

    def _recover(self, checkpoint_path, update_counts: List[int]) -> int:
        """Crash recovery: discard in-flight traffic, repair the failed
        ranks (the replacement-node model — supervisor marks and
        injector crashes both clear), and restore algorithm state from
        the latest checkpoint — or rerun initialization when the crash
        predates the first checkpoint.  Returns the iteration to replay
        from; ``update_counts`` is rewritten in place to the restored
        history."""
        self._recoveries += 1
        with self.metrics.span("recovery.duration", cat="recovery",
                               recovery=self._recoveries):
            self.world.reset_in_flight()
            self.cluster.repair_all()
            if checkpoint_path is not None and MetallStore.exists(checkpoint_path):
                meta, ids, dists, flags = _load_checkpoint(
                    checkpoint_path, "during crash recovery")
                self._restore_heaps(ids, dists, flags)
                update_counts[:] = list(meta["update_counts"])
                return int(meta["iteration"])
            # No checkpoint yet: rebuild shards and replay initialization.
            self._distribute()
            self._init_phase()
            update_counts[:] = []
            return 0

    def _charge_recovery_backoff(self, attempt: int) -> None:
        """Supervised-recovery backoff: each consecutive failed attempt
        doubles a small modeled penalty charged to every rank (the
        replacement node's provisioning time; a wall-clock sleep would
        be meaningless against the simulated clock and pure waste on
        the process backend, whose ledger discards the charge)."""
        ledger = self.cluster.ledger
        if not ledger.enabled:
            return
        penalty = 1.0e-3 * (2.0 ** (attempt - 1))
        for r in range(self.cluster.world_size):
            ledger.charge(r, penalty)

    def _exclude_failed(self, ranks) -> None:
        """Degraded mode: write failed ``ranks`` out of the build.  The
        comm layer discards their traffic and skips them in SPMD
        sections; their shards' convergence contribution counts as zero
        while they are out (see :meth:`_iteration`)."""
        ranks = {int(r) for r in ranks} - self._degraded_ranks
        self._degraded_ranks |= ranks
        self.world.exclude_ranks(ranks)
        self.metrics.set_gauge("degraded.ranks",
                               float(len(self.world.excluded_ranks)))
        # In-flight traffic from the failed round may carry messages
        # from/to the dead ranks; drop all of it and replay the
        # iteration from its start (keyed randomness makes the replay
        # emit the same survivor-side messages).
        self.world.reset_in_flight()

    def _repair_degraded(self, update_counts: List[int],
                         threshold: float) -> None:
        """Degraded-mode epilogue: re-admit the excluded ranks and run
        the neighborhood-repair pass that rebuilds their shards —

        1. fresh heaps on the repaired ranks (a replacement node comes
           back with the dataset view and empty state),
        2. keyed re-initialization: repaired vertices replay the
           Algorithm 1 init draws (the same ``draw_key``, so the same
           candidates as a fault-free init),
        3. survivor donation: surviving ranks push the edges they
           already hold that land on repaired vertices,
        4. bounded extra NN-Descent rounds to knit the repaired
           neighborhoods back into the graph.
        """
        cfg = self.config.nnd
        with self.metrics.span("recovery.duration", cat="recovery",
                               mode="degraded-repair",
                               ranks=sorted(self._degraded_ranks)):
            self._enter_phase("repair")
            # Respawned process workers already rebuilt their shards;
            # the reset is idempotent there.
            repaired = sorted(self.world.readmit_ranks())
            self.metrics.set_gauge("degraded.ranks", 0.0)
            for stage in ("repair_reset", "repair_reinit", "repair_donate"):
                self._run_section(stage, ranks=repaired)
            self._pump()
            # Bounded extra rounds, keyed past the regular iteration
            # space so their draws are fresh; stop early once the
            # update counter falls under the convergence threshold.  The
            # repaired shards restart from reinit + donations, so they
            # need a few descent rounds — four bounds the epilogue while
            # typically reaching the fault-free neighborhood quality.
            for j in range(4):
                c = self._iteration(cfg.max_iters + 1 + j)
                update_counts.append(c)
                if c < threshold:
                    break
            self._close_phase()

    def _init_phase(self) -> None:
        """Algorithm 1 lines 2-5 via the Section 4.1 async pattern."""
        self._enter_phase("init")
        self._run_section("init")
        self._pump()

    def _iteration(self, iteration: int) -> int:
        """One NN-Descent round; returns the allreduced update counter."""
        self._enter_phase("sample", iteration=iteration)
        self._run_section("sample", iteration=iteration)
        self._enter_phase("reverse", iteration=iteration)
        self._run_section("reverse", iteration=iteration)
        self._pump()
        self._enter_phase("union", iteration=iteration)
        self._run_section("union", iteration=iteration)
        self._enter_phase("neighbor_check", iteration=iteration)
        self._run_section("check")
        self._pump()
        # ---- termination counter (line 23): allreduce of what each
        # rank's handlers accepted in this iteration's barrier records; a
        # rank excluded in degraded mode ran none and contributes zero
        # (the allreduce still collects one value per rank).
        updates = self.world.log.iteration_tally(iteration, "updates")
        return int(self.cluster.allreduce_sum(
            [updates.get(r, 0) for r in range(self.cluster.world_size)]))

    # -- gather -----------------------------------------------------------------

    def _gather_graph(self) -> KNNGraph:
        """Collect per-rank heap contents into one global KNNGraph,
        charging the gather's communication cost."""
        self._enter_phase("gather")
        k = self.config.k
        ids = np.full((self.n, k), EMPTY, dtype=np.int64)
        dists = np.full((self.n, k), np.inf, dtype=np.float64)
        by_rank = self.host.command("gather_rows")
        contributions = [by_rank.get(r, ())
                         for r in range(self.cluster.world_size)]
        per_rank_bytes = max(1, (self.n // self.cluster.world_size) * k * (ID_BYTES + 4))
        # gather follows MPI root semantics: only result[root] holds data.
        gathered = self.cluster.gather(contributions, root=0,
                                       item_bytes=per_rank_bytes)[0]
        for gids, row_ids, row_dists in filter(None, gathered):
            ids[gids] = row_ids
            dists[gids] = row_dists
        self._close_phase()
        return KNNGraph(ids, dists)

    # -- optimize (Section 4.5, the paper's second executable) --------------------

    def optimize(self, pruning_factor: Optional[float] = None) -> AdjacencyGraph:
        """Distributed reverse-edge merge + degree pruning.

        Must run after :meth:`build` (or use :func:`optimize_from_store`
        to mirror the paper's separate executable).
        """
        if not self._built:
            raise RuntimeStateError("optimize() requires build() first")
        m = pruning_factor if pruning_factor is not None else self.config.pruning_factor
        if m < 1.0:
            raise ConfigError(f"pruning_factor must be >= 1.0, got {m}")
        start = self.cluster.ledger.elapsed
        self._enter_phase("optimize")
        # Stage 1: seed local merge maps with forward edges, ship reversed
        # edges to their owners.
        self._run_section("opt_seed")
        self._run_section("opt_rev")
        self._pump()
        # Stage 2: local prune to ceil(k * m) and gather.
        max_degree = int(np.ceil(self.config.k * m))
        pruned = list(self.host.command(
            "opt_collect", {"max_degree": max_degree}).values())
        self.world.barrier()
        self._close_phase()
        self._publish_sim_enrichment()
        # CSR assembly: the ranks' edge columns hold their vertices' runs
        # back to back, closest first; a stable sort by vertex places
        # each run at its vertex's offset.
        gids, counts, nbr, d = (np.concatenate(col) for col in zip(*pruned))
        vertex = np.repeat(gids, counts)
        order = np.argsort(vertex, kind="stable")
        indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(vertex, minlength=self.n))])
        adjacency = AdjacencyGraph(indptr, nbr[order], d[order])
        if getattr(self, "_last_result", None) is not None:
            self._last_result.adjacency = adjacency
            self._last_result.optimize_sim_seconds = self.cluster.ledger.elapsed - start
            self._last_result.sim_seconds = self.cluster.ledger.elapsed
        return adjacency

    # -- repartitioning (locality pass) -----------------------------------------

    def repartition(self, partitioner: Optional[Partitioner] = None
                    ) -> KNNGraph:
        """Post-build locality pass: re-home rows and heap state.

        Measures the edge cut of the built graph under the current
        partitioner, computes a better explicit assignment (a
        capacity-bounded BFS over the graph so neighbors co-locate,
        unless ``partitioner`` overrides it), re-homes vertex ids and
        neighbor heaps to the new owners on every backend (feature rows
        never move: every host reads them from its dataset view), and
        returns the re-homed graph.  The instance's partitioner follows,
        so subsequent :meth:`optimize`, checkpoints, and searchers built
        from :attr:`partitioner` route against the new ownership.

        Failure semantics: the heap snapshot is taken *before* any
        ownership changes, so a rank failure mid-redistribution can
        always be repaired by re-running :meth:`_distribute` +
        :meth:`_restore_heaps` from the in-memory snapshot — the
        existing supervised-recovery machinery, with the snapshot in
        place of the Metall checkpoint.
        """
        if not self._built:
            raise RuntimeStateError("repartition() requires build() first")
        ids, dists, flags = self._collect_heap_state()
        if partitioner is None:
            assignment = graph_locality_assignment(
                ids, self.cluster.world_size)
            partitioner = ExplicitPartitioner(
                assignment, self.cluster.world_size, source="repartition")
        else:
            partitioner.require_covers(
                self.n, self.cluster.world_size, "this build")
        self._enter_phase("repartition")
        self.partitioner = partitioner
        self._distribute()
        self._restore_heaps(ids, dists, flags)
        self.world.barrier()
        self._close_phase()
        graph = self._gather_graph()
        self._publish_partition_metrics(graph.ids)
        self._publish_sim_enrichment()
        result = getattr(self, "_last_result", None)
        if result is not None:
            result.graph = graph
            result.sim_seconds = self.cluster.ledger.elapsed
        return graph

    # -- checkpointing ----------------------------------------------------------

    def _collect_heap_state(self):
        """Snapshot every rank's neighbor rows into ``(n, k)``
        ids/dists/flags arrays indexed by global id."""
        k = self.config.k
        ids = np.full((self.n, k), -1, dtype=np.int64)
        dists = np.full((self.n, k), np.inf, dtype=np.float64)
        flags = np.zeros((self.n, k), dtype=bool)
        for gids, r_ids, r_dists, r_flags in self.host.command(
                "ckpt_get").values():
            ids[gids] = r_ids
            dists[gids] = r_dists
            flags[gids] = r_flags
        return ids, dists, flags

    def _write_checkpoint(self, checkpoint_path, iteration: int,
                          update_counts: List[int]) -> None:
        """Persist the heap snapshot plus everything needed to rebuild
        an identical driver: algorithm config *and* the partitioner
        (type + parameters, or the full assignment table), so resume
        and recovery reconstruct identical ownership."""
        ids, dists, flags = self._collect_heap_state()
        cfg = self.config
        meta = {
            "iteration": iteration,
            "update_counts": list(update_counts),
            "n": self.n,
            "k": cfg.k,
            "data_fingerprint": _fingerprint(self.data),
            "nnd": asdict(cfg.nnd),
            "comm_opts": asdict(cfg.comm_opts),
            "batch_size": cfg.batch_size,
            "pruning_factor": cfg.pruning_factor,
            "shuffle_reverse_destinations": cfg.shuffle_reverse_destinations,
            # The kernel the build runs under (the config may defer to
            # REPRO_KERNEL, which a resuming process need not share).
            "kernel": resolve_kernel(cfg.kernel),
            "partitioner": partitioner_spec(self.partitioner),
        }
        with self.metrics.span("checkpoint.write", cat="io",
                               iteration=iteration):
            if MetallStore.exists(checkpoint_path):
                store = MetallStore.open(checkpoint_path)
            else:
                store = MetallStore.create(checkpoint_path)
            with store:
                store["ckpt_ids"] = ids
                store["ckpt_dists"] = dists
                store["ckpt_flags"] = flags
                store["ckpt_meta"] = meta

    def _restore_heaps(self, ids: np.ndarray, dists: np.ndarray,
                       flags: np.ndarray) -> None:
        if ids.shape != (self.n, self.config.k):
            raise StoreError(
                f"checkpoint heap shape {ids.shape} does not match "
                f"(n={self.n}, k={self.config.k})"
            )
        # Each host receives only its ranks' rows, not the (n, k) arrays.
        rows = {}
        for rank in range(self.cluster.world_size):
            gids = self.partitioner.local_ids(rank)
            rows[rank] = (ids[gids], dists[gids], flags[gids])
        self.host.command("ckpt_set", {"by_rank": rows})

    # -- persistence ----------------------------------------------------------

    def _persist(self, store_path, result: DNNDResult) -> None:
        """Store graph + dataset, as the paper's construction executable
        does with Metall (Section 5.1.3)."""
        with MetallStore.create(store_path) as store:
            store["graph"] = result.graph.to_arrays()
            store["dataset"] = (
                [np.asarray(self.data[i]) for i in range(self.n)]
                if self._sparse else self._rows)
            store["meta"] = {
                "k": self.config.k,
                "metric": self.config.nnd.metric,
                "n": self.n,
                "iterations": result.iterations,
                "pruning_factor": self.config.pruning_factor,
            }


def _load_checkpoint(checkpoint_path, when: str):
    """Read ``(meta, ids, dists, flags)`` from a checkpoint store,
    verifying checksums and that every row is a valid neighbor heap;
    damage surfaces as :class:`CheckpointCorruptError` naming ``when``
    it was found."""
    try:
        with MetallStore.open_read_only(checkpoint_path,
                                        verify=True) as store:
            meta, ids, dists, flags = (
                store["ckpt_meta"], np.asarray(store["ckpt_ids"]),
                np.asarray(store["ckpt_dists"]),
                np.asarray(store["ckpt_flags"]))
    except StoreCorruptError as exc:
        raise CheckpointCorruptError(
            f"checkpoint at {checkpoint_path} failed verification "
            f"{when}: {exc}") from exc
    broken = check_rows(ids, dists)
    if broken is not None:
        raise CheckpointCorruptError(
            f"checkpoint at {checkpoint_path}, read {when}: row of vertex "
            f"{broken[0]} is not a valid neighbor heap: {broken[1]}")
    return meta, ids, dists, flags


def _fingerprint(data) -> float:
    """Cheap order-sensitive dataset fingerprint for checkpoint safety."""
    if isinstance(data, np.ndarray):
        weights = np.arange(1, min(64, data.shape[0]) + 1, dtype=np.float64)
        head = data[: len(weights)].astype(np.float64)
        return float((head.sum(axis=1) * weights).sum())
    total = 0.0
    for i in range(min(64, len(data))):
        total += (i + 1) * float(np.asarray(data[i]).sum())
    return total


def optimize_from_store(store_path, pruning_factor: Optional[float] = None) -> AdjacencyGraph:
    """The paper's second executable: reopen the Metall store written by
    :meth:`DNND.build`, run the Section 4.5 optimizations, and persist
    the optimized adjacency back into the store."""
    from .optimization import optimize_graph

    with MetallStore.open(store_path) as store:
        graph = KNNGraph.from_arrays(store["graph"])
        meta = store["meta"]
        m = pruning_factor if pruning_factor is not None else meta.get("pruning_factor", 1.5)
        adjacency = optimize_graph(graph, pruning_factor=m)
        store["optimized_graph"] = adjacency.to_arrays()
        store["meta"] = {**meta, "optimized": True, "pruning_factor": m}
    return adjacency
