"""Worker-side host of the DNND rank program for the process backend.

Each worker process runs a :class:`ProcessDNNDApp` around an in-process
:class:`~repro.runtime.ygm.YGMWorld` (the one comm layer — its
buffering/coalescing/batch machinery is reused verbatim; only the
transport underneath ships cross-worker frames).  The app holds no
algorithm of its own: it registers the ``dnnd_phases`` handlers, builds
its owned ranks' shards over the driver's shared-memory dataset segment
(mapped read-only; the view every :class:`LocalShard` resolves message
features from), and executes the driver's broadcast commands by looking
sections and shard-state ops up in the same ``dnnd_phases`` tables the
driver uses for the sim world.  The driver stays the SPMD
program counter.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from ..errors import CheckpointCorruptError, RuntimeStateError
from ..runtime.transports.process import WorkerComm, attach_shared_array
from ..runtime.ygm import RankContext, YGMWorld
from .dnnd_phases import (SECTIONS, SHARD_OPS, build_shards, ckpt_set,
                          register_dnnd_handlers, shard_totals)


def bootstrap(comm: WorkerComm, params: dict) -> "ProcessDNNDApp":
    """Worker entry point (named in the driver's spawn bootstrap)."""
    return ProcessDNNDApp(comm, params)


class ProcessDNNDApp:
    """Hosts the worker's owned ranks: their shards, heaps, and the
    in-process comm world.  ``dispatch`` executes the driver's broadcast
    commands — sections over the owned, non-excluded ranks; shard-state
    ops over every owned rank."""

    def __init__(self, comm: WorkerComm, params: dict) -> None:
        # The segment handle must outlive the view the shards read.
        self._shm, self.data = attach_shared_array(params["spec"])
        self.comm = comm
        self.config = params["config"]
        self.world = YGMWorld(
            comm.transport,
            flush_threshold=int(params.get("flush_threshold", 1024)),
            seed=self.config.nnd.seed,
            sanitize=False)
        register_dnnd_handlers(self.world)
        self._commands = {
            "build_shards": self._cmd_build_shards,
            "section": self._cmd_section,
            "set_phase": self._cmd_set_phase,
            "export_stats": self._cmd_export_stats,
            "shard_totals": self._cmd_shard_totals,
            "exclude": self._cmd_exclude,
            "readmit": self._cmd_readmit,
            "ckpt_set": self._cmd_ckpt_set,
        }
        self._cmd_build_shards(params)

    # -- runtime hooks --------------------------------------------------------

    def dispatch(self, cmd: str, payload: Any) -> Any:
        payload = payload or {}
        fn = self._commands.get(cmd)
        if fn is not None:
            return fn(payload)
        op = SHARD_OPS.get(cmd)
        if op is None:
            raise RuntimeStateError(f"unknown worker command {cmd!r}")
        return {ctx.rank: op(ctx, **payload) for ctx in self._owned()}

    def on_reset(self) -> None:
        """Epoch change: the comm layer's in-flight state was already
        cleared by the runtime; shard state survives (the supervisor
        decides whether to rebuild or restore it)."""

    def _owned(self, live_only: bool = False) -> Iterator[RankContext]:
        """Owned rank contexts; ``live_only`` drops excluded ranks (the
        SPMD section scope)."""
        excluded = self.world.excluded_ranks if live_only else ()
        for rank in self.comm.owned:
            if rank not in excluded:
                yield self.world.ranks[rank]

    # -- commands -------------------------------------------------------------

    def _cmd_build_shards(self, payload: dict) -> None:
        """(Re)build the owned shards under ``payload["partitioner"]`` —
        at bootstrap, on recovery, and when the repartition pass swaps
        the ownership layer.  Heap contents are restored separately via
        ``ckpt_set``."""
        build_shards(self._owned(), payload["partitioner"], self.data,
                     self.config)

    def _cmd_section(self, payload: dict) -> dict:
        fn = SECTIONS.get(payload["name"])
        if fn is None:
            raise RuntimeStateError(
                f"unknown worker section {payload['name']!r}")
        params = payload.get("params", {})
        return {ctx.rank: fn(ctx, **params)
                for ctx in self._owned(live_only=True)}

    def _cmd_set_phase(self, payload: dict) -> None:
        self.world.set_phase(payload["phase"])

    def _cmd_export_stats(self, payload: dict) -> dict:
        world = self.world
        stats = world.cluster.stats
        return {
            "stats": {t: (s.count, s.bytes, s.offnode_count, s.offnode_bytes)
                      for t, s in stats.by_type.items()},
            "phases": {
                phase: {t: (s.count, s.bytes, s.offnode_count,
                            s.offnode_bytes)
                        for t, s in ms.by_type.items()}
                for phase, ms in world.phase_stats.items()},
            "flushes": world.flush_count,
            "invocations": world.handler_invocations,
            "locals": world.local_deliveries,
        }

    def _cmd_shard_totals(self, payload: dict) -> list:
        # Row form: ProcessWorld.shard_totals folds these into per-rank
        # bases that survive a worker's death.
        return [(ctx.rank, *shard_totals(ctx)) for ctx in self._owned()]

    def _cmd_exclude(self, payload: dict) -> None:
        self.world.exclude_ranks(payload["ranks"])

    def _cmd_readmit(self, payload: dict) -> None:
        self.world.readmit_ranks()

    def _cmd_ckpt_set(self, payload: dict) -> Optional[str]:
        """Restore this worker's slice of a checkpoint.  A semantically
        corrupt row comes back as its message, not as a raised error, so
        the driver can re-raise it typed instead of as a wrapped worker
        traceback."""
        try:
            for rank, rows in payload["heaps"].items():
                ckpt_set(self.world.ranks[int(rank)], *rows)
        except CheckpointCorruptError as exc:
            return str(exc)
        return None
