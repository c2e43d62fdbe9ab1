"""Worker-side entry point of the process backend.

Each worker process runs one :class:`~.dnnd_phases.RankHost` — the same
class the sim driver holds over all ranks — over the ranks it owns,
around an in-process :class:`~repro.runtime.ygm.YGMWorld` (the one comm
layer; only the transport underneath ships cross-worker frames).  What
is particular to a worker is only where its dataset view comes from:
the driver's shared-memory segment, mapped read-only.
"""

from __future__ import annotations

from ..runtime.transports.process import WorkerComm, attach_shared_array
from ..runtime.ygm import YGMWorld
from .dnnd_phases import RankHost


def bootstrap(comm: WorkerComm, params: dict) -> RankHost:
    """Worker entry point (named in the driver's spawn bootstrap)."""
    segment, data = attach_shared_array(params["spec"])
    config = params["config"]
    world = YGMWorld(comm.transport,
                     flush_threshold=params["flush_threshold"],
                     seed=config.nnd.seed, sanitize=False)
    host = RankHost(world, comm.owned, data, config, params["partitioner"])
    # The segment handle must outlive the view the shards read.
    host.segment = segment
    return host
