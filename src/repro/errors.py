"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by public API entry points derive from
:class:`ReproError` so that callers can catch library failures with a
single ``except`` clause while letting programming errors (``TypeError``,
``ValueError`` raised by numpy, etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """An algorithm or runtime configuration value is invalid."""


class MetricError(ReproError):
    """An unknown metric name was requested, or a metric was applied to
    data of an incompatible kind (e.g. Jaccard on dense vectors)."""


class RuntimeStateError(ReproError):
    """The simulated runtime was used outside of its legal lifecycle
    (e.g. sending messages after shutdown, nested barriers)."""


class PartitionError(ReproError):
    """A vertex id was routed to or dereferenced on the wrong rank."""


class StoreError(ReproError):
    """A persistent-store (Metall-style) operation failed: missing store,
    double-create, unknown attached object, version mismatch."""


class StoreCorruptError(StoreError):
    """A stored object failed integrity verification on load: truncated
    file, checksum mismatch, or an unparseable payload.  Raised instead
    of the raw deserialization error so callers can distinguish
    corruption (restore from an older snapshot) from absence."""


class CheckpointCorruptError(StoreCorruptError):
    """A build checkpoint is unusable: the recovery path verified the
    snapshot before trusting it and found it corrupt.  Supervised
    recovery treats this as unrecoverable-from-this-checkpoint rather
    than crashing mid-restore with a pickle/numpy parse error."""


class GraphError(ReproError):
    """A k-NN graph container invariant was violated (shape mismatch,
    duplicate neighbor insertion with inconsistent distance, etc.)."""


class SearchError(ReproError):
    """A query-time failure: empty graph, dimension mismatch between the
    query vector and the indexed dataset, invalid ``epsilon``."""


class DatasetError(ReproError):
    """A dataset generator or loader received invalid parameters or a
    malformed file."""


class SanitizerError(ReproError):
    """Base class for runtime-sanitizer detections (``REPRO_SANITIZE=1``):
    each subclass is one class of distributed-correctness bug caught at
    the moment it happens instead of as a corrupted build later."""


class OwnershipViolationError(SanitizerError):
    """Rank-owned state (a shard, a neighbor heap, a container slot) was
    read or written from a handler executing at a *different* rank.  On
    a real cluster that memory simply does not exist at the accessing
    process; the sanctioned channel is an ``async_call`` delivered at
    the owner."""

    def __init__(self, message: str, *, owner: int | None = None,
                 accessor: int | None = None) -> None:
        super().__init__(message)
        self.owner = owner
        self.accessor = accessor


class HandlerReentrancyError(SanitizerError):
    """A registered handler was invoked while another handler was still
    running (a direct synchronous call instead of an ``async_call``) —
    YGM handlers are atomic units of delivery and must not nest."""


class FaultToleranceError(ReproError):
    """Fault-tolerant delivery could not mask an injected fault: the
    retry budget for a message was exhausted, or a rank failed with no
    recovery path configured.  Carries enough structure for callers to
    report *what* gave up rather than silently corrupting the build."""

    def __init__(self, message: str, *, src: int | None = None,
                 dest: int | None = None, attempts: int | None = None) -> None:
        super().__init__(message)
        self.src = src
        self.dest = dest
        self.attempts = attempts


class RankFailureError(FaultToleranceError):
    """One or more simulated ranks crashed; raised by the barrier that
    detects the failure (the driver may recover from a checkpoint)."""

    def __init__(self, ranks) -> None:
        self.ranks = tuple(sorted(int(r) for r in ranks))
        super().__init__(f"rank(s) {list(self.ranks)} crashed; barrier failed")

    def __reduce__(self):
        # Built from its ranks, not from ``args`` (the message): without
        # this the error could not cross a process boundary.
        return (type(self), (self.ranks,))
