"""Execution backends: where the per-rank program sections run.

The runtime is layered as Transport / Comm / Executor:

- the **Transport** (:mod:`repro.runtime.transports`) moves payloads
  between per-rank mailboxes,
- the **YGM comm layer** (:mod:`repro.runtime.ygm`) buffers, coalesces,
  and accounts messages on top of it,
- the **Executor** (this module) names the backend a build resolved to
  and owns its worker count and teardown.

:class:`SimExecutor` is the deterministic default: rank sections run
inline on the driver in rank order (bit-identical graphs, message
ledgers, and cost accounting).  :class:`ProcessExecutor` stands for
worker *processes* that each run the same comm layer over their owned
ranks (DESIGN.md §11, §15); the cost ledger and message-level fault
injection are sim-only.
"""

from __future__ import annotations

import os
import weakref
from typing import Callable, Dict, Optional

from ..config import check_backend
from ..errors import ConfigError

#: Environment knobs honoured when the config leaves the choice open.
BACKEND_ENV = "REPRO_BACKEND"
WORKERS_ENV = "REPRO_WORKERS"


def resolve_backend(backend: Optional[str],
                    env: Optional[Dict[str, str]] = None) -> str:
    """Resolve a configured backend name: explicit config value wins,
    then the ``REPRO_BACKEND`` environment variable, then ``"sim"``."""
    environ = os.environ if env is None else env
    if backend is None:
        backend = environ.get(BACKEND_ENV, "").strip().lower() or "sim"
    check_backend(backend)
    return backend


def resolve_workers(workers: int, world_size: int,
                    env: Optional[Dict[str, str]] = None) -> int:
    """Resolve a worker count: ``0`` means auto (``REPRO_WORKERS`` if
    set, else the machine's core count), capped at ``world_size`` —
    more workers than ranks would own nothing."""
    environ = os.environ if env is None else env
    if workers < 0:
        raise ConfigError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        env_workers = environ.get(WORKERS_ENV, "").strip()
        if env_workers:
            try:
                workers = int(env_workers)
            except ValueError as exc:
                raise ConfigError(
                    f"{WORKERS_ENV}={env_workers!r} is not an integer") from exc
            if workers <= 0:
                raise ConfigError(
                    f"{WORKERS_ENV} must be a positive integer, "
                    f"got {env_workers!r}")
        else:
            workers = os.cpu_count() or 1
    return max(1, min(int(workers), int(world_size)))


class Executor:
    """What every backend's executor carries: its name, worker count,
    dispatch counter and teardown hook."""

    backend = "sim"

    def __init__(self, workers: int = 1) -> None:
        self.workers = int(workers)
        #: Sections broadcast to the workers — published as the
        #: ``executor.dispatches`` metric.  A scheduling detail, not a
        #: workload invariant: the sim backend runs sections inline and
        #: reports none.
        self.dispatches = 0

    def shutdown(self) -> None:
        """Release scheduling resources (idempotent)."""


class SimExecutor(Executor):
    """The deterministic inline executor: nothing to schedule or
    release."""


class ProcessExecutor(Executor):
    """Executor facade for the process backend.

    The real scheduling lives in
    :class:`repro.runtime.transports.process.ProcessTransport`: worker
    *processes* hold persistent per-rank state (shards, heaps, comm
    worlds) between barriers and the driver broadcasts named sections to
    them.  This class carries the backend name, worker count,
    ``executor.dispatches`` metric (bumped by the process world per
    broadcast section), and teardown hook."""

    backend = "process"

    def __init__(self, workers: int) -> None:
        super().__init__(workers)
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        self._finalizer: Optional[weakref.finalize] = None

    def bind(self, teardown: Callable[[], None]) -> None:
        """Attach the transport/shared-memory teardown callback invoked
        by :meth:`shutdown` (idempotent by contract of the callee).
        Registered as a GC finalizer so dropping the last reference to
        the executor also stops the worker processes — ``teardown``
        must therefore not capture its owner (a closure over the
        transport + segment owner, not a bound method)."""
        self._finalizer = weakref.finalize(self, teardown)

    def shutdown(self) -> None:
        if self._finalizer is not None:
            self._finalizer()


def make_executor(backend: str, workers: int, world_size: int,
                  env: Optional[Dict[str, str]] = None) -> Executor:
    """Build the executor for a resolved backend name."""
    backend = resolve_backend(backend, env)
    if backend == "sim":
        return SimExecutor()
    return ProcessExecutor(resolve_workers(workers, world_size, env))
