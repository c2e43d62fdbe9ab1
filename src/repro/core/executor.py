"""Execution-backend resolution: which backend a build runs on and with
how many worker processes, from the config value, then the environment.

``sim`` is the deterministic default (rank sections run inline on the
driver, cost-modeled); ``process`` runs the same rank hosts in worker
processes (DESIGN.md §11).  The choice is made once, when a
:class:`~repro.core.dnnd.DNND` is constructed.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

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
