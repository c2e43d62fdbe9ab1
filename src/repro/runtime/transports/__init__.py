"""Transport backends for the YGM comm layer.

The :class:`~repro.runtime.transports.base.Transport` protocol is the
seam between the comm layer (buffering, coalescing, reliability, stats —
:mod:`repro.runtime.ygm`) and the machinery that moves payloads between
ranks:

- :mod:`.sim` — :class:`SimCluster`, the deterministic cost-modeled
  fault-injectable simulation (default backend),
- :mod:`.process` — :class:`ProcessTransport`, per-rank worker
  processes with pickled cross-worker frames and the dataset in
  ``multiprocessing.shared_memory`` segments.
"""

from .base import Transport
from .process import (ProcessTransport, ProcessWorld, SharedArrayOwner,
                      SharedArraySpec, attach_shared_array)
from .sim import SimCluster

__all__ = [
    "Transport",
    "SimCluster",
    "ProcessTransport",
    "ProcessWorld",
    "SharedArrayOwner",
    "SharedArraySpec",
    "attach_shared_array",
]
