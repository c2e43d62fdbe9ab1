"""Transport backends for the YGM comm layer.

The :class:`~repro.runtime.transports.base.Transport` protocol is the
seam between the comm layer (buffering, coalescing, reliability, stats —
:mod:`repro.runtime.ygm`) and the machinery that moves payloads between
ranks:

- :mod:`.sim` — :class:`SimCluster`, the deterministic cost-modeled
  fault-injectable simulation (default backend),
- :mod:`.process` — :class:`ProcessTransport`, per-rank worker
  processes with pickled cross-worker frames; the dataset reaches them
  as a start parameter (inherited under ``fork``).
"""

from .base import Transport
from .process import ProcessTransport, ProcessWorld
from .sim import SimCluster

__all__ = [
    "Transport",
    "SimCluster",
    "ProcessTransport",
    "ProcessWorld",
]
