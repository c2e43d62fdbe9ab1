"""Distributed-correctness static analysis + runtime sanitizer.

The simulated DNND runtime makes two promises the rest of the repo leans
on:

1. **Determinism** — a build is a pure function of (dataset, config,
   seed).  Crash recovery (PR 1) replays from a checkpoint and must land
   on a bit-identical graph; the ablation tables compare runs that must
   differ only in the knob under study.  One unseeded ``np.random`` call
   or one iteration over an unordered ``set`` in message-emitting code
   silently breaks both.
2. **Ownership** — rank state (feature shards, neighbor heaps, container
   slots) is touched only by its owner rank; the sanctioned channel for
   cross-rank effects is an ``async_call`` handler *delivered at* the
   owner (Section 4's vertex/neighbor-list co-location).

This package enforces both:

- :mod:`repro.analysis.engine` + the rule modules implement an AST
  linter (``python -m repro.analysis [paths]``) with a determinism rule
  set (REP1xx), an RPC-contract rule set (REP2xx), and a thread-safety
  rule set (REP4xx) for code that runs on threads (the query thread
  pool of ``eval/parallel_query.py``), machine-readable
  findings (``--format json`` / ``--format sarif``), and per-line
  ``# repro: ignore[RULE]`` suppressions,
- :mod:`repro.analysis.sanitizer` implements the runtime half: with
  ``REPRO_SANITIZE=1`` (or an explicit ``sanitize=True``), rank-owned
  state is tagged with its owner and cross-rank access from handler
  context raises :class:`~repro.errors.OwnershipViolationError`;
  handler re-entrancy and heap mutation-during-iteration are detected
  too.  When off, none of the machinery is installed (zero overhead,
  regression-tested like the fault injector).
"""

from __future__ import annotations

from .config import AnalysisConfig, load_config
from .engine import run_analysis
from .findings import ERROR, WARNING, Finding, to_sarif
from .registry import RULES
from .sanitizer import OwnedState, Sanitizer, sanitizer_requested

__all__ = [
    "AnalysisConfig",
    "ERROR",
    "Finding",
    "OwnedState",
    "RULES",
    "Sanitizer",
    "WARNING",
    "load_config",
    "run_analysis",
    "sanitizer_requested",
    "to_sarif",
]
