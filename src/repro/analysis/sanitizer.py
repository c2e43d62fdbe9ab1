"""Runtime ownership / race sanitizer (the dynamic half of
:mod:`repro.analysis`).

The simulated runtime is one process, so nothing *physically* stops a
handler running at rank A from reaching into rank B's shard — a bug
class that would be a segfault or silent corruption on a real MPI
cluster and that the static linter can only catch when the access is
syntactically obvious.  The sanitizer catches it dynamically:

- **Ownership**: rank-owned state is tagged with its owner rank
  (``RankContext.state`` becomes an :class:`OwnedState`), and every
  write to a host's neighbor rows passes one check
  (``HostBlock.check_write``) of the rank each row belongs to.  A
  columnar handler run delivers to a set of ranks (a host's, in one
  round) and may touch only their state, a host's section only its live
  ranks'; a per-message handler executes row by row *as* the row's
  destination rank.  Any other read/write of rank-owned state raises
  :class:`~repro.errors.OwnershipViolationError` naming the handler or
  section.  Driver code between barriers may optionally mark which rank
  it is acting as via :meth:`Sanitizer.rank_scope`; unscoped driver
  access (e.g. post-barrier gathers) is allowed.
- **Re-entrancy**: registered handlers are wrapped so that a handler
  synchronously invoking another handler (instead of ``async_call``)
  raises :class:`~repro.errors.HandlerReentrancyError`.

Enable with ``REPRO_SANITIZE=1`` in the environment or an explicit
``sanitize=True`` on :class:`~repro.runtime.ygm.YGMWorld` /
:class:`~repro.core.dnnd.DNND`.  When off, the world keeps
``sanitizer = None``, ``RankContext.state`` stays a plain dict, handlers
stay unwrapped, and the only residual cost is a single ``is None`` test
per row write — the same zero-overhead discipline as the fault
injector (regression-tested: a sanitized build is bit-identical to an
unsanitized one, including message stats and simulated time).
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Optional

from ..errors import (
    ConfigError,
    HandlerReentrancyError,
    OwnershipViolationError,
)

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def sanitizer_requested(env: Optional[Dict[str, str]] = None) -> bool:
    """True when ``REPRO_SANITIZE`` asks for the sanitizer.  The value
    ``race`` selected the thread backend's race sanitizer; both are
    gone, and asking for it is an error rather than a silent no-op."""
    environ = os.environ if env is None else env
    value = environ.get("REPRO_SANITIZE", "").strip().lower()
    if value == "race":
        raise ConfigError(
            "REPRO_SANITIZE=race (the race sanitizer) was removed with "
            "the thread backend 'parallel': concurrent ranks now run in "
            "separate processes (backend 'process') and share no heap; "
            "REPRO_SANITIZE=1 still checks rank ownership")
    return value in _TRUTHY


class Sanitizer:
    """Per-world dynamic checker.  One instance is attached to a
    :class:`~repro.runtime.ygm.YGMWorld` when sanitizing; ``None``
    otherwise, so every guard is a single attribute test when off.

    Execution-context state (``active_rank`` / ``handler_depth`` /
    ``current_run``) is thread-local: the context a thread checks
    against must be its own.  The violation counters stay shared (they
    only matter when an error is already being raised)."""

    __slots__ = ("_tls", "violations", "reentrancy_detected")

    def __init__(self) -> None:
        self._tls = threading.local()
        #: Counters for introspection/tests.
        self.violations = 0
        self.reentrancy_detected = 0

    #: Rank the current code is executing *as*: set during handler
    #: delivery and inside :meth:`rank_scope` sections; ``None`` in
    #: plain driver context (where access is unrestricted).
    @property
    def active_rank(self) -> Optional[int]:
        return getattr(self._tls, "active_rank", None)

    @active_rank.setter
    def active_rank(self, value: Optional[int]) -> None:
        self._tls.active_rank = value

    #: Ranks a columnar handler run is delivering to (``None`` outside
    #: one): with no ``active_rank`` set, code may touch their state.
    @property
    def active_ranks(self) -> Optional[frozenset]:
        return getattr(self._tls, "active_ranks", None)

    @active_ranks.setter
    def active_ranks(self, value: Optional[frozenset]) -> None:
        self._tls.active_ranks = value

    @property
    def handler_depth(self) -> int:
        return getattr(self._tls, "handler_depth", 0)

    @handler_depth.setter
    def handler_depth(self, value: int) -> None:
        self._tls.handler_depth = value

    #: The run the current code belongs to (``"handler 'x'"``,
    #: ``"section 'y'"``), named by a violation; ``None`` outside one.
    @property
    def current_run(self) -> Optional[str]:
        return getattr(self._tls, "current_run", None)

    @current_run.setter
    def current_run(self, value: Optional[str]) -> None:
        self._tls.current_run = value

    # -- access checks -------------------------------------------------------

    def check_access(self, owner: int, what: str) -> None:
        """Raise unless the current execution context may touch state
        owned by ``owner``: code executing as a rank may touch that
        rank's state, a handler run or a host section the state of the
        ranks it covers."""
        rank = self.active_rank
        if rank is None:
            ranks = self.active_ranks
            if ranks is None or owner in ranks:
                return
            at = f"ranks {sorted(ranks)}"
        elif rank == owner:
            return
        else:
            at = f"rank {rank}"
        self.violations += 1
        raise OwnershipViolationError(
            f"{what} owned by rank {owner} accessed from "
            f"{self.current_run or 'rank scope'} executing at {at}; "
            "cross-rank effects must go through async_call to the owner",
            owner=owner, accessor=rank)

    # -- execution contexts --------------------------------------------------

    @contextmanager
    def rank_scope(self, rank: int) -> Iterator[None]:
        """Mark driver code as executing *as* ``rank`` (an SPMD program
        section), so accidental cross-rank touches raise."""
        previous = self.active_rank
        self.active_rank = int(rank)
        try:
            yield
        finally:
            self.active_rank = previous

    @contextmanager
    def run_scope(self, ranks, label: str) -> Iterator[None]:
        """Mark code as one run over ``ranks`` — a handler run over its
        destination ranks, a host's section over its live ranks — which
        may touch their state only; a violation names ``label``."""
        previous = (self.active_rank, self.active_ranks, self.current_run)
        self.active_rank = None
        self.active_ranks = frozenset(ranks)
        self.current_run = label
        try:
            yield
        finally:
            (self.active_rank, self.active_ranks,
             self.current_run) = previous

    def wrap_handler(self, name: str,
                     fn: Callable[..., None]) -> Callable[..., None]:
        """Wrap a registered columnar handler with re-entrancy + rank
        tracking.  At delivery it is called ``(world, dest, *columns)``:
        the run executes at the ranks in ``dest``, and may touch their
        state (a per-message handler narrows that to one row's rank)."""

        def sanitized_handler(world: Any, dest: Any, *columns: Any) -> None:
            if self.handler_depth:
                self.reentrancy_detected += 1
                raise HandlerReentrancyError(
                    f"handler {name!r} invoked synchronously inside "
                    f"{self.current_run}; handlers are "
                    "atomic delivery units — send an async_call instead")
            self.handler_depth = 1
            try:
                with self.run_scope(dest.tolist(), f"handler {name!r}"):
                    fn(world, dest, *columns)
            finally:
                self.handler_depth = 0

        sanitized_handler.__name__ = getattr(fn, "__name__", name)
        sanitized_handler.__wrapped__ = fn  # type: ignore[attr-defined]
        return sanitized_handler


class OwnedState(dict):
    """Rank-local state namespace with an owner tag.

    Substituted for ``RankContext.state`` when sanitizing; every lookup
    and mutation consults the sanitizer.  (Plain ``dict`` is used when
    the sanitizer is off, so the hot path is untouched.)
    """

    __slots__ = ("_san", "_owner")

    def __init__(self, sanitizer: Sanitizer, owner: int) -> None:
        super().__init__()
        self._san = sanitizer
        self._owner = int(owner)

    def _check(self, key: Any) -> None:
        self._san.check_access(self._owner, f"state[{key!r}]")

    def __getitem__(self, key: Any) -> Any:
        self._check(key)
        return super().__getitem__(key)

    def __setitem__(self, key: Any, value: Any) -> None:
        self._check(key)
        super().__setitem__(key, value)

    def __delitem__(self, key: Any) -> None:
        self._check(key)
        super().__delitem__(key)

    def get(self, key: Any, default: Any = None) -> Any:
        self._check(key)
        return super().get(key, default)

    def setdefault(self, key: Any, default: Any = None) -> Any:
        self._check(key)
        return super().setdefault(key, default)

    def pop(self, key: Any, *default: Any) -> Any:
        self._check(key)
        return super().pop(key, *default)
