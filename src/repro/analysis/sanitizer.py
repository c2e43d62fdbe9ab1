"""Runtime ownership / race sanitizer (the dynamic half of
:mod:`repro.analysis`).

The simulated runtime is one process, so nothing *physically* stops a
handler running at rank A from reaching into rank B's shard — a bug
class that would be a segfault or silent corruption on a real MPI
cluster and that the static linter can only catch when the access is
syntactically obvious.  The sanitizer catches it dynamically:

- **Ownership**: rank-owned state is tagged with its owner rank
  (``RankContext.state`` becomes an :class:`OwnedState`, neighbor heaps
  carry an owner tag).  A columnar handler run delivers to a set of
  ranks (a host's, in one round) and may touch only their state; a
  per-message handler executes row by row *as* the row's destination
  rank.  Any other read/write of rank-owned state raises
  :class:`~repro.errors.OwnershipViolationError`.  Driver code between
  barriers (the SPMD program counter) may optionally mark which rank it
  is acting as via :meth:`Sanitizer.rank_scope`; unscoped driver access
  (e.g. post-barrier gathers) is allowed.
- **Re-entrancy**: registered handlers are wrapped so that a handler
  synchronously invoking another handler (instead of ``async_call``)
  raises :class:`~repro.errors.HandlerReentrancyError`.
- **Mutation during iteration**: a heap mutated while its ``entries()``
  iterator is live raises
  :class:`~repro.errors.MutationDuringIterationError`.

Enable with ``REPRO_SANITIZE=1`` in the environment or an explicit
``sanitize=True`` on :class:`~repro.runtime.ygm.YGMWorld` /
:class:`~repro.core.dnnd.DNND`.  When off, the world keeps
``sanitizer = None``, ``RankContext.state`` stays a plain dict, handlers
stay unwrapped, and the only residual cost is a single ``is None`` test
on heap mutation — the same zero-overhead discipline as the fault
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
    MutationDuringIterationError,
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
    ``current_handler``) is thread-local: the context a thread checks
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

    @property
    def current_handler(self) -> Optional[str]:
        return getattr(self._tls, "current_handler", None)

    @current_handler.setter
    def current_handler(self, value: Optional[str]) -> None:
        self._tls.current_handler = value

    # -- access checks -------------------------------------------------------

    def check_access(self, owner: int, what: str) -> None:
        """Raise unless the current execution context may touch state
        owned by ``owner``: code executing as a rank may touch that
        rank's state, a columnar handler run the state of the ranks it
        delivers to."""
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
        where = (f"handler {self.current_handler!r}"
                 if self.current_handler is not None else "rank scope")
        raise OwnershipViolationError(
            f"{what} owned by rank {owner} accessed from {where} "
            f"executing at {at}; cross-rank effects must go "
            "through async_call to the owner",
            owner=owner, accessor=rank)

    def check_iteration(self, live_iterators: int, what: str) -> None:
        if live_iterators:
            raise MutationDuringIterationError(
                f"{what} mutated while {live_iterators} live iterator(s) "
                "are walking it; finish (or materialize) the iteration "
                "before mutating")

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
                    f"handler {self.current_handler!r}; handlers are "
                    "atomic delivery units — send an async_call instead")
            self.handler_depth = 1
            previous = (self.active_rank, self.active_ranks,
                        self.current_handler)
            self.active_rank = None
            self.active_ranks = frozenset(dest.tolist())
            self.current_handler = name
            try:
                fn(world, dest, *columns)
            finally:
                self.handler_depth = 0
                (self.active_rank, self.active_ranks,
                 self.current_handler) = previous

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


def tag_heap(heap: Any, sanitizer: Sanitizer, owner: int) -> None:
    """Attach owner metadata to a :class:`~repro.core.heap.NeighborHeap`
    (or anything exposing the ``_san``/``_san_owner`` slots)."""
    heap._san = sanitizer
    heap._san_owner = int(owner)
