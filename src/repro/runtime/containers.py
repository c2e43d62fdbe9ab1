"""YGM-style distributed containers.

The real YGM ships distributed containers (``ygm::container::bag``,
``map``, ``counting_set``) built on the async RPC layer; TriPoll and
DNND-adjacent applications use them for irregular aggregations.  This
module provides the simulated equivalents on :class:`YGMWorld`:

- :class:`DistributedBag` — unordered multiset; ``async_insert`` sends
  the item to a pseudo-random owner (load balancing), ``gather`` and
  ``local_size`` read it back,
- :class:`DistributedCounter` — a counting map keyed by hashable items,
  owner-partitioned by hash; supports ``async_add`` and global top-k,
- :class:`DistributedMap` — an owner-partitioned key-value map with
  ``async_insert`` / ``async_visit`` (run a named callback *at* the
  key's owner — YGM's signature idiom).

All mutation is fire-and-forget; reads require a preceding
``world.barrier()``, exactly like the real library.
"""

from __future__ import annotations

import hashlib
from itertools import count
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..errors import RuntimeStateError
from .partition import Partitioner, splitmix64
from .ygm import RankContext, YGMWorld

_REGISTRY_KEY = "_ygm_containers"
_VISIT_REGISTRY: Dict[str, Callable] = {}


def _container_state(ctx: RankContext, cid: str, kind: str):
    registry = ctx.state.setdefault(_REGISTRY_KEY, {})
    if cid not in registry:
        registry[cid] = [] if kind == "bag" else {}
    return registry[cid]


def _h_bag_insert(ctx: RankContext, cid: str, item: Any) -> None:
    _container_state(ctx, cid, "bag").append(item)


def _h_counter_add(ctx: RankContext, cid: str, key: Any, amount: int) -> None:
    state = _container_state(ctx, cid, "map")
    state[key] = state.get(key, 0) + amount


def _h_map_insert(ctx: RankContext, cid: str, key: Any, value: Any,
                  seq: int) -> None:
    # Same-destination inserts from different source ranks arrive in
    # flush order, not send order.  Every insert carries the world's
    # insert sequence (stamped at send time); applying same-key writes
    # in sequence order makes "last writer" mean the last *sender*,
    # stable under flush order, retransmission, and injected reordering.
    state = _container_state(ctx, cid, "map")
    seqs = _container_state(ctx, f"{cid}#seq", "map")
    prev = seqs.get(key)
    if prev is None or seq >= prev:
        state[key] = value
        seqs[key] = seq


def _h_map_visit(ctx: RankContext, cid: str, key: Any, visitor: str,
                 args: tuple) -> None:
    fn = _VISIT_REGISTRY.get(visitor)
    if fn is None:
        raise RuntimeStateError(f"unknown visitor {visitor!r}")
    state = _container_state(ctx, cid, "map")
    fn(ctx, state, key, *args)


def register_visitor(name: str, fn: Callable) -> None:
    """Register a map visitor callable ``fn(ctx, local_map, key, *args)``.

    Visitors run at the key's owner rank (YGM's ``async_visit``)."""
    if name in _VISIT_REGISTRY:
        raise RuntimeStateError(f"visitor {name!r} already registered")
    _VISIT_REGISTRY[name] = fn


def _ensure_handlers(world: YGMWorld) -> None:
    if hasattr(world, "_container_seq"):
        return
    world.register_handlers(
        _bag_insert=_h_bag_insert,
        _counter_add=_h_counter_add,
        _map_insert=_h_map_insert,
        _map_visit=_h_map_visit,
    )
    # The map's insert sequence: one per world, so every handle of a
    # map (and every map) stamps from the same counter.
    world._container_seq = count()  # type: ignore[attr-defined]


def _stable_hash(key: Any) -> int:
    """``hash(key)``, except that the per-interpreter salted hashes of
    ``str`` and ``bytes`` (also inside tuples) are replaced by a fixed
    digest, so placement does not depend on ``PYTHONHASHSEED``."""
    if isinstance(key, str):
        key = key.encode("utf-8", "surrogatepass")
    if isinstance(key, bytes):
        return int.from_bytes(
            hashlib.blake2b(key, digest_size=8).digest(), "little")
    if isinstance(key, tuple):
        return hash(tuple(_stable_hash(k) for k in key))
    return hash(key)


#: An ownership policy for container keys: either a callable mapping a
#: key to its owning rank, or a :class:`Partitioner` (whose ``owner``
#: is used directly — suitable when keys are vertex ids below ``n``).
OwnerPolicy = Union[Callable[[Any], int], Partitioner]


class _ContainerBase:
    _kind = "map"

    def __init__(self, world: YGMWorld, name: str,
                 owner: Optional[OwnerPolicy] = None) -> None:
        _ensure_handlers(world)
        self.world = world
        self.cid = f"{type(self).__name__}:{name}"
        if isinstance(owner, Partitioner):
            self._owner_fn: Optional[Callable[[Any], int]] = owner.owner
        else:
            self._owner_fn = owner

    def _owner_of(self, key: Any) -> int:
        # Default: splitmix64 over the key's stable hash — ``hash(key)``
        # for ints, a fixed digest for strings and bytes.
        if self._owner_fn is None:
            return int(splitmix64(_stable_hash(key) & ((1 << 63) - 1))
                       % self.world.world_size)
        rank = int(self._owner_fn(key))
        if not 0 <= rank < self.world.world_size:
            raise RuntimeStateError(
                f"owner policy for {self.cid} returned rank {rank}, "
                f"outside [0, {self.world.world_size})")
        return rank

    def _local(self, rank: int):
        return _container_state(self.world.ranks[rank], self.cid, self._kind)


class DistributedBag(_ContainerBase):
    """Unordered distributed multiset with round-robin-ish placement."""

    _kind = "bag"

    def __init__(self, world: YGMWorld, name: str = "bag") -> None:
        super().__init__(world, name)
        self._spray = 0

    def async_insert(self, src_rank: int, item: Any, nbytes: int = 8) -> None:
        dest = self._spray % self.world.world_size
        self._spray += 1
        self.world.async_call(src_rank, dest, "_bag_insert", self.cid, item,
                              nbytes=nbytes, msg_type="bag")

    def local_size(self, rank: int) -> int:
        return len(self._local(rank))

    def size(self) -> int:
        """Global size (call after a barrier)."""
        return sum(self.local_size(r) for r in range(self.world.world_size))

    def gather(self) -> List[Any]:
        out: List[Any] = []
        for r in range(self.world.world_size):
            out.extend(self._local(r))
        return out

    def balance_factor(self) -> float:
        sizes = [self.local_size(r) for r in range(self.world.world_size)]
        mean = sum(sizes) / len(sizes)
        return max(sizes) / mean if mean else 1.0


class DistributedCounter(_ContainerBase):
    """Owner-partitioned counting map (``ygm::container::counting_set``).

    ``owner`` injects the ownership policy (callable or
    :class:`Partitioner`); the default places a key by splitmix64 over
    its hash, with a fixed digest standing in for the salted hash of a
    string or bytes key (same placement under every ``PYTHONHASHSEED``).
    """

    def __init__(self, world: YGMWorld, name: str = "counter",
                 owner: Optional[OwnerPolicy] = None) -> None:
        super().__init__(world, name, owner=owner)

    def async_add(self, src_rank: int, key: Any, amount: int = 1,
                  nbytes: int = 12) -> None:
        self.world.async_call(src_rank, self._owner_of(key), "_counter_add",
                              self.cid, key, amount,
                              nbytes=nbytes, msg_type="counter")

    def count_of(self, key: Any) -> int:
        """Count for ``key`` (after a barrier)."""
        owner = self._owner_of(key)
        return self._local(owner).get(key, 0)

    def total(self) -> int:
        return sum(sum(self._local(r).values())
                   for r in range(self.world.world_size))

    def top_k(self, k: int) -> List[Tuple[Any, int]]:
        """Globally heaviest ``k`` keys (after a barrier)."""
        merged: Dict[Any, int] = {}
        for r in range(self.world.world_size):
            for key, cnt in self._local(r).items():
                merged[key] = merged.get(key, 0) + cnt
        return sorted(merged.items(), key=lambda t: (-t[1], str(t[0])))[:k]


class DistributedMap(_ContainerBase):
    """Owner-partitioned key-value map with remote visitation.

    Ordering guarantee (stronger than real YGM): every insert carries
    one more argument, a sequence number from a counter the world
    shares with every handle of every map, and the owner applies
    same-key writes in *send* order — last writer wins regardless of
    which source rank's buffer happened to flush first, and whichever
    handle wrote.  ``async_visit`` callbacks still run in delivery
    order; use :class:`DistributedCounter` or a commutative visitor
    when concurrent updates must merge.

    ``owner`` injects the ownership policy (callable or
    :class:`Partitioner`); the default places a key by splitmix64 over
    its hash, with a fixed digest standing in for the salted hash of a
    string or bytes key (same placement under every ``PYTHONHASHSEED``).
    """

    def __init__(self, world: YGMWorld, name: str = "map",
                 owner: Optional[OwnerPolicy] = None) -> None:
        super().__init__(world, name, owner=owner)

    def async_insert(self, src_rank: int, key: Any, value: Any,
                     nbytes: int = 16) -> None:
        self.world.async_call(src_rank, self._owner_of(key), "_map_insert",
                              self.cid, key, value,
                              next(self.world._container_seq),  # type: ignore[attr-defined]
                              nbytes=nbytes, msg_type="map")

    def async_visit(self, src_rank: int, key: Any, visitor: str,
                    *args: Any, nbytes: int = 16) -> None:
        """Run ``visitor`` (see :func:`register_visitor`) at the owner of
        ``key`` — YGM's hallmark primitive; the visitor may mutate the
        local entry and send further messages."""
        self.world.async_call(src_rank, self._owner_of(key), "_map_visit",
                              self.cid, key, visitor, args,
                              nbytes=nbytes, msg_type="map")

    def get(self, key: Any, default: Any = None) -> Any:
        """Owner-local read (after a barrier)."""
        return self._local(self._owner_of(key)).get(key, default)

    def size(self) -> int:
        return sum(len(self._local(r)) for r in range(self.world.world_size))

    def items(self) -> List[Tuple[Any, Any]]:
        out: List[Tuple[Any, Any]] = []
        for r in range(self.world.world_size):
            out.extend(self._local(r).items())
        return out
