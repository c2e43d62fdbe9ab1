"""Runtime ownership sanitizer: detection, gating, zero overhead."""

import numpy as np
import pytest

from repro.analysis.sanitizer import (
    OwnedState,
    Sanitizer,
    sanitizer_requested,
)
from repro.config import ClusterConfig, DNNDConfig, NNDescentConfig
from repro.core.dnnd_phases import (HostBlock, _offer, block_of, build_shards,
                                    register_dnnd_handlers)
from repro.core.heap import NeighborHeap
from repro.errors import (
    ConfigError,
    HandlerReentrancyError,
    OwnershipViolationError,
)
from repro.runtime.partition import BlockPartitioner
from repro.runtime.transports import SimCluster
from repro.runtime.ygm import YGMWorld


def _world(sanitize):
    return YGMWorld(SimCluster(ClusterConfig(nodes=2, procs_per_node=2)),
                    sanitize=sanitize)


# -- env gating ----------------------------------------------------------------

@pytest.mark.parametrize("value,expected", [
    ("1", True), ("true", True), ("YES", True), (" on ", True),
    ("0", False), ("", False), ("off", False), ("no", False),
])
def test_sanitizer_requested(value, expected):
    assert sanitizer_requested({"REPRO_SANITIZE": value}) is expected


def test_sanitizer_requested_unset():
    assert sanitizer_requested({}) is False


def test_removed_race_value_fails_plainly():
    """REPRO_SANITIZE=race selected the thread backend's race sanitizer;
    asking for it now is an error, not a silently unsanitized run."""
    with pytest.raises(ConfigError, match="removed.*process"):
        sanitizer_requested({"REPRO_SANITIZE": " Race "})


def test_world_env_gating(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert _world(None).sanitizer is not None
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert _world(None).sanitizer is None
    # Explicit argument beats the environment.
    assert _world(False).sanitizer is None
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert _world(True).sanitizer is not None


# -- zero overhead when off ---------------------------------------------------

def test_off_means_plain_everything():
    world = _world(False)
    assert world.sanitizer is None
    assert type(world.ranks[0].state) is dict
    fn = lambda world, dest, xs: None  # noqa: E731
    world.register_batch_handler("noop", fn)
    assert world._batch_handlers["noop"] is fn  # not wrapped
    heap = NeighborHeap(4)
    assert not hasattr(heap, "_san")    # a heap carries no sanitizer


# -- ownership ----------------------------------------------------------------

def test_owned_state_cross_rank_access_raises():
    world = _world(True)
    san = world.sanitizer
    world.ranks[1].state["x"] = 1  # driver context: allowed
    with san.rank_scope(0):
        world.ranks[0].state["y"] = 2  # own state: allowed
        with pytest.raises(OwnershipViolationError) as exc:
            world.ranks[1].state["x"]
        with pytest.raises(OwnershipViolationError):
            world.ranks[1].state.get("x")
        with pytest.raises(OwnershipViolationError):
            world.ranks[1].state.setdefault("z", 0)
        with pytest.raises(OwnershipViolationError):
            world.ranks[1].state.pop("x")
    assert exc.value.owner == 1 and exc.value.accessor == 0
    assert san.violations >= 1
    assert world.ranks[1].state["x"] == 1  # back in driver context


def test_handler_injected_cross_rank_mutation_raises():
    """A handler that reaches into another rank's state must be caught —
    the bug class the sanitizer exists for."""
    world = _world(True)

    def evil(ctx, victim):
        ctx.world.ranks[victim].state["stolen"] = True

    def good(ctx, value):
        ctx.state["kept"] = value

    world.register_handlers(evil=evil, good=good)
    world.async_call(0, 1, "good", 7)
    world.barrier()
    assert world.ranks[1].state["kept"] == 7

    world.async_call(0, 1, "evil", 3)  # delivered at rank 1, touches rank 3
    with pytest.raises(OwnershipViolationError):
        world.barrier()


def test_row_write_ownership():
    """Every write to a host's neighbor rows passes one check of the
    rank each row belongs to."""
    san = Sanitizer()
    block = HostBlock.build([0, 1, 2], BlockPartitioner(6, 3),
                            np.zeros((6, 1)),
                            DNNDConfig(nnd=NNDescentConfig(k=2)), sanitizer=san)
    rows = np.flatnonzero(block.rank_of == 2)
    block.check_write(rows, "merge_rows")  # driver context: allowed
    with san.rank_scope(2):
        block.check_write(rows, "merge_rows")  # owner: allowed
    with san.run_scope([1, 2], "section 'sample'"):
        block.check_write(rows, "sample")  # a run covering rank 2: allowed
    with san.rank_scope(0):
        with pytest.raises(OwnershipViolationError):
            block.check_write(rows, "merge_rows")
    with san.run_scope([0, 1], "section 'sample'"):
        with pytest.raises(OwnershipViolationError,
                           match="neighbor row \\(sample\\).*section 'sample'"):
            block.check_write(rows, "sample")


def test_a_handler_writing_another_ranks_row_raises():
    """A handler run delivered to rank 0 that offers a candidate to a
    row of rank 1 is caught at the row write, and the error names the
    handler."""
    world = YGMWorld(SimCluster(ClusterConfig(nodes=2, procs_per_node=1)),
                     sanitize=True)
    register_dnnd_handlers(world)
    build_shards(world.ranks, BlockPartitioner(8, 2),
                 np.arange(8.0).reshape(-1, 1),
                 DNNDConfig(nnd=NNDescentConfig(k=2)))

    def poke(world, dest, gids):
        block = block_of(world)
        _offer(world, block, dest, block.row_of[gids], gids - 1,
               np.ones(len(gids)))

    world.register_batch_handler("poke", poke)
    # Vertex 6 is rank 1's; the message is delivered at rank 0.
    world.emit_run(0, np.array([0]), "poke", (np.array([6]),), 8)
    with pytest.raises(OwnershipViolationError, match="handler 'poke'"):
        world.barrier()


def test_untagged_heap_unaffected():
    heap = NeighborHeap(4)
    heap.checked_push(1, 0.5)
    for _ in heap.entries():
        heap.checked_push(2, 0.4)  # no sanitizer: silently permitted


# -- re-entrancy --------------------------------------------------------------

def test_handler_reentrancy_detected():
    world = _world(True)
    handlers = {}

    def outer(ctx, x):
        # A direct call instead of async_call: the registered entry of a
        # per-message handler takes the world, the destination rank
        # column and a column of argument tuples.
        handlers["inner"](ctx.world, np.array([ctx.rank]), [(x,)])

    def inner(ctx, x):
        ctx.state["x"] = x

    world.register_handlers(outer=outer, inner=inner)
    handlers["inner"] = world._batch_handlers["inner"]
    world.async_call(0, 1, "outer", 5)
    with pytest.raises(HandlerReentrancyError):
        world.barrier()
    assert world.sanitizer.reentrancy_detected == 1
    # The failed delivery must not leave the sanitizer wedged.
    assert world.sanitizer.handler_depth == 0
    assert world.sanitizer.active_rank is None


def test_rank_scope_nesting_restores():
    san = Sanitizer()
    with san.rank_scope(0):
        with san.rank_scope(1):
            assert san.active_rank == 1
        assert san.active_rank == 0
    assert san.active_rank is None


def test_owned_state_is_still_a_dict():
    """Code paths that type-check or iterate state keep working."""
    state = OwnedState(Sanitizer(), owner=0)
    state["a"] = 1
    assert isinstance(state, dict)
    assert list(state) == ["a"]
    assert len(state) == 1
