"""Fixture: rank-owned folding with driver-side publication (REP405 0x)."""

COUNTS = {}


def _h_count(ctx, key):
    # Fold into rank-owned state; the driver mirrors it at the barrier.
    cell = COUNTS.setdefault(ctx.rank, [0])
    cell[0] = cell[0] + 1


def _h_pop(ctx, queue, key):
    # `.pop` on a non-metrics receiver must not trip the writer check.
    return queue.pop(key, None)


def setup(world):
    world.register_handler("count", _h_count)
    world.register_handler("pop", _h_pop)


def publish(world):
    # Driver scope, at the barrier: sanctioned publication point.
    total = sum(cell[0] for cell in COUNTS.values())
    world.metrics.set_gauge("handled", total)
