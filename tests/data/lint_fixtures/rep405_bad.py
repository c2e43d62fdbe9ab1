"""Fixture: metrics publication from concurrent scope (REP405 3x)."""


def _h_count(ctx, key):
    ctx.world.metrics.inc("handler_calls")  # handler-side publication


def _h_gauge(ctx, depth):
    ctx.world.metrics.set_gauge("queue_depth", depth)


def _task_flush(registry):
    registry.inc("flushed")  # executor task publishing


def setup(world, pool):
    world.register_handler("count", _h_count)
    world.register_handler("gauge", _h_gauge)
    pool.submit(_task_flush)
