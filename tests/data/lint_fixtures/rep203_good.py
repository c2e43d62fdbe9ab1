"""Fixture: handler state lives in ctx.state / the host world's state
(clean for REP203), for a scalar and for a columnar handler."""


def _h_count(ctx, key):
    counts = ctx.state.setdefault("counts", {})
    counts[key] = counts.get(key, 0) + 1


def _h_count_run(world, dest, keys):
    world.state.setdefault("runs", []).append((dest, keys))


def setup(world):
    world.register_handler("count", _h_count)
    world.register_batch_handler("count_run", _h_count_run)


def send(ctx, dest):
    ctx.async_call(dest, "count", 7)
