"""Fixture: every named handler resolves (clean for REP201) — scalar
``async_call`` and columnar ``emit_run`` alike."""


def setup(world):
    world.register_handler("pong", _h_pong)
    world.register_batch_handler("merge", _h_merge)


def _h_pong(ctx, token):
    ctx.state["token"] = token


def _h_merge(world, dest, keys, values):
    world.state.setdefault("chunks", []).append((dest, keys, values))


def send(ctx, dest):
    ctx.async_call(dest, "pong", 1)


def send_run(world, src, dests, keys, values):
    world.emit_run(src, dests, "merge", (keys, values), 12, "merge")
    world.async_call(src, 0, "merge", 3, 0.5)  # a one-row run
