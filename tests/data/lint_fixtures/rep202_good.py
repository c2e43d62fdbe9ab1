"""Fixture: payload matches the handler signature (clean for REP202) —
a columnar handler receives its host's world, the column of destination
ranks and one array per message argument, so a run's column tuple counts
like a scalar call's payload."""


def setup(world):
    world.register_handler("update", _h_update)
    world.register_batch_handler("merge", _h_merge)


def _h_update(ctx, key, value):
    ctx.state[key] = value


def _h_merge(world, dest, rows, ids, dists):
    world.state.setdefault("chunks", []).append((dest, rows, ids, dists))


def send(ctx, dest):
    ctx.async_call(dest, "update", 1, 2)


def send_run(world, src, dests, rows, ids, dists, columns):
    world.emit_run(src, dests, "merge", (rows, ids, dists), 12, "merge")
    world.emit_run(src, dests, "merge", columns, 12)  # count unknown: skipped
    world.async_call(src, 0, "merge", 1, 7, 0.25)     # a one-row run
