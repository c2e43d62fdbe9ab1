"""Fixture: a run's column tuple does not fit the columnar handler
(REP202 2x) — one column short through ``emit_run``, one too many
through the rank program's ``stage``."""


def setup(world):
    world.register_batch_handler("merge", _h_merge)


def _h_merge(world, dest, rows, ids, dists):
    world.state.setdefault("chunks", []).append((dest, rows, ids, dists))


def send(world, ctx, src, dests, rows, ids, dists):
    world.emit_run(src, dests, "merge", (rows, ids), 12)
    stage(ctx, dests, "merge", (rows, ids, dists, dists), 12, "merge")
