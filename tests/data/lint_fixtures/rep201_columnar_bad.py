"""Fixture: columnar emissions naming unregistered handlers (REP201 3x):
through ``emit_run``, through the rank program's ``stage``, and in one
branch of a conditional name."""


def setup(world):
    world.register_batch_handlers(merge=_h_merge, check_opt=_h_check)


def _h_merge(world, dest, keys, values):
    world.state.setdefault("chunks", []).append((dest, keys, values))


def _h_check(world, dest, u1, u2):
    world.state.setdefault("checks", []).append((dest, u1, u2))


def send(world, ctx, src, dests, keys, values, one_sided):
    world.emit_run(src, dests, "merge", (keys, values), 12)        # clean
    world.emit_run(src, dests, "marge", (keys, values), 12)        # typo
    stage(ctx, dests, "merged", (keys, values), 12, "merge")       # typo
    stage(ctx, dests, "check_opt" if one_sided else "check_unopt",  # one arm
          (keys, values), 8, "type1")
