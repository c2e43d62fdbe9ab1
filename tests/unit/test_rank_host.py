"""The rank host: one class executes the driver's commands over the
ranks it holds, whether that is every rank of a world (the sim driver's
host) or one worker's share (the process backend), and the driver paces
every emitting phase by one rule — stage, then pump wave by wave.  A host
applies each handler once per round over all of its ranks' messages, so
how ranks are grouped into hosts must not show in any rank's state or
tallies."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.config import ClusterConfig, CommOptConfig, DNNDConfig, NNDescentConfig
from repro.core import dnnd_phases
from repro.core.dnnd_phases import SECTIONS, SHARD_OPS, RankHost, block_of
from repro.datasets.synthetic import gaussian_mixture
from repro.errors import PartitionError
from repro.runtime.partition import HashPartitioner
from repro.runtime.transports import SimCluster
from repro.runtime.transports.process import WorkerComm, WorkerTransport
from repro.runtime.ygm import YGMWorld

CLUSTER = ClusterConfig(nodes=2, procs_per_node=2)
DATA = gaussian_mixture(60, 6, n_clusters=3, cluster_std=0.15, seed=5)
# Unoptimized pattern: what a rank holds after a barrier does not depend
# on how its messages were cut into runs or ordered.
CONFIG = DNNDConfig(nnd=NNDescentConfig(k=4, seed=3),
                    comm_opts=CommOptConfig.unoptimized())


class Fabric:
    """Rank hosts over a split of the ranks, wired like the process
    backend's workers (frames between hosts are relayed as the driver
    relays them) but driven in-process."""

    def __init__(self, split, config=CONFIG):
        worker_of = [next(w for w, owned in enumerate(split) if r in owned)
                     for r in range(CLUSTER.world_size)]
        self.hosts, self.comms = [], []
        for w, owned in enumerate(split):
            transport = WorkerTransport(CLUSTER, owned, worker_of, w)
            world = YGMWorld(transport, seed=config.nnd.seed, sanitize=False)
            self.hosts.append(RankHost(
                world, owned, DATA, config,
                HashPartitioner(len(DATA), CLUSTER.world_size)))
            self.comms.append(WorkerComm(w, owned, transport))

    def section(self, name, **params):
        return {rank: value for host in self.hosts
                for rank, value in host.run_section(name, params).items()}

    def command(self, cmd, **payload):
        return {rank: value for host in self.hosts
                for rank, value in host.command(cmd, payload).items()}

    def barrier(self):
        """The driver's superstep loop: a first round that ships what
        the sections staged, then rounds that hand every host, in
        sender order, the frames shipped to it in the previous one."""
        held = None
        while True:
            shipped_to, moved = {}, False
            for w, (comm, host) in enumerate(zip(self.comms, self.hosts)):
                ran, idle, shipped = comm.round(
                    host.world, None if held is None else held.get(w, []))
                assert w not in shipped
                moved = moved or ran > 0 or bool(shipped) or not idle
                for dest, frame in shipped.items():
                    shipped_to.setdefault(dest, []).append(frame)
            if not moved:
                return
            held = shipped_to

    def pump(self):
        """The driver's pacing rule; returns the barriers it took."""
        barriers = 0
        while True:
            left = self.section("pump")
            self.barrier()
            barriers += 1
            if not any(left.values()):
                return barriers


def _same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _tallies(fabric):
    """``rank -> tally`` of the hosts' next delta exports — the accepted
    ``updates`` included: a rank's offers of a round are cut into the
    same run however its host is shared."""
    out = {}
    for host in fabric.hosts:
        for rank, tally in host.world.export_delta().ranks.items():
            out[rank] = dict(tally)
    return out


def test_one_host_equals_two_hosts_over_a_split():
    """Every SECTIONS / SHARD_OPS entry gives the same ``rank -> value``
    from one host over all ranks and from two hosts over a split."""
    whole = replace(CONFIG, batch_size=0)
    one, two = Fabric([[0, 1, 2, 3]], whole), Fabric([[0, 2], [1, 3]], whole)
    covered = set()

    def both(kind, name, **args):
        covered.add(name)
        left, right = (getattr(f, kind)(name, **args) for f in (one, two))
        assert sorted(left) == [0, 1, 2, 3]
        return left, right

    def step(kind, name, **args):
        left, right = both(kind, name, **args)
        assert _same(left, right), name
        return left

    def ship():
        left, right = both("section", "pump")
        assert _same(left, right)
        one.barrier()
        two.barrier()

    step("section", "init")
    ship()
    step("section", "sample", iteration=0)
    step("section", "reverse", iteration=0)
    ship()
    step("section", "union", iteration=0)
    step("section", "check")
    ship()
    # The delta export: every world hands out the same per-rank
    # tallies, once (a second export has nothing left to report).
    left, right = _tallies(one), _tallies(two)
    assert sorted(left) == [0, 1, 2, 3] and left == right
    assert all(t["heap.updates"] and t["distance.evals"]
               for t in left.values())              # real traffic flowed
    assert _tallies(one) == _tallies(two) == {}
    snapshot = step("command", "ckpt_get")
    step("command", "gather_rows")
    for stage in ("repair_reset", "repair_reinit", "repair_donate"):
        step("section", stage, ranks=[1])
    ship()
    step("command", "gather_rows")
    step("command", "ckpt_set",
         by_rank={rank: rows[1:] for rank, rows in snapshot.items()})
    assert _same(step("command", "ckpt_get"), snapshot)
    step("section", "opt_seed")
    step("section", "opt_rev")
    ship()
    step("command", "opt_collect", max_degree=6)
    assert covered == set(SECTIONS) | set(SHARD_OPS)


def _recording(fabric):
    """Count every message ``fabric``'s one world emits, staged or sent
    by a handler, as ``(msg_type, dest, *arguments)``."""
    world = fabric.hosts[0].world
    seen = Counter()
    emit_run = world.emit_run

    def record(src, dests, handler, columns, nbytes, msg_type="other"):
        seen.update(zip([msg_type] * len(dests), dests.tolist(),
                        *(col.tolist() for col in columns)))
        emit_run(src, dests, handler, columns, nbytes, msg_type)

    world.emit_run = record
    return seen


#: What runs before each emitting phase of the first iteration.
BEFORE = {
    "init": [],
    "reverse": ["init", "sample"],
    "check": ["init", "sample", "reverse", "union"],
}


@pytest.mark.parametrize("phase", sorted(BEFORE))
def test_one_chunk_and_many_chunks_deliver_the_same_messages(phase):
    """A staged phase delivers the same multiset of messages per type
    whether the driver pumps it as one wave or as many (``batch_size``
    0 against 7 messages per rank a wave, every phase before it shipped
    whole)."""

    def run(fabric, name):
        args = {} if name in ("init", "check") else {"iteration": 0}
        fabric.section(name, **args)

    config = replace(CONFIG, batch_size=0)
    whole, chunked = Fabric([[0, 1, 2, 3]], config), Fabric([[0, 1, 2, 3]],
                                                              config)
    for fabric in (whole, chunked):
        for name in BEFORE[phase]:
            run(fabric, name)
            fabric.pump()
    sent_whole, sent_chunked = _recording(whole), _recording(chunked)
    block_of(chunked.hosts[0].world).config = replace(
        config, batch_size=7 * CLUSTER.world_size)
    run(whole, phase)
    run(chunked, phase)
    assert whole.pump() == 1
    assert chunked.pump() > 3
    assert sent_whole == sent_chunked and sent_whole
    assert _same(whole.command("ckpt_get"), chunked.command("ckpt_get"))
    stats = [f.hosts[0].world.stats.snapshot() for f in (whole, chunked)]
    assert stats[0] == stats[1]


def test_sim_driver_holds_one_host_over_every_rank(tiny_dense):
    from repro import DNND

    dnnd = DNND(tiny_dense, DNNDConfig(nnd=NNDescentConfig(k=4),
                                       backend="sim"), cluster=CLUSTER)
    assert isinstance(dnnd.host, RankHost)
    assert dnnd.host.world is dnnd.world
    assert dnnd.host.ranks == [0, 1, 2, 3]
    block = block_of(dnnd.world)
    assert all(block.rank_of[block.starts[ctx.rank]] == ctx.rank
               for ctx in dnnd.world.ranks)
    assert isinstance(dnnd.world.cluster, SimCluster)


@pytest.mark.parametrize("chunk_rows", [None, 7], ids=["whole", "chunked"])
@pytest.mark.parametrize("pattern", ["optimized", "unoptimized"])
def test_one_host_equals_one_host_per_rank(monkeypatch, pattern, chunk_rows):
    """One host over four ranks and four hosts of one rank each hold the
    same neighbor matrices after every barrier of ``init -> sample ->
    reverse -> union -> check``, and count the same per-rank tallies,
    accepted ``updates`` included — under the default pattern too, whose
    checks read row state at delivery, and wherever the kernel chunks of
    a host's run happen to cut."""
    if chunk_rows:
        monkeypatch.setattr(dnnd_phases, "_EVAL_BYTES",
                            chunk_rows * 2 * DATA.shape[1] * DATA.itemsize)
    # 25 messages per rank a wave: every phase ships in several.
    config = DNNDConfig(nnd=NNDescentConfig(k=4, seed=3),
                        comm_opts=getattr(CommOptConfig, pattern)(),
                        batch_size=25 * CLUSTER.world_size)
    one = Fabric([[0, 1, 2, 3]], config)
    four = Fabric([[0], [1], [2], [3]], config)
    barriers = 0

    def both(name, **params):
        for fabric in (one, four):
            fabric.section(name, **params)

    def ship():
        nonlocal barriers
        while True:
            left = [fabric.section("pump") for fabric in (one, four)]
            assert left[0] == left[1]
            one.barrier()
            four.barrier()
            barriers += 1
            assert _same(one.command("ckpt_get"), four.command("ckpt_get"))
            assert _tallies(one) == _tallies(four)
            if not any(left[0].values()):
                return

    both("init")
    ship()
    for iteration in range(2):
        both("sample", iteration=iteration)
        both("reverse", iteration=iteration)
        ship()
        both("union", iteration=iteration)
        both("check")
        ship()
    assert barriers > 6


def _misrouted_check(world, live):
    """The ``check`` section with every Type 1 request sent to the rank
    after the one that owns ``u1``."""
    block = block_of(world)
    rows, u1, u2 = dnnd_phases.type1_pairs(block.new, block.old,
                                           len(block.global_ids), True)
    block.stage(block.rank_of[rows],
                (block.owner_of[u1] + 1) % world.world_size,
                "check_opt", (u1, u2), 8, dnnd_phases.T1)


@pytest.mark.parametrize("sanitize", [False, True], ids=["plain", "sanitized"])
@pytest.mark.parametrize("backend,workers", [("sim", 0), ("process", 2)])
def test_a_row_its_destination_does_not_own_raises(monkeypatch, backend,
                                                   workers, sanitize):
    """A message whose vertex its destination rank does not own is a
    :class:`PartitionError` — the host's row lookup checks every row
    against its own destination, whichever rank of the host owns it."""
    from repro import DNND
    from repro.runtime.transports.process import START_ENV

    # Forked workers inherit the patched section table.
    monkeypatch.setenv(START_ENV, "fork")
    monkeypatch.setitem(SECTIONS, "check", _misrouted_check)
    dnnd = DNND(DATA, DNNDConfig(nnd=NNDescentConfig(k=4, seed=3, max_iters=2),
                                 backend=backend, workers=workers),
                cluster=CLUSTER, sanitize=sanitize)
    try:
        with pytest.raises(PartitionError, match="dereferenced on rank"):
            dnnd.build()
    finally:
        dnnd.close()
