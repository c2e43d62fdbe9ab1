"""Byte-based flushing (real YGM's buffer cap)."""

import pytest

from repro.config import ClusterConfig
from repro.errors import RuntimeStateError
from repro.runtime.transports import SimCluster
from repro.runtime.ygm import YGMWorld


def make_world(flush=10_000, flush_bytes=1 << 20):
    cluster = SimCluster(ClusterConfig(nodes=2, procs_per_node=1))
    world = YGMWorld(cluster, flush_threshold=flush,
                     flush_threshold_bytes=flush_bytes)
    world.register_handler("h", lambda ctx: None)
    return world


class TestByteThreshold:
    def test_big_messages_flush_early(self):
        world = make_world(flush=10_000, flush_bytes=1000)
        # Three 400-byte messages cross the byte cap before the count cap:
        # the buffer is flushed by bytes, as one envelope.
        for _ in range(3):
            world.async_call(0, 1, "h", nbytes=400)
        assert world.cluster.pending_total() == 1
        assert world.log.counters()["comm.flushes"] == 1

    def test_small_messages_stay_buffered(self):
        world = make_world(flush=10_000, flush_bytes=1000)
        for _ in range(3):
            world.async_call(0, 1, "h", nbytes=8)
        assert world.cluster.pending_total() == 0  # below both caps

    def test_count_threshold_still_applies(self):
        world = make_world(flush=2, flush_bytes=1 << 30)
        world.async_call(0, 1, "h", nbytes=1)
        world.async_call(0, 1, "h", nbytes=1)
        assert world.cluster.pending_total() == 1
        assert world.log.counters()["comm.flushes"] == 1

    def test_feature_vs_reply_buffer_asymmetry(self):
        """The reason bytes matter: Type 2+-sized messages fill buffers
        ~30x faster than Type 3-sized ones at equal counts."""
        def flushes(nbytes):
            world = make_world(flush=10_000, flush_bytes=4096)
            for _ in range(64):
                world.async_call(0, 1, "h", nbytes=nbytes)
            world.barrier()
            return world.log.counters()["comm.flushes"]
        assert flushes(400) > flushes(12)

    def test_invalid_threshold(self):
        cluster = SimCluster(ClusterConfig(nodes=1, procs_per_node=2))
        with pytest.raises(RuntimeStateError):
            YGMWorld(cluster, flush_threshold_bytes=0)

    def test_semantics_unchanged(self):
        """Byte-flushing changes cost, never delivery."""
        logs = []
        for flush_bytes in (64, 1 << 20):
            world = make_world(flush=10_000, flush_bytes=flush_bytes)
            seen = []
            world.register_handler("log", lambda ctx, x: seen.append(x))
            for i in range(20):
                world.async_call(i % 2, (i + 1) % 2, "log", i, nbytes=100)
            world.barrier()
            logs.append(sorted(seen))
        assert logs[0] == logs[1]
