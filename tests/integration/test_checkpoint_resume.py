"""Checkpoint/resume of in-progress DNND builds.

The defining property: because every random draw is a hash of
(seed, purpose, iteration, vertex, element) rather than consumed from a
stream, a build checkpointed at iteration i and resumed later produces the
*bit-identical* final graph of an uninterrupted run.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

from repro import (
    DNND,
    ClusterConfig,
    CommOptConfig,
    DNNDConfig,
    MetallStore,
    NNDescentConfig,
)
from repro.errors import CheckpointCorruptError, ConfigError


def config(k=6, seed=43, max_iters=30):
    return DNNDConfig(nnd=NNDescentConfig(k=k, seed=seed, max_iters=max_iters))


@pytest.fixture(scope="module")
def reference(small_dense):
    dnnd = DNND(small_dense, config(),
                cluster=ClusterConfig(nodes=2, procs_per_node=2))
    return dnnd.build()


class TestCheckpointWrite:
    def test_checkpoint_created(self, small_dense, tmp_path):
        ckpt = tmp_path / "ckpt"
        dnnd = DNND(small_dense, config(),
                    cluster=ClusterConfig(nodes=2, procs_per_node=2))
        dnnd.build(checkpoint_path=ckpt, checkpoint_every=1)
        assert MetallStore.exists(ckpt)
        with MetallStore.open_read_only(ckpt) as store:
            meta = store["ckpt_meta"]
            assert meta["n"] == len(small_dense)
            assert meta["iteration"] >= 1
            assert np.asarray(store["ckpt_ids"]).shape == (len(small_dense), 6)

    def test_checkpoint_every_requires_path(self, small_dense):
        dnnd = DNND(small_dense, config(),
                    cluster=ClusterConfig(nodes=1, procs_per_node=2))
        with pytest.raises(ConfigError):
            dnnd.build(checkpoint_every=2)

    def test_no_checkpoint_by_default(self, small_dense, tmp_path):
        dnnd = DNND(small_dense, config(),
                    cluster=ClusterConfig(nodes=1, procs_per_node=2))
        dnnd.build()
        assert not any(tmp_path.iterdir())


class TestResume:
    def test_resumed_build_identical(self, small_dense, tmp_path, reference):
        """Interrupt after 2 iterations (max_iters=2), then resume: the
        final graph must equal the uninterrupted reference exactly."""
        ckpt = tmp_path / "ckpt"
        partial = DNND(small_dense, config(max_iters=2),
                       cluster=ClusterConfig(nodes=2, procs_per_node=2))
        partial_result = partial.build(checkpoint_path=ckpt, checkpoint_every=1)
        assert not partial_result.converged  # genuinely interrupted

        resumed = DNND.resume(small_dense, ckpt,
                              cluster=ClusterConfig(nodes=2, procs_per_node=2))
        # The checkpoint stored max_iters=2; the resumed run stops at
        # max_iters again, so continue from a reference-config checkpoint
        # instead for the identity check below.
        assert resumed.iterations == 2

    def test_identity_with_full_config(self, small_dense, tmp_path, reference):
        ckpt = tmp_path / "ckpt_full"
        # Same config as the reference, checkpoint every iteration, but
        # stop the *driver* after the checkpoint of iteration 2 by
        # simulating a crash: run the full build (it checkpoints along
        # the way), then resume from the *iteration-2* state by editing
        # nothing — instead run a fresh partial driver.
        partial = DNND(small_dense, config(),
                       cluster=ClusterConfig(nodes=2, procs_per_node=2))
        # Drive only init + 2 iterations manually, with checkpoints.
        partial._built = True
        partial._init_phase()
        counts = []
        for it in range(2):
            counts.append(partial._iteration(it))
        partial._write_checkpoint(ckpt, 2, counts)

        resumed = DNND.resume(small_dense, ckpt,
                              cluster=ClusterConfig(nodes=2, procs_per_node=2))
        assert resumed.converged == reference.converged
        assert resumed.iterations == reference.iterations
        np.testing.assert_array_equal(resumed.graph.ids, reference.graph.ids)
        np.testing.assert_allclose(resumed.graph.dists, reference.graph.dists)

    def test_resume_keeps_the_kernel(self, small_dense, tmp_path,
                                     monkeypatch):
        """The checkpoint records the distance kernel the build ran
        under, so a blocked build resumes blocked — whatever
        ``REPRO_KERNEL`` says where it resumes — and ends in the graph
        of the uninterrupted blocked build.  A meta without the key
        (older checkpoints) resumes under the ambient default."""
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        cluster = ClusterConfig(nodes=2, procs_per_node=2)
        blocked = DNNDConfig(nnd=NNDescentConfig(k=6, seed=43),
                             kernel="blocked", backend="sim")
        reference = DNND(small_dense, blocked, cluster=cluster).build()
        ckpt = tmp_path / "ckpt_blocked"
        partial = DNND(small_dense, blocked, cluster=cluster)
        partial._built = True
        partial._init_phase()
        counts = [partial._iteration(it) for it in range(2)]
        partial._write_checkpoint(ckpt, 2, counts)

        resumed = DNND.resume(small_dense, ckpt, cluster=cluster,
                              backend="sim")
        assert resumed.dnnd.config.kernel == "blocked"
        counters = resumed.metrics.snapshot()["counters"]
        assert counters["kernel.tile_flops"] > 0
        assert resumed.iterations == reference.iterations
        np.testing.assert_array_equal(resumed.graph.ids, reference.graph.ids)
        np.testing.assert_array_equal(resumed.graph.dists,
                                      reference.graph.dists)

        with MetallStore.open(ckpt) as store:
            meta = dict(store["ckpt_meta"])
            del meta["kernel"]
            store["ckpt_meta"] = meta
        legacy = DNND.resume(small_dense, ckpt, cluster=cluster,
                             backend="sim")
        assert legacy.metrics.snapshot()["counters"]["kernel.tile_flops"] == 0

    def test_pre_columnar_checkpoint_resumes(self, small_dense, tmp_path,
                                             reference):
        """A checkpoint written before the scalar engine was removed
        still carries ``batch_exec`` in its meta, and its rows are in
        whatever heap layout sift order left them: the key is ignored
        and any valid layout of the same entries resumes to the same
        build (sampling keys entries by id, it never reads slot order)."""
        ckpt = tmp_path / "ckpt_old"
        partial = DNND(small_dense, config(),
                       cluster=ClusterConfig(nodes=2, procs_per_node=2))
        partial._built = True
        partial._init_phase()
        counts = [partial._iteration(it) for it in range(2)]
        partial._write_checkpoint(ckpt, 2, counts)
        with MetallStore.open(ckpt) as store:
            store["ckpt_meta"] = {**store["ckpt_meta"], "batch_exec": False}
            ids, dists, flags = (np.array(store[key]) for key in
                                 ("ckpt_ids", "ckpt_dists", "ckpt_flags"))
            # Another heap layout: swap the two children of the root
            # (k=6: slots 1 and 2 with their subtrees 3,4 / 5).
            other = [0, 2, 1, 5, 4, 3]
            assert (dists[:, 4] <= dists[:, 2]).all()   # still a heap
            store["ckpt_ids"] = ids[:, other]
            store["ckpt_dists"] = dists[:, other]
            store["ckpt_flags"] = flags[:, other]
        resumed = DNND.resume(small_dense, ckpt,
                              cluster=ClusterConfig(nodes=2, procs_per_node=2))
        assert resumed.iterations == reference.iterations
        np.testing.assert_array_equal(resumed.graph.ids, reference.graph.ids)
        np.testing.assert_array_equal(resumed.graph.dists,
                                      reference.graph.dists)

    def test_resume_on_different_cluster_shape(self, small_dense, tmp_path):
        """Hash partitioning is layout-independent and every draw is a
        hash of what it is drawn for: resuming on a different rank count
        still yields the identical graph.  Order-invariant envelope
        (unoptimized pattern) — the two halves of this build run under
        different schedules, which the default pattern's delivery-time
        checks may turn into different bits."""
        cfg = replace(config(), comm_opts=CommOptConfig.unoptimized())
        reference = DNND(small_dense, cfg,
                         cluster=ClusterConfig(nodes=2, procs_per_node=2)
                         ).build()
        ckpt = tmp_path / "ckpt_shape"
        partial = DNND(small_dense, cfg,
                       cluster=ClusterConfig(nodes=2, procs_per_node=2))
        partial._built = True
        partial._init_phase()
        counts = [partial._iteration(0)]
        partial._write_checkpoint(ckpt, 1, counts)

        resumed = DNND.resume(small_dense, ckpt,
                              cluster=ClusterConfig(nodes=4, procs_per_node=2))
        np.testing.assert_array_equal(resumed.graph.ids, reference.graph.ids)

    def test_every_config_field_survives_checkpoint(self, small_dense,
                                                    tmp_path):
        """The checkpoint meta is derived from the config dataclasses,
        not hand-listed: a resumed driver runs under the very
        ``NNDescentConfig`` / ``CommOptConfig`` that wrote it.  The
        values below differ from every default; a field added to either
        class must be added here, and then has to survive too."""
        nnd = NNDescentConfig(k=5, rho=0.6, delta=0.01, max_iters=3,
                              metric="cosine", seed=9)
        opts = CommOptConfig.unoptimized()
        for cfg, default in ((nnd, NNDescentConfig()), (opts, CommOptConfig())):
            assert all(getattr(cfg, f.name) != getattr(default, f.name)
                       for f in fields(cfg))
        ckpt = tmp_path / "ckpt_fields"
        cluster = ClusterConfig(nodes=2, procs_per_node=2)
        DNND(small_dense, DNNDConfig(nnd=nnd, comm_opts=opts),
             cluster=cluster).build(checkpoint_path=ckpt, checkpoint_every=1)
        with MetallStore.open_read_only(ckpt) as store:
            meta = store["ckpt_meta"]
        assert set(meta["nnd"]) == {f.name for f in fields(nnd)}
        assert set(meta["comm_opts"]) == {f.name for f in fields(opts)}
        resumed = DNND.resume(small_dense, ckpt, cluster=cluster)
        assert resumed.dnnd.config.nnd == nnd
        assert resumed.dnnd.config.comm_opts == opts

    def test_resume_wrong_dataset_rejected(self, small_dense, tiny_dense,
                                           tmp_path):
        ckpt = tmp_path / "ckpt_wrong"
        dnnd = DNND(small_dense, config(),
                    cluster=ClusterConfig(nodes=1, procs_per_node=2))
        dnnd.build(checkpoint_path=ckpt, checkpoint_every=1)
        with pytest.raises(ConfigError):
            DNND.resume(tiny_dense, ckpt)

    def test_resume_perturbed_data_rejected(self, small_dense, tmp_path):
        ckpt = tmp_path / "ckpt_fp"
        dnnd = DNND(small_dense, config(),
                    cluster=ClusterConfig(nodes=1, procs_per_node=2))
        dnnd.build(checkpoint_path=ckpt, checkpoint_every=1)
        tampered = small_dense.copy()
        tampered[0, 0] += 5.0
        with pytest.raises(ConfigError):
            DNND.resume(tampered, ckpt)

    def test_resume_exposes_dnnd_handle(self, small_dense, tmp_path):
        ckpt = tmp_path / "ckpt_handle"
        dnnd = DNND(small_dense, config(),
                    cluster=ClusterConfig(nodes=1, procs_per_node=2))
        dnnd.build(checkpoint_path=ckpt, checkpoint_every=1)
        resumed = DNND.resume(small_dense, ckpt,
                              cluster=ClusterConfig(nodes=1, procs_per_node=2))
        assert resumed.dnnd is not None
        adjacency = resumed.dnnd.optimize()
        adjacency.validate()


class TestCheckpointCorruption:
    """Hardened checkpoint I/O: a damaged checkpoint must surface as
    CheckpointCorruptError from resume and from crash recovery — never
    restore garbage, never crash on a parse error."""

    def _write_checkpoint(self, small_dense, tmp_path):
        ckpt = tmp_path / "ckpt_corrupt"
        dnnd = DNND(small_dense, config(),
                    cluster=ClusterConfig(nodes=2, procs_per_node=2))
        dnnd.build(checkpoint_path=ckpt, checkpoint_every=1)
        dnnd.close()
        return ckpt

    def _flip_tail_byte(self, ckpt):
        victim = sorted(ckpt.glob("*.npy"))[0]
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0xFF
        victim.write_bytes(bytes(raw))

    def test_resume_rejects_corrupt_checkpoint(self, small_dense, tmp_path):
        ckpt = self._write_checkpoint(small_dense, tmp_path)
        self._flip_tail_byte(ckpt)
        with pytest.raises(CheckpointCorruptError, match="resume"):
            DNND.resume(small_dense, ckpt,
                        cluster=ClusterConfig(nodes=2, procs_per_node=2))

    def test_resume_rejects_wrong_shaped_manifest(self, small_dense,
                                                  tmp_path):
        """A manifest that parses but lost its object table is
        corruption too, typed on resume — not a raw ``KeyError``."""
        ckpt = self._write_checkpoint(small_dense, tmp_path)
        (ckpt / "manifest.json").write_text('{"format_version": 1}')
        with pytest.raises(CheckpointCorruptError, match="resume"):
            DNND.resume(small_dense, ckpt,
                        cluster=ClusterConfig(nodes=2, procs_per_node=2))

    def test_recovery_rejects_corrupt_checkpoint(self, small_dense,
                                                 tmp_path):
        """A crash whose checkpoint was damaged while the build ran:
        the supervisor must report corruption, not restore it."""
        from repro import FaultPlan

        ckpt = tmp_path / "ckpt_crash_corrupt"
        dnnd = DNND(small_dense, config(),
                    cluster=ClusterConfig(nodes=2, procs_per_node=2),
                    fault_plan=FaultPlan().with_crash(rank=1, at_iteration=2))
        orig = dnnd._write_checkpoint

        def write_then_damage(path, iteration, counts):
            orig(path, iteration, counts)
            self._flip_tail_byte(ckpt)

        dnnd._write_checkpoint = write_then_damage
        with pytest.raises(CheckpointCorruptError, match="recovery"):
            dnnd.build(checkpoint_path=ckpt, checkpoint_every=1)

    @staticmethod
    def _tamper(ckpt, how):
        """Rewrite one heap row through the store API: checksums stay
        valid, only the row's *meaning* is corrupt."""
        with MetallStore.open(ckpt) as store:
            ids = np.array(store["ckpt_ids"])
            dists = np.array(store["ckpt_dists"])
            if how == "duplicate id":
                ids[3, 1] = ids[3, 0]
            elif how == "heap order":
                dists[3, 0] = 0.0       # the root must be the farthest
            else:                       # "empty slot distance"
                ids[3, 0] = -1
            store["ckpt_ids"] = ids
            store["ckpt_dists"] = dists

    @pytest.mark.parametrize("backend,workers", [("sim", 0), ("process", 2)])
    @pytest.mark.parametrize(
        "how", ["duplicate id", "heap order", "empty slot distance"])
    def test_resume_rejects_semantically_corrupt_row(
            self, small_dense, tmp_path, backend, workers, how):
        """A row that parses but is not a valid neighbor heap must come
        back typed on every backend — not a bare GraphError (sim) or a
        wrapped worker traceback (process)."""
        ckpt = self._write_checkpoint(small_dense, tmp_path)
        self._tamper(ckpt, how)
        with pytest.raises(CheckpointCorruptError, match="not a valid"):
            DNND.resume(small_dense, ckpt, backend=backend, workers=workers,
                        cluster=ClusterConfig(nodes=2, procs_per_node=2))

    @pytest.mark.parametrize("backend,workers", [("sim", 0), ("process", 2)])
    def test_recovery_rejects_semantically_corrupt_row(
            self, small_dense, tmp_path, backend, workers):
        from repro import FaultPlan

        ckpt = tmp_path / "ckpt_crash_tampered"
        cfg = DNNDConfig(nnd=NNDescentConfig(k=6, seed=43),
                         backend=backend, workers=workers)
        dnnd = DNND(small_dense, cfg,
                    cluster=ClusterConfig(nodes=2, procs_per_node=2),
                    fault_plan=FaultPlan().with_crash(rank=1, at_iteration=2))
        orig = dnnd._write_checkpoint

        def write_then_tamper(path, iteration, counts):
            orig(path, iteration, counts)
            self._tamper(ckpt, "duplicate id")

        dnnd._write_checkpoint = write_then_tamper
        try:
            with pytest.raises(CheckpointCorruptError, match="not a valid"):
                dnnd.build(checkpoint_path=ckpt, checkpoint_every=1)
        finally:
            dnnd.close()

    def test_corruption_error_is_config_distinct(self):
        """CheckpointCorruptError chains from the store layer and is not
        a ConfigError: callers distinguish bad input from bad state."""
        assert not issubclass(CheckpointCorruptError, ConfigError)
