"""Process-transport unit surface: shared-memory segment lifecycle,
worker/rank ownership, and the build's teardown.

The heavyweight end-to-end behaviour (graph conformance, crash
recovery, checkpoint round-trips) lives in the integration suites;
these tests pin the local contracts — most importantly that a shared
dataset segment can never outlive its build, even a failed one."""

import os
import warnings

import numpy as np
import pytest

from repro import DNND, ClusterConfig, DNNDConfig, NNDescentConfig
from repro.config import CommOptConfig
from repro.core.executor import resolve_backend
from repro.errors import ConfigError, RankFailureError, RuntimeStateError
from repro.runtime.faults import FaultPlan
from repro.runtime.transports import (ProcessTransport, SharedArrayOwner,
                                      attach_shared_array)
from repro.runtime.transports.process import _start_method


def _segments() -> set:
    """Names of live shared-memory segments (POSIX shm is a tmpfs)."""
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        pytest.skip("/dev/shm not available")
    return set(os.listdir("/dev/shm"))


class TestSharedArrayOwner:
    def test_round_trip_and_attach(self):
        arr = np.arange(24, dtype=np.float64).reshape(6, 4)
        with SharedArrayOwner(arr) as owner:
            assert owner.spec.shape == (6, 4)
            assert np.array_equal(owner.view, arr)
            shm, view = attach_shared_array(owner.spec)
            try:
                assert np.array_equal(view, arr)
                # The segment is genuinely shared, not a copy.
                owner.view[0, 0] = -1.0
                assert view[0, 0] == -1.0
            finally:
                del view
                shm.close()

    def test_close_unlinks_and_is_idempotent(self):
        owner = SharedArrayOwner(np.ones(8))
        name = owner.spec.name.lstrip("/")
        assert name in _segments()
        owner.close()
        assert name not in _segments()
        owner.close()  # idempotent
        with pytest.raises(RuntimeStateError):
            _ = owner.view

    def test_context_manager_owns_cleanup(self):
        with SharedArrayOwner(np.zeros((3, 3))) as owner:
            name = owner.spec.name.lstrip("/")
            assert name in _segments()
        assert name not in _segments()


class TestNoSegmentLeakAfterFailedBuild:
    def test_crash_without_recovery_leaves_no_segment(self, tiny_dense):
        """Regression: a build that dies mid-flight (worker SIGKILLed,
        supervisor disabled) must still unlink its dataset segment on
        close — /dev/shm is a machine-wide resource."""
        before = _segments()
        cfg = DNNDConfig(nnd=NNDescentConfig(k=4, seed=2),
                         backend="process", workers=4)
        dnnd = DNND(tiny_dense, cfg,
                    cluster=ClusterConfig(nodes=2, procs_per_node=2),
                    fault_plan=FaultPlan(crashes=((1, 1),)))
        with pytest.raises(RankFailureError):
            dnnd.build(recover_on_crash=False)
        dnnd.close()
        assert _segments() <= before

    def test_garbage_collected_build_releases_segment(self, tiny_dense):
        """Dropping the last reference must tear down workers + segment
        through the build's GC finalizer (no explicit close)."""
        before = _segments()
        cfg = DNNDConfig(nnd=NNDescentConfig(k=4, seed=2),
                         backend="process", workers=2)
        dnnd = DNND(tiny_dense, cfg,
                    cluster=ClusterConfig(nodes=2, procs_per_node=2))
        dnnd.build()
        workers = list(dnnd.cluster._procs)
        del dnnd
        import gc
        gc.collect()
        assert _segments() <= before
        assert not any(proc.is_alive() for proc in workers)

    def test_close_tears_down_once_and_is_idempotent(self, tiny_dense):
        before = _segments()
        cfg = DNNDConfig(nnd=NNDescentConfig(k=4, seed=2),
                         backend="process", workers=2)
        dnnd = DNND(tiny_dense, cfg,
                    cluster=ClusterConfig(nodes=2, procs_per_node=2))
        workers = list(dnnd.cluster._procs)
        assert all(proc.is_alive() for proc in workers)
        dnnd.close()
        dnnd.close()
        assert _segments() <= before
        assert not any(proc.is_alive() for proc in workers)


class TestOwnershipMapping:
    CFG = ClusterConfig(nodes=2, procs_per_node=2)

    def test_round_robin_ownership(self):
        t = ProcessTransport(self.CFG, workers=2)
        assert t.nworkers == 2
        assert [t.worker_of[r] for r in range(4)] == [0, 1, 0, 1]
        assert list(t.owned_by[0]) == [0, 2]
        assert list(t.owned_by[1]) == [1, 3]

    def test_worker_count_clamped_to_world_size(self):
        t = ProcessTransport(self.CFG, workers=16)
        assert t.nworkers == 4

    def test_start_method_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROCESS_START", "not-a-method")
        with pytest.raises(ConfigError, match="start method"):
            _start_method()
        monkeypatch.delenv("REPRO_PROCESS_START")
        assert _start_method() in ("fork", "spawn")


class TestExecutorSeam:
    def test_resolve_backend_accepts_process(self):
        assert resolve_backend("process") == "process"
        assert resolve_backend(None, {"REPRO_BACKEND": "process"}) == "process"
