"""Backend and worker-count resolution."""

import pytest

from repro.core.executor import resolve_backend, resolve_workers
from repro.errors import ConfigError


class TestResolveBackend:
    def test_default_is_sim(self):
        assert resolve_backend(None, env={}) == "sim"

    def test_explicit_wins_over_env(self):
        assert resolve_backend("sim", env={"REPRO_BACKEND": "process"}) == "sim"

    def test_env_fallback(self):
        assert resolve_backend(None, env={"REPRO_BACKEND": "process"}) == "process"
        assert resolve_backend(None, env={"REPRO_BACKEND": " Sim "}) == "sim"

    def test_unknown_backend_raises(self):
        with pytest.raises(ConfigError):
            resolve_backend("threads", env={})
        with pytest.raises(ConfigError):
            resolve_backend(None, env={"REPRO_BACKEND": "mpi"})

    def test_removed_parallel_backend_fails_plainly(self):
        """REPRO_BACKEND=parallel names the value as removed and points
        at process — no fallback to a surviving backend."""
        with pytest.raises(ConfigError, match="removed.*process"):
            resolve_backend(None, env={"REPRO_BACKEND": "parallel"})


class TestResolveWorkers:
    def test_explicit_capped_at_world_size(self):
        assert resolve_workers(16, 4, env={}) == 4
        assert resolve_workers(2, 4, env={}) == 2

    def test_zero_means_auto(self):
        assert resolve_workers(0, 64, env={"REPRO_WORKERS": "3"}) == 3
        # Without the env var, auto resolves to the core count (>= 1).
        assert resolve_workers(0, 64, env={}) >= 1

    def test_invalid_values_raise(self):
        with pytest.raises(ConfigError):
            resolve_workers(-1, 4, env={})
        with pytest.raises(ConfigError):
            resolve_workers(0, 4, env={"REPRO_WORKERS": "many"})
        with pytest.raises(ConfigError):
            resolve_workers(0, 4, env={"REPRO_WORKERS": "0"})
