"""Unit tests for configuration dataclasses and validation."""

import pytest

from repro.config import ClusterConfig, CommOptConfig, DNNDConfig, NNDescentConfig
from repro.errors import ConfigError


class TestNNDescentConfig:
    def test_defaults_match_paper(self):
        cfg = NNDescentConfig()
        assert cfg.rho == 0.8
        assert cfg.delta == 0.001

    def test_sample_size_rounds(self):
        assert NNDescentConfig(k=10, rho=0.8).sample_size == 8
        assert NNDescentConfig(k=10, rho=0.05).sample_size == 1
        assert NNDescentConfig(k=3, rho=0.5).sample_size == 2

    def test_sample_size_never_zero(self):
        assert NNDescentConfig(k=1, rho=0.01).sample_size == 1

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_bad_k(self, bad):
        with pytest.raises(ConfigError):
            NNDescentConfig(k=bad)

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.5])
    def test_rejects_bad_rho(self, bad):
        with pytest.raises(ConfigError):
            NNDescentConfig(rho=bad)

    def test_rejects_negative_delta(self):
        with pytest.raises(ConfigError):
            NNDescentConfig(delta=-0.01)

    def test_rejects_bad_max_iters(self):
        with pytest.raises(ConfigError):
            NNDescentConfig(max_iters=0)

    def test_with_replaces_fields(self):
        cfg = NNDescentConfig(k=10).with_(k=20, rho=0.5)
        assert cfg.k == 20 and cfg.rho == 0.5
        # original untouched (frozen)
        assert NNDescentConfig(k=10).k == 10

    def test_frozen(self):
        cfg = NNDescentConfig()
        with pytest.raises(AttributeError):
            cfg.k = 5


class TestCommOptConfig:
    def test_default_is_fully_optimized(self):
        cfg = CommOptConfig()
        assert cfg.one_sided and cfg.redundancy_check and cfg.distance_pruning

    def test_unoptimized_factory(self):
        cfg = CommOptConfig.unoptimized()
        assert not (cfg.one_sided or cfg.redundancy_check or cfg.distance_pruning)

    def test_optimized_factory(self):
        assert CommOptConfig.optimized() == CommOptConfig()

    def test_refinements_require_one_sided(self):
        with pytest.raises(ConfigError):
            CommOptConfig(one_sided=False, redundancy_check=True)
        with pytest.raises(ConfigError):
            CommOptConfig(one_sided=False, distance_pruning=True)

    def test_one_sided_only_is_legal(self):
        cfg = CommOptConfig(one_sided=True, redundancy_check=False,
                            distance_pruning=False)
        assert cfg.one_sided


class TestDNNDConfig:
    def test_defaults_match_paper(self):
        cfg = DNNDConfig()
        assert cfg.pruning_factor == 1.5
        assert cfg.shuffle_reverse_destinations
        assert cfg.nnd.delta == 0.001

    def test_k_passthrough(self):
        assert DNNDConfig(nnd=NNDescentConfig(k=30)).k == 30

    def test_rejects_negative_batch(self):
        with pytest.raises(ConfigError):
            DNNDConfig(batch_size=-1)

    def test_zero_batch_disables(self):
        assert DNNDConfig(batch_size=0).batch_size == 0

    def test_rejects_small_pruning_factor(self):
        with pytest.raises(ConfigError):
            DNNDConfig(pruning_factor=0.9)

    def test_removed_parallel_backend_fails_plainly(self):
        with pytest.raises(ConfigError, match="removed.*process"):
            DNNDConfig(backend="parallel")

    def test_removed_batch_exec_switch_fails_plainly(self):
        """There is one engine; asking for another is an error, not a
        silently accepted no-op."""
        with pytest.raises(TypeError, match="batch_exec"):
            DNNDConfig(batch_exec=False)
        with pytest.raises(TypeError, match="batch_exec"):
            DNNDConfig().with_(batch_exec=True)

    def test_with_nested_keys(self):
        cfg = DNNDConfig().with_(**{"nnd.k": 25, "batch_size": 128})
        assert cfg.k == 25 and cfg.batch_size == 128

    def test_with_bare_nnd_field_names(self):
        cfg = DNNDConfig().with_(k=12, rho=0.5, pruning_factor=2.0)
        assert cfg.k == 12
        assert cfg.nnd.rho == 0.5
        assert cfg.pruning_factor == 2.0


class TestClusterConfig:
    def test_world_size(self):
        assert ClusterConfig(nodes=4, procs_per_node=128).world_size == 512

    def test_node_of_block_mapping(self):
        cfg = ClusterConfig(nodes=3, procs_per_node=4)
        assert cfg.node_of(0) == 0
        assert cfg.node_of(3) == 0
        assert cfg.node_of(4) == 1
        assert cfg.node_of(11) == 2

    def test_node_of_rejects_out_of_range(self):
        cfg = ClusterConfig(nodes=2, procs_per_node=2)
        with pytest.raises(ConfigError):
            cfg.node_of(4)
        with pytest.raises(ConfigError):
            cfg.node_of(-1)

    @pytest.mark.parametrize("nodes,ppn", [(0, 1), (1, 0), (-1, 4)])
    def test_rejects_bad_shape(self, nodes, ppn):
        with pytest.raises(ConfigError):
            ClusterConfig(nodes=nodes, procs_per_node=ppn)
