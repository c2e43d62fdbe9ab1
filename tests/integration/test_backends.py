"""Execution-backend contract: sim vs process.

The sim backend is the deterministic cost-modeled default; the process
backend must build graphs of equivalent quality (recall@k within ±0.01).
Fault plans, reliable delivery and supervised recovery work on *both*
backends; the network cost model is a simulation by definition and must
fail loudly — never fall back, however the backend was selected — when
requested under process.
"""

import warnings

import numpy as np
import pytest

from repro import DNND, ClusterConfig, DNNDConfig, NNDescentConfig
from repro.baselines.bruteforce import brute_force_neighbors
from repro.config import CommOptConfig
from repro.core.graph import KNNGraph
from repro.errors import ConfigError
from repro.eval.recall import graph_recall
from repro.runtime.faults import FaultPlan
from repro.runtime.netmodel import NetworkModel

CLUSTER = ClusterConfig(nodes=2, procs_per_node=2)
K = 6


def build(data, backend, workers=0, **dnnd_kwargs):
    cfg = DNNDConfig(nnd=NNDescentConfig(k=K, seed=29),
                     backend=backend, workers=workers)
    dnnd = DNND(data, cfg, cluster=CLUSTER, **dnnd_kwargs)
    try:
        return dnnd.build()
    finally:
        dnnd.close()


class TestRecallParity:
    def test_recall_within_tolerance(self, small_dense):
        ids, dists = brute_force_neighbors(small_dense, small_dense, K,
                                           exclude_self=True)
        truth = KNNGraph(ids, dists)
        r_sim = graph_recall(build(small_dense, "sim").graph, truth)
        r_proc = graph_recall(build(small_dense, "process", workers=2).graph,
                              truth)
        assert r_sim > 0.85  # sanity: the build worked at all
        assert abs(r_sim - r_proc) <= 0.01

    def test_backend_attribute(self, tiny_dense):
        cfg = DNNDConfig(nnd=NNDescentConfig(k=4, seed=1), backend="process",
                         workers=2)
        dnnd = DNND(tiny_dense, cfg, cluster=CLUSTER)
        assert dnnd.backend == "process"
        dnnd.close()


class TestSimOnlyNetModel:
    def test_no_warning_without_fallback(self, tiny_dense):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dnnd = DNND(tiny_dense,
                        DNNDConfig(nnd=NNDescentConfig(k=4, seed=1)),
                        cluster=CLUSTER)
        assert dnnd.metrics.snapshot()["counters"]["backend.fallbacks"] == 0
        dnnd.close()


class TestSimOnlyFeaturesOnProcess:
    """The one sim-only feature: a cost model under the process backend
    is a ``ConfigError`` whether the backend was requested explicitly or
    through the environment — nothing downgrades a run.  (Fault plans
    and reliable delivery under process: ``test_fault_conformance``.)"""

    @pytest.mark.parametrize("kwargs", [dict(net=NetworkModel())],
                             ids=("net",))
    def test_explicit_process_rejected(self, tiny_dense, kwargs):
        with pytest.raises(ConfigError, match="sim"):
            build(tiny_dense, "process", workers=2, **kwargs)

    def test_env_process_with_sim_only_falls_back(self, tiny_dense,
                                                  monkeypatch):
        """Kept under its old name: what used to fall back to sim with
        a warning is now the same ``ConfigError`` as the explicit
        request."""
        monkeypatch.setenv("REPRO_BACKEND", "process")
        cfg = DNNDConfig(nnd=NNDescentConfig(k=4, seed=1))
        with pytest.raises(ConfigError, match="sim"):
            DNND(tiny_dense, cfg, cluster=CLUSTER, net=NetworkModel())

    def test_env_process_without_blockers_sticks(self, tiny_dense,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        monkeypatch.setenv("REPRO_WORKERS", "2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dnnd = DNND(tiny_dense,
                        DNNDConfig(nnd=NNDescentConfig(k=4, seed=1)),
                        cluster=CLUSTER)
        assert dnnd.backend == "process"
        assert dnnd.metrics.snapshot()["counters"]["backend.fallbacks"] == 0
        dnnd.close()

    def test_crash_plan_accepted_natively(self, tiny_dense):
        result = build(tiny_dense, "process", workers=4,
                       fault_plan=FaultPlan(crashes=((2, 1),)))
        assert result.graph.ids.shape == (len(tiny_dense), K)
        assert result.fault_stats.crashes == 1


# Delivery-order-invariant configuration: no redundancy checks or
# pruning bounds read at delivery time, no early termination — under it
# a backend is content-deterministic run to run, which is what the
# checkpoint round-trip needs.
ORDER_INVARIANT = dict(
    comm_opts=CommOptConfig(one_sided=True, redundancy_check=False,
                            distance_pruning=False, check_dedup=False),
)


class TestCheckpointRoundTripPerBackend:
    @pytest.mark.parametrize("backend,workers",
                             [("sim", 0), ("process", 2)])
    def test_resume_equals_uninterrupted(self, small_dense, tmp_path,
                                         backend, workers):
        cfg = DNNDConfig(
            nnd=NNDescentConfig(k=K, seed=61, max_iters=6, delta=0.0),
            backend=backend, workers=workers, **ORDER_INVARIANT)

        full = DNND(small_dense, cfg, cluster=CLUSTER)
        reference = full.build()
        full.close()
        assert reference.iterations == 6  # delta=0 disables early stop

        # Interrupt after init + 3 iterations by driving the phases
        # manually (the same crash-simulation idiom as
        # test_checkpoint_resume), then resume under the same backend.
        ckpt = tmp_path / f"ckpt_{backend}"
        partial = DNND(small_dense, cfg, cluster=CLUSTER)
        partial._built = True
        partial._init_phase()
        counts = [partial._iteration(it) for it in range(3)]
        partial._write_checkpoint(ckpt, 3, counts)
        partial.close()

        resumed = DNND.resume(small_dense, ckpt, cluster=CLUSTER,
                              backend=backend, workers=workers)
        # The result keeps its driver (and a process pool) reachable
        # through a cycle; stop the workers now, not at some later GC.
        resumed.dnnd.close()
        assert resumed.iterations == reference.iterations
        assert np.array_equal(resumed.graph.ids, reference.graph.ids)
        assert (resumed.graph.dists.tobytes()
                == reference.graph.dists.tobytes())
