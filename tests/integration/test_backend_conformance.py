"""Cross-backend conformance: sim and process must agree.

The observability contract (DESIGN.md §12): all execution backends
emit the *same metric names*, and the order-insensitive subset — message
counts and bytes by type, heap update attempts, distance evaluations,
handler invocations, collective calls — must be *value-identical* for a
delivery-order-invariant configuration.  That envelope is the
unoptimized communication pattern with early termination disabled
(``delta=0``, fixed iteration count): no redundancy check or distance
pruning whose outcome depends on message arrival order.

``comm.barriers`` is inside the contract: the driver owns the
schedule — every barrier of a build is taken by ``DNND``, paced by what
the ranks staged — so it does not depend on who hosts the ranks.

Scheduling-dependent quantities are deliberately outside the contract
and excluded here: ``comm.flushes`` (a worker's buffers fill in its own
ranks' order), ``executor.dispatches`` (sections broadcast to workers;
sim runs them inline), ``heap.updates.accepted`` (accepted pushes
depend on arrival order even when the converged graph does not).

The kernel axis (``REPRO_KERNEL``, DESIGN.md §17): under the default
``rowwise`` kernel every distance is a pure per-row function, so the
full bit-identity contract above applies.  Under ``blocked`` the
kernels compute in the native input dtype (float32 here), which
quantizes distances coarsely enough that *exact ties* occur; tie
acceptance depends on message arrival order, so backends with
scheduling freedom may legitimately diverge on tied candidates.  The
contract weakens exactly as the issue specifies: neighbor-set overlap
and end-to-end recall must agree within 0.005, and the order-invariant
counters within a matching envelope, instead of bit-for-bit.
"""

from __future__ import annotations

import os
from collections import Counter

import numpy as np
import pytest

from repro import DNND, ClusterConfig, DNNDConfig, NNDescentConfig
from repro.baselines.bruteforce import brute_force_neighbors
from repro.config import CommOptConfig
from repro.core.search import KNNGraphSearcher
from repro.eval.recall import recall_at_k
from repro.runtime.partition import make_partitioner

BACKENDS = ("sim", "process")

#: The whole suite is partitioner-generic: every backend builds under
#: the same placement, so cross-backend agreement must hold whichever
#: partitioner CI's conformance matrix selects (REPRO_PARTITIONER).
PARTITIONER = os.environ.get("REPRO_PARTITIONER", "hash")

#: Kernel axis of the CI matrix: "rowwise" (default) keeps the strict
#: bit-identity contract; "blocked" weakens the order-sensitive
#: assertions to the recall-parity gate (see module docstring).
KERNEL = os.environ.get("REPRO_KERNEL", "rowwise")
EXACT = KERNEL == "rowwise"

#: Maximum divergence tolerated under the blocked kernel: neighbor-set
#: overlap and recall within 0.005 of sim (the issue's parity gate).
PARITY = 0.005

#: Exact-value conformance set: names (or name prefixes) whose values
#: must be identical across backends in the order-invariant envelope.
CONFORMANT_PREFIXES = ("messages.sent", "messages.bytes",
                       "messages.offnode", "faults.")
CONFORMANT_NAMES = frozenset({
    "bytes.sent",
    "heap.updates",
    "distance.evals",
    "executor.tasks",
    "transport.collectives",
    "comm.barriers",
})


def _conformant_counters(counters: dict) -> dict:
    return {name: value for name, value in counters.items()
            if name in CONFORMANT_NAMES
            or name.startswith(CONFORMANT_PREFIXES)}


def _build(data, backend: str):
    cfg = DNNDConfig(
        nnd=NNDescentConfig(k=6, rho=0.8, delta=0.0, max_iters=4, seed=3),
        comm_opts=CommOptConfig.unoptimized(),
        batch_size=1 << 12,
        backend=backend,
        kernel=KERNEL,
        workers=4,
    )
    cluster = ClusterConfig(nodes=2, procs_per_node=2)
    dnnd = DNND(data, cfg, cluster=cluster,
                partitioner=make_partitioner(
                    PARTITIONER, len(data), cluster.world_size,
                    data=data, seed=3))
    try:
        return dnnd.build()
    finally:
        # Results (graph, metrics) outlive the build; closing here
        # stops the process backend's workers.
        dnnd.close()


@pytest.fixture(scope="module")
def runs(small_dense):
    """One build per backend over identical data and configuration."""
    return {backend: _build(small_dense, backend) for backend in BACKENDS}


@pytest.fixture(scope="module")
def query_set(small_dense):
    """Seeded out-of-sample queries plus their exact ground truth."""
    rng = np.random.default_rng(2026)
    base = small_dense[rng.choice(len(small_dense), size=25, replace=False)]
    queries = base + rng.normal(scale=0.02, size=base.shape).astype(
        small_dense.dtype)
    gt_ids, _ = brute_force_neighbors(small_dense, queries, k=6)
    return queries, gt_ids


def _recall(result, data, query_set) -> float:
    queries, gt_ids = query_set
    searcher = KNNGraphSearcher(result.graph.to_adjacency(), data, seed=7)
    found = np.vstack([searcher.query(q, l=20, epsilon=0.4).ids[:6]
                       for q in queries])
    return recall_at_k(found, gt_ids)


class TestBackendConformance:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_final_graph_identical_to_sim(self, runs, backend):
        ref = runs["sim"].graph
        got = runs[backend].graph
        if EXACT:
            np.testing.assert_array_equal(got.ids, ref.ids)
            np.testing.assert_allclose(got.dists, ref.dists, rtol=0, atol=0)
        else:
            # Blocked kernel: float32 distance ties make tied candidates
            # arrival-order dependent; gate neighbor-set overlap instead.
            overlap = np.mean([
                len(set(a) & set(b)) / len(a)
                for a, b in zip(got.ids, ref.ids)])
            assert overlap >= 1.0 - PARITY

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_recall_identical_on_seeded_queries(self, runs, small_dense,
                                                query_set, backend):
        ref = _recall(runs["sim"], small_dense, query_set)
        got = _recall(runs[backend], small_dense, query_set)
        if EXACT:
            assert got == ref
        else:
            assert abs(got - ref) <= PARITY
        assert got > 0.8  # the graphs must also be *good*, not just equal

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_metric_names_identical(self, runs, backend):
        """Both backends emit the exact same counter name set."""
        ref = set(runs["sim"].metrics.snapshot()["counters"])
        got = set(runs[backend].metrics.snapshot()["counters"])
        assert got == ref

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_order_insensitive_counters_identical(self, runs, backend):
        ref = _conformant_counters(
            runs["sim"].metrics.snapshot()["counters"])
        got = _conformant_counters(
            runs[backend].metrics.snapshot()["counters"])
        if EXACT:
            assert got == ref
        else:
            # Tied-candidate divergence perturbs later iterations'
            # new/old lists, so traffic totals track the parity gate
            # rather than matching exactly.
            assert set(got) == set(ref)
            for name, value in ref.items():
                # (the floor of one: a chunk boundary of the driver's
                # pump can move by one barrier.)
                assert abs(got[name] - value) <= max(1, 0.02 * value)
                if value == 0:
                    assert got[name] == 0
        # The set is non-trivial: real traffic flowed through it.
        assert ref["messages.sent"] > 0
        assert ref["heap.updates"] > 0
        assert any(name.startswith("messages.sent.") for name in ref)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_phase_list_identical(self, runs, backend):
        """Same phases, same order, same per-phase span counts."""
        ref = runs["sim"].metrics
        got = runs[backend].metrics
        assert got.phase_names() == ref.phase_names()
        ref_spans = [s.name for s in ref.spans if s.cat == "phase"]
        got_spans = [s.name for s in got.spans if s.cat == "phase"]
        assert got_spans == ref_spans

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_snapshot_schema_identical(self, runs, backend):
        ref = runs["sim"].metrics.snapshot()
        got = runs[backend].metrics.snapshot()
        assert got["schema"] == ref["schema"]
        assert got["enabled"] and ref["enabled"]

    def test_iterations_and_convergence_match(self, runs):
        ref = runs["sim"]
        for backend in BACKENDS:
            assert runs[backend].iterations == ref.iterations
            assert runs[backend].converged == ref.converged

    def test_barrier_logs_agree(self, runs):
        """Same supersteps on both backends: record count, phase and
        iteration sequence, and per-phase conformant totals."""
        ref = runs["sim"].metrics.log
        got = runs["process"].metrics.log
        assert len(got.records) == len(ref.records)
        assert ([(r.phase, r.iteration) for r in got.records]
                == [(r.phase, r.iteration) for r in ref.records])
        if EXACT:
            assert ({p: s.by_type for p, s in got.phase_stats().items()}
                    == {p: s.by_type for p, s in ref.phase_stats().items()})
            for name in ("heap.updates", "distance.evals"):
                assert got.totals.tally(name) == ref.totals.tally(name)


@pytest.mark.skipif(not EXACT, reason="bit-identity needs rowwise kernels")
def test_one_worker_log_equals_sim_record_for_record(small_dense):
    """A one-worker process world delivers in sim's order: its barrier
    log is sim's, record for record (wall timestamps aside)."""
    def records(backend):
        cfg = DNNDConfig(nnd=NNDescentConfig(k=6, max_iters=3, seed=3),
                         batch_size=1 << 12, backend=backend, workers=1,
                         kernel=KERNEL)
        dnnd = DNND(small_dense, cfg,
                    cluster=ClusterConfig(nodes=2, procs_per_node=2))
        try:
            dnnd.build()
        finally:
            dnnd.close()
        out = []
        for record in dnnd.world.log.to_json():
            # Wall time, the cost model and scheduling counters aside.
            for key in ("time", "duration", "imbalance"):
                del record[key]
            for name in ("comm.flushes", "executor.dispatches"):
                record["delta"]["counts"].pop(name, None)
            out.append(record)
        return out

    assert records("process") == records("sim")


def _count_calls(obj, *names):
    """Wrap methods ``names`` of ``obj`` to count their calls."""
    calls = Counter()
    for name in names:
        def counted(*args, _fn=getattr(obj, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        setattr(obj, name, counted)
    return calls


def _live_sources(dnnd, result, calls) -> dict:
    """Every registry counter, each from where it is counted or kept
    now: the transport's collective calls, the cost ledger's barriers,
    the driver's section broadcasts, the result's iterations and
    recoveries, and the barrier log's running totals (every handler and
    flush happens inside a barrier)."""
    live = dnnd.world.log.totals
    sent = result.message_stats
    out = {}
    for t, s in sent.by_type.items():
        out[f"messages.sent.{t}"] = s.count
        out[f"messages.bytes.{t}"] = s.bytes
    for name in ("executor.tasks", "comm.flushes", "comm.local_deliveries"):
        out[name] = live.counts[name]
    for name in ("heap.updates", "distance.evals", "kernel.tile_flops"):
        out[name] = live.tally(name)
    for event, n in result.fault_stats.snapshot().items():
        out[f"faults.{event}"] = n
    return {
        **out,
        "messages.sent": sent.total_count(),
        "comm.remote_deliveries": sent.total_count(),
        "bytes.sent": sent.total_bytes(),
        "messages.offnode.sent": sent.offnode_count(),
        "messages.offnode.bytes": sent.offnode_bytes(),
        "transport.collectives": calls["allreduce"] + calls["gather"],
        "comm.barriers": dnnd.cluster.ledger.barriers,
        "executor.dispatches": (calls["run_section"]
                                if dnnd.backend == "process" else 0),
        "heap.updates.accepted": sum(result.update_counts),
        "recovery.attempts": result.recoveries,
        "backend.fallbacks": 0,
    }


@pytest.fixture(scope="module")
def live_reads(small_dense):
    """Per backend, ``(snapshot counters, live sources)`` after
    ``build()`` and again after ``optimize()``."""
    out = {}
    for backend in BACKENDS:
        cfg = DNNDConfig(nnd=NNDescentConfig(k=6, max_iters=3, seed=3),
                         batch_size=1 << 12, backend=backend, workers=2,
                         kernel=KERNEL)
        dnnd = DNND(small_dense, cfg,
                    cluster=ClusterConfig(nodes=2, procs_per_node=2))
        calls = _count_calls(dnnd.cluster, "allreduce", "gather")
        sections = _count_calls(dnnd.host, "run_section")
        try:
            result = dnnd.build()
            reads = []
            for step in ("build", "optimize"):
                if step == "optimize":
                    dnnd.optimize()
                reads.append((result.metrics.snapshot()["counters"],
                              _live_sources(dnnd, result,
                                            calls + sections)))
        finally:
            dnnd.close()
        out[backend] = reads
    return out


@pytest.mark.parametrize("step", [0, 1], ids=["build", "optimize"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_snapshot_counters_equal_their_live_sources(live_reads, backend,
                                                    step):
    """Registry counters are a view of the barrier log, read when the
    snapshot is taken: each equals where it is counted, by name and
    value, after ``build()`` and after ``optimize()``.  The mirror they
    replace was published at barriers, so it missed what happened after
    the last one — the last iteration's allreduce and the gather
    (``transport.collectives`` read 5 of the 7 collectives a build
    runs)."""
    counters, live = live_reads[backend][step]
    assert counters == live
    assert counters["transport.collectives"] > 0
    assert counters["comm.barriers"] > 0


@pytest.fixture(scope="module")
def lowdim_process():
    """A build at the ``lowdim-process`` benchmark configuration with
    every driver broadcast recorded as ``(cmd, per_worker, replies)``."""
    from repro import make_benchmark_dataset
    from repro.runtime.transports.process import ProcessTransport

    data = make_benchmark_dataset("glove-25", 1000, 10, seed=0)[0]
    cfg = DNNDConfig(
        nnd=NNDescentConfig(k=10, seed=0, delta=0.0, max_iters=6),
        backend="process", workers=2, kernel="rowwise")
    dnnd = DNND(data, cfg, cluster=ClusterConfig(nodes=4, procs_per_node=2))
    calls = []
    command_all = dnnd.cluster.command_all

    def recording(cmd, payload=None, per_worker=None):
        replies = command_all(cmd, payload, per_worker)
        calls.append((cmd, per_worker, replies))
        return replies

    dnnd.cluster.command_all = recording
    try:
        result = dnnd.build()
    finally:
        dnnd.close()
    assert isinstance(dnnd.cluster, ProcessTransport)
    return result, calls


def test_counters_travel_only_in_round_replies(lowdim_process):
    """One transport of counters: at the ``lowdim-process`` benchmark
    configuration the driver broadcasts rounds, sections and the one
    shard-state read it needs — nothing that only moves or labels
    counters — while sections dispatched and barriers taken are what
    they were with the ``export_stats`` / ``shard_totals`` /
    ``set_phase`` round trips (57 and 32)."""
    result, calls = lowdim_process
    broadcasts = Counter(cmd for cmd, _, _ in calls)
    rounds = broadcasts.pop("__round__")
    assert broadcasts == {"section": 57, "gather_rows": 1}
    counters = result.metrics.snapshot()["counters"]
    assert counters["executor.dispatches"] == 57
    assert counters["comm.barriers"] == 32 <= rounds


def test_a_round_ships_one_frame_per_worker_pair(lowdim_process):
    """Each ``__round__`` is one superstep: a worker ships at most one
    frame to each other worker, and the next round hands each worker
    exactly the frames shipped to it in this one, as the bytes its
    sender pickled (a barrier's first round, which only ships what the
    sections staged, hands none).  The superstep changes neither the
    barrier count (32) nor the sections (57)."""
    result, calls = lowdim_process
    held, frames, firsts = None, 0, 0
    for cmd, per_worker, replies in calls:
        if cmd != "__round__":
            continue
        firsts += held is None
        assert per_worker == {
            w: None if held is None else held.get(w, []) for w in (0, 1)}
        held, moved = {}, False
        for w, ((ran, idle, shipped), _delta) in replies.items():
            assert set(shipped) <= {1 - w}       # never itself, at most once
            assert all(isinstance(f, bytes) for f in shipped.values())
            frames += len(shipped)
            moved = moved or ran > 0 or bool(shipped) or not idle
            for dest, frame in shipped.items():
                held.setdefault(dest, []).append(frame)
        if not moved:                            # the barrier is over
            held = None
    assert held is None and frames > 0 and firsts == 32
    counters = result.metrics.snapshot()["counters"]
    assert counters["comm.barriers"] == 32
    assert counters["executor.dispatches"] == 57


class TestOptimizedCommGraphs:
    """With the Section 4.3 optimizations on, message *counts* are
    order-dependent (redundancy checks race across process
    workers), but at this scale the converged graph itself still
    matches — pin that weaker, still useful, invariant."""

    @pytest.fixture(scope="class")
    def opt_runs(self, tiny_dense):
        def build(backend):
            cfg = DNNDConfig(
                nnd=NNDescentConfig(k=5, rho=0.8, delta=0.0, max_iters=3,
                                    seed=9),
                comm_opts=CommOptConfig.optimized(),
                backend=backend, workers=4)
            return DNND(tiny_dense, cfg,
                        cluster=ClusterConfig(nodes=2, procs_per_node=2)
                        ).build()
        return {backend: build(backend) for backend in BACKENDS}

    def test_metric_names_still_identical(self, opt_runs):
        ref = set(opt_runs["sim"].metrics.snapshot()["counters"])
        got = set(opt_runs["process"].metrics.snapshot()["counters"])
        assert got == ref


class TestSparseConformance:
    """The sparse leg: a Jaccard stand-in reaches process workers as a
    dense array does (``SparseDataset`` is a start argument like any
    other), so the same contract holds — bit-identity in the
    order-invariant envelope, recall parity under the default pattern.
    The sparse metrics have no blocked form, so the kernel axis does not
    weaken this leg."""

    @staticmethod
    def _build(data, backend: str, workers: int, comm_opts):
        cfg = DNNDConfig(
            nnd=NNDescentConfig(k=6, rho=0.8, delta=0.0, max_iters=3,
                                seed=3, metric="jaccard"),
            comm_opts=comm_opts, batch_size=1 << 12, backend=backend,
            kernel=KERNEL, workers=workers)
        dnnd = DNND(data, cfg,
                    cluster=ClusterConfig(nodes=2, procs_per_node=2))
        try:
            return dnnd.build()
        finally:
            dnnd.close()

    @pytest.fixture(scope="class")
    def sim(self, sparse_sets):
        return self._build(sparse_sets, "sim", 0, CommOptConfig.unoptimized())

    @pytest.mark.parametrize("workers", [2, 4])
    def test_envelope_identical_to_sim(self, sparse_sets, sim, workers):
        got = self._build(sparse_sets, "process", workers,
                          CommOptConfig.unoptimized())
        np.testing.assert_array_equal(got.graph.ids, sim.graph.ids)
        assert got.graph.dists.tobytes() == sim.graph.dists.tobytes()
        ref_counters = _conformant_counters(
            sim.metrics.snapshot()["counters"])
        assert _conformant_counters(
            got.metrics.snapshot()["counters"]) == ref_counters
        assert got.distance_evals == sim.distance_evals > 0
        # Ragged records: the modeled Type 2 bytes are per message.
        assert ref_counters["messages.bytes.type2"] > 0

    @pytest.mark.parametrize("workers", [2, 4])
    def test_default_pattern_recall_parity(self, sparse_sets, workers):
        from repro import brute_force_knn_graph, graph_recall

        truth = brute_force_knn_graph(sparse_sets, k=6, metric="jaccard")
        ref = self._build(sparse_sets, "sim", 0, CommOptConfig.optimized())
        got = self._build(sparse_sets, "process", workers,
                          CommOptConfig.optimized())
        ref_recall = graph_recall(ref.graph, truth)
        assert abs(graph_recall(got.graph, truth) - ref_recall) <= 0.01
        assert ref_recall > 0.8
