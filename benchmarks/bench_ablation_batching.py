"""Ablation B — Section 4.4 application-level batched communication.

The paper reports that a barrier every 2^25-2^30 global requests avoids
congestion at billion scale.  In the cost model the effect appears as
the trade-off between barrier latency (many small batches) and buffer
pressure (no batching): this ablation sweeps the batch size and reports
barrier counts, flush counts, and simulated time.
"""


from _common import report, scaled
from repro import DNND, ClusterConfig, DNNDConfig, NNDescentConfig
from repro.datasets.ann_benchmarks import load_dataset
from repro.eval.tables import ascii_table

BATCHES = [1 << 8, 1 << 10, 1 << 13, 1 << 16, 0]  # 0 = no app batching

_cache = {}


def run_all():
    if _cache:
        return _cache
    n = scaled(600)
    data, spec = load_dataset("deep1b", n=n, seed=10)
    rows = []
    for batch in BATCHES:
        cfg = DNNDConfig(nnd=NNDescentConfig(k=10, metric=spec.metric, seed=10),
                         batch_size=batch)
        dnnd = DNND(data, cfg, cluster=ClusterConfig(nodes=4, procs_per_node=2))
        res = dnnd.build()
        rows.append({
            "batch": batch,
            "barriers": dnnd.cluster.ledger.barriers,
            "flushes": dnnd.world.log.totals.counts["comm.flushes"],
            "sim_seconds": res.sim_seconds,
            "iterations": res.iterations,
        })
    _cache["rows"] = rows
    return _cache


def test_smaller_batches_mean_more_barriers(benchmark):
    out = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = {r["batch"]: r for r in out["rows"]}
    assert rows[1 << 8]["barriers"] > rows[1 << 13]["barriers"]
    assert rows[1 << 13]["barriers"] >= rows[0]["barriers"]


def test_convergence_independent_of_batching(benchmark):
    out = benchmark.pedantic(run_all, rounds=1, iterations=1)
    iters = {r["iterations"] for r in out["rows"]}
    # Batch barriers change message timing, not the algorithm: iteration
    # counts must stay in a tight band.
    assert max(iters) - min(iters) <= 1


def test_print_batching(benchmark):
    out = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table_rows = [
        [("none" if r["batch"] == 0 else f"2^{r['batch'].bit_length() - 1}"),
         r["barriers"], r["flushes"], f"{r['sim_seconds']:.5f}",
         r["iterations"]]
        for r in out["rows"]
    ]
    report("ablation_batching", ascii_table(
        ["batch size", "barriers", "buffer flushes", "sim seconds",
         "iterations"],
        table_rows,
        title=("Ablation: Section 4.4 batch size (paper uses 2^25-2^30 "
               "requests at billion scale)"),
    ))
