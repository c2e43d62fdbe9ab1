"""Ablation F — YGM's internal buffer size.

Section 4.4 distinguishes YGM's *internal* buffering ("automatically
sends messages when its internal buffer exceeds a certain threshold")
from the application-level batching DNND adds on top.  This ablation
sweeps the internal buffer's byte cap: small buffers pay per-flush
latency on nearly every message; large buffers amortize it but deliver
work in bursts.  In the cost model the latency effect dominates, which
is exactly why YGM buffers at all.
"""


from _common import report, scaled
from repro import ClusterConfig, DNNDConfig, NNDescentConfig
from repro.core.dnnd import DNND
from repro.datasets.ann_benchmarks import load_dataset
from repro.eval.tables import ascii_table

BUFFER_BYTES = [1 << 10, 1 << 14, 1 << 18, 1 << 22]

_cache = {}


def run_all():
    if _cache:
        return _cache
    n = scaled(500)
    data, spec = load_dataset("deep1b", n=n, seed=16)
    rows = []
    for cap in BUFFER_BYTES:
        cfg = DNNDConfig(nnd=NNDescentConfig(k=8, seed=16), batch_size=1 << 13)
        dnnd = DNND(data, cfg, cluster=ClusterConfig(nodes=4, procs_per_node=2))
        dnnd.world.flush_threshold_bytes = cap  # the knob under test
        res = dnnd.build()
        rows.append({
            "cap": cap,
            "flushes": dnnd.world.log.totals.counts["comm.flushes"],
            "sim_seconds": res.sim_seconds,
            "iterations": res.iterations,
        })
    _cache["rows"] = rows
    return _cache


def test_smaller_buffers_flush_more(benchmark):
    out = benchmark.pedantic(run_all, rounds=1, iterations=1)
    flushes = [r["flushes"] for r in out["rows"]]
    assert flushes[0] > flushes[-1]


def test_convergence_unaffected(benchmark):
    out = benchmark.pedantic(run_all, rounds=1, iterations=1)
    iters = {r["iterations"] for r in out["rows"]}
    assert max(iters) - min(iters) <= 1


def test_print_flush_ablation(benchmark):
    out = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [[f"2^{r['cap'].bit_length() - 1} B", r["flushes"],
             f"{r['sim_seconds']:.5f}", r["iterations"]]
            for r in out["rows"]]
    report("ablation_flush", ascii_table(
        ["buffer cap", "flushes", "sim seconds", "iterations"],
        rows,
        title="Ablation: YGM internal buffer byte cap (Section 4.4)",
    ))
