"""Ablation — fault injection vs reliable-delivery overhead.

Not a paper figure: the paper assumes a reliable MPI fabric.  This
ablation quantifies what that assumption is worth by injecting message
loss — a drop loses one flushed buffer, every message it holds — and
measuring (a) what an *unprotected* build loses in recall and
(b) what the reliable-delivery mode (acks + retransmits + dedup) pays in
simulated time and extra traffic to mask the same faults — plus how the
retransmit budget trades robustness against fail-fast behaviour.

Series reported:

- recall@k and sim-time vs flush drop rate, unreliable vs reliable,
- recovery traffic (acks, retransmits) vs drop rate,
- minimum retry budget that survives each drop rate.
"""

import pytest

from _common import report, scaled
from repro import (
    ClusterConfig,
    DNNDConfig,
    FaultPlan,
    NNDescentConfig,
    brute_force_knn_graph,
    graph_recall,
)
from repro.core.dnnd import DNND
from repro.datasets.ann_benchmarks import load_dataset
from repro.errors import FaultToleranceError
from repro.eval.tables import ascii_table

DROP_RATES = [0.0, 0.02, 0.05, 0.10, 0.20]
# At BUDGET_DROP_RATE both data and acks drop, so one attempt succeeds
# with p = (1 - rate)^2 — small budgets give up, the default (32) rides
# it out.
RETRY_BUDGETS = [1, 2, 4, 32]
BUDGET_DROP_RATE = 0.3

_cache = {}


def build(data, drop_rate, reliable, max_retries=32):
    cfg = DNNDConfig(nnd=NNDescentConfig(k=8, seed=21), batch_size=1 << 13)
    plan = FaultPlan(seed=21, drop_rate=drop_rate) if drop_rate else None
    dnnd = DNND(data, cfg, cluster=ClusterConfig(nodes=4, procs_per_node=2),
                fault_plan=plan, reliable=reliable, max_retries=max_retries)
    return dnnd.build()


def run_all():
    if _cache:
        return _cache
    n = scaled(500)
    data, _spec = load_dataset("deep1b", n=n, seed=21)
    truth = brute_force_knn_graph(data, k=8)

    drop_rows = []
    for rate in DROP_RATES:
        row = {"rate": rate}
        for mode, reliable in (("unreliable", False), ("reliable", True)):
            res = build(data, rate, reliable)
            row[mode] = {
                "recall": graph_recall(res.graph, truth),
                "sim_seconds": res.sim_seconds,
                "retransmits": res.fault_stats.retransmits,
                "acks": res.message_stats.get("ack").count,
            }
        drop_rows.append(row)

    budget_rows = []
    for budget in RETRY_BUDGETS:
        try:
            res = build(data, BUDGET_DROP_RATE, reliable=True,
                        max_retries=budget)
            budget_rows.append({
                "budget": budget, "outcome": "completed",
                "recall": graph_recall(res.graph, truth),
                "retransmits": res.fault_stats.retransmits,
            })
        except FaultToleranceError:
            budget_rows.append({
                "budget": budget, "outcome": "gave up",
                "recall": None, "retransmits": None,
            })

    _cache.update(drop_rows=drop_rows, budget_rows=budget_rows,
                  baseline=drop_rows[0])
    return _cache


def test_unprotected_drops_hurt_recall(benchmark):
    out = benchmark.pedantic(run_all, rounds=1, iterations=1)
    clean = out["baseline"]["unreliable"]["recall"]
    worst = out["drop_rows"][-1]["unreliable"]["recall"]
    assert worst < clean


def test_reliable_mode_preserves_recall(benchmark):
    out = benchmark.pedantic(run_all, rounds=1, iterations=1)
    clean = out["baseline"]["reliable"]["recall"]
    for row in out["drop_rows"]:
        assert row["reliable"]["recall"] == pytest.approx(clean, abs=1e-12)


def test_reliability_costs_time_under_faults(benchmark):
    out = benchmark.pedantic(run_all, rounds=1, iterations=1)
    lossy = out["drop_rows"][-1]
    assert lossy["reliable"]["sim_seconds"] > lossy["unreliable"]["sim_seconds"]
    assert lossy["reliable"]["retransmits"] > 0


def test_larger_budgets_survive_more(benchmark):
    out = benchmark.pedantic(run_all, rounds=1, iterations=1)
    outcomes = [r["outcome"] for r in out["budget_rows"]]
    # Survival is monotone in the budget: once a budget completes, every
    # larger one does too.
    first_ok = outcomes.index("completed") if "completed" in outcomes else len(outcomes)
    assert all(o == "completed" for o in outcomes[first_ok:])
    assert outcomes[-1] == "completed"


def test_print_fault_ablation(benchmark):
    out = benchmark.pedantic(run_all, rounds=1, iterations=1)
    clean_sim = out["baseline"]["reliable"]["sim_seconds"]
    rows = []
    for r in out["drop_rows"]:
        rows.append([
            f"{r['rate']:.0%}",
            f"{r['unreliable']['recall']:.4f}",
            f"{r['reliable']['recall']:.4f}",
            f"{r['reliable']['sim_seconds'] / clean_sim:.2f}x",
            f"{r['reliable']['retransmits']:,}",
            f"{r['reliable']['acks']:,}",
        ])
    text = ascii_table(
        ["drop rate", "recall (unrel.)", "recall (reliable)",
         "reliable sim-time", "retransmits", "ack msgs"],
        rows,
        title="Ablation: recall & overhead vs flush drop rate (k=8)",
    )
    rows = [[r["budget"], r["outcome"],
             "-" if r["recall"] is None else f"{r['recall']:.4f}",
             "-" if r["retransmits"] is None else f"{r['retransmits']:,}"]
            for r in out["budget_rows"]]
    text += "\n\n" + ascii_table(
        ["retry budget", "outcome", "recall", "retransmits"],
        rows,
        title=f"Ablation: retry budget at {BUDGET_DROP_RATE:.0%} drop rate",
    )
    report("ablation_faults", text)
