"""Harness test: ``pytest benchmarks/perf -q`` (under a minute; every run
uses ``--smoke``: n=300, one pass, one set-up repetition).

Checks the contract between ``run.py`` and ``BENCHMARK.json`` and the
properties the benchmark's numbers rest on: seeded inputs, exact
counts, span accounting, a failed check that is loud, and no process
left behind.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD = "lowdim-sim"


def run_smoke(seed: int, trace: int):
    """``(last-line JSON, record file)`` of one smoke run."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", WORKLOAD,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads(
        (HERE / "out" / f"{WORKLOAD}-seed{seed}-trace{trace}.json").read_text())
    return line, record


@pytest.fixture(scope="module")
def traced():
    return run_smoke(0, 1)


def test_workloads_match_benchmark_json():
    from workloads import WORKLOADS

    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/perf"]


def test_emitted_names_match_benchmark_json(traced):
    untraced, _ = run_smoke(0, 0)
    for line, key in ((untraced, "end_to_end"), (traced[0], "per_layer")):
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {n: c["unit"] for n, c in line["metrics"].items()} == declared
        for name, cell in line["metrics"].items():
            assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
            assert isinstance(cell["value"], (int, float))
    assert all(cell["value"] > 0 for cell in untraced["metrics"].values())


def test_same_seed_same_results_other_seed_other_data(traced):
    again, again_record = run_smoke(0, 1)
    other, other_record = run_smoke(1, 1)

    def evals(line):
        return line["metrics"]["distances.evals"]["value"]

    def recalls(record):
        return [(p["graph_recall"], p["query_recall"]) for p in record["passes"]]

    assert evals(again) == evals(traced[0])
    assert recalls(again_record) == recalls(traced[1])
    assert evals(other) != evals(traced[0])
    assert recalls(other_record) != recalls(traced[1])


def test_self_times_add_up_to_the_traced_wall(traced):
    metrics = traced[0]["metrics"]
    assert abs(metrics["trace.coverage"]["value"] - 1.0) <= 0.05
    assert metrics["trace.missing"]["value"] == 0
    trace = json.loads((HERE / "out" / f"{WORKLOAD}-seed0.trace.json").read_text())
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert spans and all(e["dur"] >= 0 for e in spans)


def test_recall_under_its_floor_is_a_failed_run(monkeypatch, capsys):
    import run

    # main() points TMPDIR into its work directory; undo that afterwards.
    monkeypatch.setenv("TMPDIR", tempfile.gettempdir())
    monkeypatch.setattr(tempfile, "tempdir", None)
    impossible = replace(run.WORKLOADS[WORKLOAD], graph_floor=1.5)
    monkeypatch.setitem(run.WORKLOADS, WORKLOAD, impossible)
    code = run.main(["--workload", WORKLOAD, "--seed", "0", "--trace", "0",
                     "--smoke"])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert line["correct"] is False and line["failed"] >= 1


def test_a_symbol_that_is_gone_is_reported_not_fatal():
    from tracer import Target, Tracer

    original = json.dumps
    tracer = Tracer()
    tracer.install([Target("repro.DNND.no_such_method", "core.dnnd"),
                    Target("repro.no_such_module.thing", "nowhere"),
                    Target("json.dumps", "stdlib")])
    try:
        assert json.dumps([1]) == "[1]"
    finally:
        tracer.uninstall()
    assert tracer.missing == ["repro.DNND.no_such_method",
                              "repro.no_such_module.thing"]
    assert tracer.calls("idle", "json.dumps") == 1
    assert json.dumps is original


def test_stop_children_waits_for_workers_and_the_resource_tracker():
    """What ``run.py`` does on every path out: the process backend's
    shared-memory segment starts multiprocessing's resource tracker, which
    nothing else waits for."""
    import multiprocessing
    import time
    from multiprocessing import resource_tracker, shared_memory

    import run

    segment = shared_memory.SharedMemory(create=True, size=16)
    segment.close()
    segment.unlink()
    tracker = resource_tracker._resource_tracker._pid
    worker = multiprocessing.get_context("fork").Process(
        target=time.sleep, args=(60,), daemon=True)
    worker.start()
    os.kill(tracker, 0)  # both are running
    assert worker.is_alive()
    run.stop_children()
    assert not worker.is_alive()
    with pytest.raises(ProcessLookupError):  # ended and reaped
        os.kill(tracker, 0)
