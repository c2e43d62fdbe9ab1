#!/usr/bin/env python3
"""The repository's one benchmark.

    python3 benchmarks/perf/run.py --workload <name> --seed <n> \\
        --seconds <s> --trace <0|1>

One run is one process and one closed-loop client.  Set-up (inputs from
the seed, exact ground truth, a small warm-up pass) is done
``SETUP_REPS`` times; then identical passes of build -> finish -> query
run on fresh objects and stores while they fit in ``--seconds``, three
at least.  Every stage is cut into slices of identical work and each
slice taken at its fastest repetition, and the sum is divided by how
slow the host was at its best during the run, read off a calibration
loop (README.md, "How timings are de-noised").  ``--trace 1`` adds one
instrumented pass and the micro rows and prints the per-layer metrics
instead; end-to-end numbers never come from a traced pass.

Prints every metric by name with its unit, then a host record, then one
JSON object on the last line.  Exits 1 when an output check fails.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
MIN_PASSES = 3
SETUP_REPS = 3
CALIBRATION_REF_MS = 30.0
"""The calibration loop on the sizing host in its quiet state."""
clock = time.perf_counter


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=26.0,
                    help="keep running passes while they fit in this budget")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="n=300, one pass, one set-up: for the harness test")
    return ap.parse_args(argv)


def fastest(rows) -> float:
    """Seconds for a stage that every repetition cut into the same
    slices: each slice at its fastest over the repetitions.  Host noise
    only adds time and comes in spells of seconds, so a whole stage's
    minimum over a few passes still carries whatever spell hit its
    quietest pass; a 0.1 s slice usually has one pass in which nothing
    hit it."""
    if len({len(row) for row in rows}) != 1:
        return min(sum(row) for row in rows)
    return sum(min(col) for col in zip(*rows))


def host_factor(calibration_ms) -> float:
    """How much slower than the sizing host's quiet state this host ran
    at its best during the run: the lower quartile of the calibration
    samples (the counterpart of taking each slice at its fastest of a
    few passes) over the loop's reference time.  Timings are divided by
    it."""
    return statistics.quantiles(calibration_ms, n=4)[0] / CALIBRATION_REF_MS


def set_up(pipeline, wl, seed: int, work: Path, reps: int):
    """``(inputs, slice timings per repetition)``.  Every repetition
    regenerates the arrays, so caches keyed on them are cold each time."""
    rows = []
    for rep in range(reps):
        inputs = pipeline.make_inputs(wl, seed)
        warm = pipeline.warm_up(wl, inputs, seed, work / f"warm{rep}")
        rows.append([inputs.generate_s, inputs.ground_truth_s,
                     *warm.build_slices, warm.finish_s, *warm.chunk_s])
    return inputs, rows


def measure(pipeline, wl, inputs, seed: int, work: Path, seconds: float,
            min_passes: int):
    """Untraced passes: ``(first pass, last pass, per-pass records,
    failures, calibration samples)``."""
    first = last = None
    records, failures, calibration = [], [], []

    def calibrate(stage: str) -> None:
        if stage != "query":  # finish is milliseconds: one point serves both
            calibration.extend(pipeline.calibrate())

    began = clock()
    longest = 0.0
    while len(records) < min_passes or clock() - began + longest <= seconds:
        t0 = clock()
        last = pipeline.run_pass(wl, inputs.train, inputs.queries, inputs.metric,
                                 seed, work / f"pass{len(records)}",
                                 stage=calibrate)
        longest = max(longest, clock() - t0)
        failures += pipeline.check_pass(wl, inputs, last, first)
        records.append({"build_s": last.build_s,
                        "build_slices": last.build_slices,
                        "finish_s": last.finish_s,
                        "chunk_s": last.chunk_s,
                        "graph_recall": last.graph_recall,
                        "query_recall": last.query_recall})
        first = first or last
        if last.result is None:
            break
    return first, last, records, failures, calibration


def end_to_end(records, last, nq: int, setup_raw_s: float, factor: float) -> dict:
    build_s = fastest([r["build_slices"] for r in records])
    finish_s = min(r["finish_s"] for r in records)
    query_s = fastest([r["chunk_s"] for r in records])
    usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
             + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "setup_s": setup_raw_s / factor,
        "build_s": build_s / factor,
        "pipeline_s": (build_s + finish_s + query_s) / factor,
        "query_qps": nq / (query_s / factor),
        "graph_recall": last.graph_recall,
        "query_recall_at_10": last.query_recall,
        "peak_rss_mb": usage / 1024.0,
    }


def traced_pass(pipeline, wl, inputs, seed: int, work: Path, first, records):
    """The instrumented pass and micro rows: ``(per-layer metrics,
    failures, missing symbols)``.  Also writes the Chrome trace."""
    import layers
    from tracer import Tracer

    tracer = Tracer()
    layers.install(tracer)
    try:
        traced = pipeline.run_pass(wl, inputs.train, inputs.queries,
                                   inputs.metric, seed, work / "traced",
                                   stage=tracer.set_stage)
    finally:
        tracer.uninstall()
    failures = pipeline.check_pass(wl, inputs, traced, first)
    missing = list(tracer.missing)
    if traced.result is None:
        return {}, failures, missing
    builds = [r["build_s"] for r in records]
    queries = [sum(r["chunk_s"]) for r in records]
    m = layers.layer_metrics(tracer, traced, min(builds))
    m.update(layers.query_latency(traced.searcher, inputs.queries[:1000],
                                  wl.epsilon))
    m.update(layers.micro_rows(inputs.train, inputs.metric, missing))
    m.update({
        "trace.missing": float(len(missing)),
        "harness.pass_spread_build": max(builds) / min(builds) - 1.0,
        "harness.pass_spread_query": max(queries) / min(queries) - 1.0,
    })
    events = tracer.write_chrome_trace(
        OUT / f"{wl.name}-seed{seed}.trace.json", f"{wl.name} seed {seed}")
    print(f"chrome trace: {events} spans in out/{wl.name}-seed{seed}.trace.json")
    return m, failures, missing


def stop_children() -> None:
    """Stop every process the run started and wait until each has ended.

    ``DNND.close()`` joins the rank workers, but the process backend's
    shared-memory segment also makes ``multiprocessing`` start a resource
    tracker, which outlives its parent by a moment unless it is stopped
    and waited for here.  Workers first: they inherit the tracker's pipe,
    and the tracker ends only when every writer has closed it."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join(5)
        if proc.is_alive():
            proc.kill()
            proc.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        try:
            stop()
        except OSError:
            pass


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # The pins must be in the environment before numpy is imported.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import pipeline
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    import_s = clock() - _PROCESS_START

    wl = WORKLOADS[args.workload]
    if args.smoke:
        wl = wl.smoke()
    OUT.mkdir(exist_ok=True)
    # Stores and anything the program puts in a temp dir stay in the checkout.
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = None
    host = pipeline.host_record()
    try:
        inputs, setup_rows = set_up(
            pipeline, wl, args.seed, work, 1 if args.smoke else SETUP_REPS)
        first, last, records, failures, calibration = measure(
            pipeline, wl, inputs, args.seed, work,
            0.0 if args.smoke else args.seconds,
            1 if args.smoke else MIN_PASSES)
        factor = host_factor(calibration)
        attempted = len(records) * (1 + wl.nq)
        missing = []
        if last.result is None:
            measured, names = {}, []
        elif args.trace:
            measured, more, missing = traced_pass(
                pipeline, wl, inputs, args.seed, work, first, records)
            failures += more
            attempted += 1 + wl.nq
            names = spec["per_layer"] if measured else []
            measured.update({
                "setup.import_s": import_s,
                "setup.generate_s": min(row[0] for row in setup_rows),
                "setup.ground_truth_s": min(row[1] for row in setup_rows),
                "setup.warmup_s": fastest([row[2:] for row in setup_rows]),
                "harness.host_factor": factor,
                "harness.calibration_ms": statistics.median(calibration),
                "harness.calibration_ratio": max(calibration) / min(calibration),
            })
        else:
            measured = end_to_end(records, last, wl.nq,
                                  import_s + fastest(setup_rows), factor)
            names = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in names}
    for name, cell in metrics.items():
        print(f"{name} = {cell['value']:.6g} {cell['unit']}")
    host.update({"loadavg_end": os.getloadavg(), "host_factor": factor,
                 "calibration_ms_min_median_max": [
                     min(calibration), statistics.median(calibration),
                     max(calibration)],
                 "passes": len(records), "missing": missing})
    print("host: " + json.dumps(host))
    for failure in failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    line = {"correct": not failures, "attempted": attempted,
            "failed": min(attempted, len(failures)), "metrics": metrics}
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "host": host, "import_s": import_s, "setup_slices": setup_rows,
              "calibration_ms": calibration,
              "passes": records, **line}
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(line))
    return 0 if not failures else 1


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
