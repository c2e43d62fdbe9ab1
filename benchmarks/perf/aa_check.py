#!/usr/bin/env python3
"""A/A check: does the benchmark agree with itself?

Runs two *interleaved* sets of the same code (A, B, A, B, ... so that a
slow minute on the host lands on both), one run per seed per set, and
applies the acceptance rule the benchmark is held to: for every
workload and end-to-end metric, the quartile spread of each set (as a
share of its median) and the gap by which set B's median is worse than
set A's must both stay within the metric's bound in ``BENCHMARK.json``.

    python3 benchmarks/perf/aa_check.py            # seeds 0-9, all workloads
    python3 benchmarks/perf/aa_check.py --seeds 0 1 2 --workloads lowdim-sim

Prints one row per workload and metric and exits 1 on any breach.
``setup_s`` is exempt from the spread rule (not from the gap rule), as
in the acceptance rule itself.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def one_run(command, workload: str, seed: int, seconds: int) -> dict:
    """End-to-end metric values of one run; raises if the run failed."""
    done = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: cell["value"] for name, cell in line["metrics"].items()}


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    args = ap.parse_args(argv)
    if len(args.seeds) < 3:
        ap.error("quartiles need at least 3 runs per set")

    breaches = 0
    print(f"{'workload':16} {'metric':20} {'median A':>10} {'median B':>10} "
          f"{'gap':>7} {'spread A':>8} {'spread B':>8} {'bound':>6}")
    for workload in args.workloads:
        sets = {"A": [], "B": []}
        for seed in args.seeds:
            for label in ("A", "B"):
                sets[label].append(one_run(spec["command"], workload, seed,
                                           spec["run_seconds"]))
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [run[name] for run in sets["A"]]
            b = [run[name] for run in sets["B"]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = med_b - med_a if metric["better"] == "lower" else med_a - med_b
            gap = worse / med_a
            spreads = (spread(a), spread(b))
            bad = gap > bound or (name != "setup_s" and max(spreads) > bound)
            breaches += bad
            print(f"{workload:16} {name:20} {med_a:10.4f} {med_b:10.4f} "
                  f"{gap:+7.3f} {spreads[0]:8.3f} {spreads[1]:8.3f} {bound:6.3f}"
                  f"{'  BREACH' if bad else ''}", flush=True)
    print(f"{breaches} breach(es)")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
