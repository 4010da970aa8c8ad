"""Repeat one workload over several seeds and print the spread of every metric.

Usage, from the repository root::

    python3 perfbench/steadiness.py --workload fleet-decode-128 --runs 10
    python3 perfbench/steadiness.py --workload all --runs 1   # every metric, every workload

Runs ``perfbench/run.py`` once per seed, seeds 1 to ``--runs``, for
``BENCHMARK.json``'s ``run_seconds``, then prints for every end-to-end
metric its median, quartiles, quartile spread as a share of the median,
max/min ratio, and the metric's bound from ``BENCHMARK.json``.  These are
the numbers the bounds are set from: a spread should stay below a third of
its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.stats import quartile_spread  # noqa: E402 - needs the repo root on sys.path


def run_once(workload, seed, seconds):
    """One untraced benchmark run; returns the parsed last line of its output."""
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                               timeout=600, check=True)
    return json.loads(completed.stdout.strip().splitlines()[-1])


def summarise(results, bounds):
    """Rows of ``(name, unit, q1, median, q3, spread, max/min, bound)``."""
    rows = []
    for name in results[0]["metrics"]:
        values = [result["metrics"][name]["value"] for result in results]
        q1, median, q3, spread = quartile_spread(values)
        low, high = min(values), max(values)
        ratio = high / low if low else float("inf")
        rows.append((name, results[0]["metrics"][name]["unit"], q1, median, q3, spread,
                     ratio, bounds.get(name)))
    return rows


def report(workload, runs, seconds, bounds):
    """Run ``workload`` with seeds 1 to ``runs`` and print its spread table."""
    results = []
    for seed in range(1, runs + 1):
        result = run_once(workload, seed, seconds)
        results.append(result)
        print(f"{workload} seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    print(f"\n{workload}: {runs} runs of {seconds:g} s")
    print(f"{'metric':<18} {'unit':<6} {'q1':>11} {'median':>11} {'q3':>11} "
          f"{'spread':>8} {'max/min':>8} {'bound':>6}  verdict")
    for name, unit, q1, median, q3, spread, ratio, bound in summarise(results, bounds):
        if bound is None:
            verdict = "-"
        elif spread < bound / 3:
            verdict = "steady"
        else:
            verdict = "within bound" if spread <= bound else "TOO NOISY"
        print(f"{name:<18} {unit:<6} {q1:>11.5g} {median:>11.5g} {q3:>11.5g} "
              f"{spread:>8.4f} {ratio:>8.3f} {bound if bound is not None else '-':>6}  "
              f"{verdict}")
    print("\nper-seed values:")
    for name in results[0]["metrics"]:
        values = " ".join(f"{result['metrics'][name]['value']:.5g}" for result in results)
        print(f"{name:<18} {values}")
    print(flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    names = ([workload["name"] for workload in spec["workloads"]]
             if args.workload == "all" else [args.workload])
    for name in names:
        report(name, args.runs, spec["run_seconds"], bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
