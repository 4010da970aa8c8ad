"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload roundtrip-512 --seed 1 --seconds 12 --trace 0

Prints the host fingerprint, notes on the inputs and the correctness gate,
one line per metric (name, value, unit, how it was taken), and as the last
line one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` the per-layer ones and writes the spans
to ``.perfbench/``.

The model is pre-trained once per invocation into a private checkpoint
directory under ``.perfbench/`` (removed on exit), so no state from
``~/.cache`` enters a number.  Without ``src/repro`` next to this directory
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import sys
from multiprocessing import resource_tracker

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no src/repro under {ROOT}; nothing to benchmark", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.workloads import WORKLOADS

    args = parse_args(argv, sorted(WORKLOADS))
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    out_dir = os.path.join(ROOT, ".perfbench")
    cache_dir = os.path.join(out_dir, f"cache-{os.getpid()}")
    os.makedirs(cache_dir, exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    try:
        return _run(args, out_dir)
    finally:
        _stop_children()
        shutil.rmtree(cache_dir, ignore_errors=True)


def _stop_children():
    """Stop every process the run started and wait until each has ended.

    Besides the shard processes, a sharded server's shared-memory ring starts
    multiprocessing's resource tracker, which would otherwise outlive this
    process until it noticed that its parent was gone.
    """
    for child in multiprocessing.active_children():
        child.terminate()
    for child in multiprocessing.active_children():
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def _run(args, out_dir):
    from perfbench.host import fingerprint
    from perfbench.inputs import benchmark_config, load_model
    from perfbench.workloads import run
    from repro.serve import available_cpus

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("host " + json.dumps(fingerprint(available_cpus), sort_keys=True))
    load_model(benchmark_config())  # pre-train into the private checkpoint directory
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    for note in result.notes:
        print(note)
    failed = result.attempted - result.ok
    print(f"gate: {result.attempted} requests, {result.ok} answers matched their "
          f"references, {result.mismatches} mismatched, {failed - result.mismatches} "
          "failed otherwise (refused, errored or timed out)")
    metrics = result.per_layer if args.trace else result.end_to_end
    for name, metric in metrics.items():
        print(f"  {name:<34} {metric.value:>14.6g} {metric.unit:<6} {metric.note}")
    print(json.dumps({
        "correct": result.mismatches == 0 and result.ok > 0,
        "attempted": result.attempted,
        "failed": failed,
        "metrics": {name: {"value": metric.value, "unit": metric.unit}
                    for name, metric in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
