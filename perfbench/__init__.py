"""The repository benchmark: three Easz workloads measured from outside.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload against the code under ``src/`` in its default
configuration and prints every metric by name and unit, ending with one JSON
line.  ``BENCHMARK.json`` at the repository root lists the workloads and
metrics; :mod:`perfbench.workloads` defines them.

Modules:

* :mod:`perfbench.stats` — percentiles, the tail-percentile selector and the
  metric-name charset;
* :mod:`perfbench.tracing` — in-memory spans and per-layer self time;
* :mod:`perfbench.host` — host fingerprint, RSS and CPU readers;
* :mod:`perfbench.inputs` — seeded frame synthesis and the correctness gate;
* :mod:`perfbench.stages` — the pipeline as one span per layer call, for
  the traced runs;
* :mod:`perfbench.loadgen` — the closed-loop and paced (open-loop) request
  generators for the served workloads;
* :mod:`perfbench.workloads` — the workload table and the phases each runs;
* :mod:`perfbench.steadiness` — repeats a workload over seeds and prints the
  spread of every end-to-end metric;
* ``perfbench/run.py`` — the command; ``perfbench/test_perfbench.py`` — the
  benchmark's own tests.
"""
