"""Tests of the benchmark itself: selectors, accounting, names, gate, smoke runs.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from perfbench import loadgen, stats, workloads
from perfbench.inputs import RECONSTRUCT_TOLERANCE, Reference, frame_stream
from perfbench.tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------- #
# tail-percentile selector
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("count, expected", [
    (1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0), (100, 90.0),
    (99, 75.0), (40, 75.0), (39, 50.0), (20, 50.0), (5, 50.0),
])
def test_tail_selector_picks_highest_percentile_with_ten_beyond(count, expected):
    samples = np.arange(count, dtype=float)
    value, q, n, beyond = stats.tail_percentile(samples)
    assert q == expected
    assert n == count
    assert value == pytest.approx(np.percentile(samples, expected))
    if count >= 20:
        assert beyond >= stats.MIN_BEYOND
        assert np.sum(samples > value) >= stats.MIN_BEYOND


def test_tail_selector_rejects_empty_sample():
    with pytest.raises(ValueError):
        stats.tail_percentile([])


# ---------------------------------------------------------------------- #
# due-time latency accounting
# ---------------------------------------------------------------------- #
class _Answer:
    def __init__(self, image):
        self.image = image


class _InstantPending:
    def __init__(self, image):
        self._answer = _Answer(image)

    def add_done_callback(self, fn):
        fn(self)

    def result(self, timeout=None):
        return self._answer


class _StallingServer:
    """Answers at once, but the first submission blocks for ``stall_s``."""

    def __init__(self, stall_s):
        self.stall_s = stall_s
        self.calls = 0

    def submit_bytes(self, data, kind="reconstruct"):
        self.calls += 1
        if self.calls == 1:
            time.sleep(self.stall_s)
        return _InstantPending(np.zeros(1))


class _AlwaysMatches:
    def matches(self, image):
        return True


def test_paced_latency_runs_from_due_time_and_lag_is_reported():
    stall = 0.08
    server = _StallingServer(stall)
    generator = loadgen.LoadGenerator(server, "decode", [b""] * 5, [_AlwaysMatches()] * 5,
                                      deadline=time.perf_counter() + 10)
    phase = generator.paced(range(5), [0.0, 0.01, 0.02, 0.03, 0.2])
    delayed = phase.outcomes[1]
    # due 10 ms after the first request, sent only after the 80 ms stall
    assert delayed.sent - delayed.due >= stall - 0.015
    assert delayed.latency_s >= stall - 0.015
    assert delayed.done - delayed.sent < delayed.sent - delayed.due
    assert max(phase.lags_ms()) >= (stall - 0.015) * 1e3
    # the last request was due well after the stall cleared: on time
    assert phase.outcomes[4].sent - phase.outcomes[4].due < 0.05
    assert all(outcome.ok for outcome in phase.outcomes)


def test_closed_loop_counts_refused_requests_as_failures():
    class Refusing:
        def submit_bytes(self, data, kind="reconstruct"):
            raise RuntimeError("overloaded")

    generator = loadgen.LoadGenerator(Refusing(), "decode", [b""] * 3, [None] * 3,
                                      deadline=time.perf_counter() + 5)
    phase = generator.closed(range(3), outstanding=2)
    assert [outcome.error for outcome in phase.outcomes] == ["RuntimeError"] * 3
    assert phase.ok == [] and phase.throughput() == 0.0


# ---------------------------------------------------------------------- #
# metric names and units
# ---------------------------------------------------------------------- #
def test_benchmark_json_names_and_units_use_the_allowed_charset():
    spec = _spec()
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert stats.check_name(name) == name
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert stats.check_unit(entry["unit"]) == entry["unit"]
    assert {entry["name"] for entry in spec["workloads"]} == set(workloads.WORKLOADS)


def test_per_layer_metrics_match_benchmark_json():
    produced = workloads._per_layer(Tracer(), bytes_per_frame=1.0, cpu_ms=1.0, overhead=0.0,
                                    covered_ms=1.0, coverage=1.0, checked=1, repeated=0.0)
    declared = {entry["name"]: entry["unit"] for entry in _spec()["per_layer"]}
    assert {name: metric.unit for name, metric in produced.items()} == declared


@pytest.mark.parametrize("name", ["", "-lead", "has space", "a" * 65, "x/y", "é"])
def test_invalid_metric_names_are_rejected(name):
    with pytest.raises(ValueError):
        stats.check_name(name)


# ---------------------------------------------------------------------- #
# correctness gate
# ---------------------------------------------------------------------- #
def test_exact_gate_rejects_a_one_ulp_perturbation():
    image = np.random.default_rng(0).random((8, 8, 3))
    source = np.zeros((8, 8, 3), dtype=np.uint8)
    reference = Reference(image, source, exact=True)
    assert reference.matches(image.copy())
    perturbed = image.copy()
    perturbed[3, 4, 1] = np.nextafter(perturbed[3, 4, 1], 2.0)
    assert not reference.matches(perturbed)
    assert not reference.matches(image.astype(np.float32))
    assert not reference.matches(image[:, :4])


def test_tolerance_gate_rejects_an_error_above_1e_5():
    image = np.random.default_rng(1).random((8, 8, 3))
    reference = Reference(image, np.zeros((8, 8, 3), dtype=np.uint8), exact=False)
    close = image.copy()
    close[0, 0, 0] += RECONSTRUCT_TOLERANCE / 4
    assert reference.matches(close)
    far = image.copy()
    far[0, 0, 0] += 2 * RECONSTRUCT_TOLERANCE
    assert not reference.matches(far)


def test_frames_are_seeded_and_distinct():
    def take(seed):
        return list(itertools.islice(frame_stream(seed, 32, canvases=2), 40))

    first, again, other = take(3), take(3), take(4)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert len({frame.tobytes() for frame in first}) == 40
    assert not all(np.array_equal(a, b) for a, b in zip(first, other))


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    parent = tracer.record("request", 0.0, 10.0, rid=1)
    tracer.record("a", 1.0, 4.0, rid=1, parent=parent)
    tracer.record("b", 3.0, 6.0, rid=1, parent=parent)  # overlaps a by one second
    self_times = tracer.self_times()
    assert self_times[parent] == pytest.approx(5.0)
    assert tracer.request_children_ms("request") == pytest.approx(6000.0)


# ---------------------------------------------------------------------- #
# reduced-size smoke runs
# ---------------------------------------------------------------------- #
@pytest.fixture
def private_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_smoke_run_of_each_workload(name, private_cache):
    result = workloads.run(name, seed=5, seconds=0.5, trace=True, out_dir=str(private_cache))
    spec = _spec()
    assert result.mismatches == 0
    assert result.ok == result.attempted > 0
    assert set(result.end_to_end) == {entry["name"] for entry in spec["end_to_end"]}
    assert set(result.per_layer) == {entry["name"] for entry in spec["per_layer"]}
    assert result.per_layer["gate.responses_checked"].value == result.attempted
    assert result.end_to_end["success_rate"].value == 1.0
    assert all(np.isfinite(metric.value) for metric in result.per_layer.values())


def _session_members(session):
    """Pids of the processes, zombies included, whose session is ``session``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == session:
            members.append(int(entry))
    return members


def test_command_prints_the_result_contract():
    spec = _spec()
    command = [sys.executable, *spec["command"][1:], "--workload", "fleet-decode-128",
               "--seed", "2", "--seconds", "0.5", "--trace", "0"]
    # a session of its own, so whatever the run starts can be found after it
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as process:
        stdout, _ = process.communicate(timeout=300)
    assert process.returncode == 0
    # the shards and the shared-memory ring's resource tracker are gone too
    assert _session_members(process.pid) == []
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == \
        {entry["name"]: entry["unit"] for entry in spec["end_to_end"]}


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "roundtrip-512", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
