"""The benchmark's workloads and the phases each one runs.

Every workload draws its inputs from the seed and runs its timed phases
with tracing off.

The host these numbers come from runs other tenants' work, and its speed
drifts by a third over a few seconds.  So no metric is taken from one
stretch of the run: each workload runs ``ROUNDS`` rounds spread over the
whole run, and every round sets up afresh (model checkpoint load,
construction, ``start()`` and warm-up, timed: ``setup_s`` is the median).

* A roundtrip round times its frames one by one and computes each frame's
  reference right after timing it.
* A served round makes its frames, encodes them and computes their
  references while no server runs, then sets up its server and sends the
  frames in a closed loop (throughput and end-to-end latency) and a Poisson
  phase (latency from due time, reported as ``loadgen.paced_*``).
  Its ``edge_encode_ms`` comes from short windows of back-to-back encodes,
  three a round: before the server starts and after each of its phases,
  while the server is idle.

Frames and references exist only for the round that uses them, so the
benchmark's own data in the measured process stays small and does not grow
with ``--seconds``; ``peak_rss_mib`` is read over the timed phases only,
and a served phase starts from a collected, trimmed heap, so the figure is
the server's live memory and what it allocates, not freed blocks the
allocator kept from the round's reference decodes.
With ``trace`` set a run also repeats each closed loop traced (the ratio of
the two is the tracing overhead), traces the Poisson phase, replays the
layers a server hides, and reports the per-layer metrics.

Request counts are fixed by ``--seconds`` and the workload's nominal rates,
not by a clock, so one seed always sends the same frames: ``bpp`` and
``psnr_db`` repeat exactly, and on a slower host a phase runs longer
rather than measuring other inputs.
"""

from __future__ import annotations

import itertools
import os
import statistics
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.core.pipeline import EaszDecoder, EaszEncoder
from repro.core.reconstruction import reconstruct_batch
from repro.core.transport import pack_package, unpack_package
from repro.serve import CompressionServer, ShardedCompressionServer

from .host import PeakRss, cpu_seconds, trim_heap
from .inputs import Reference, benchmark_config, digest, frame_stream, load_model, make_codec
from .loadgen import LoadGenerator, PhaseResult, poisson_offsets
from .stages import decode_stages, encode_frame, replay_edge
from .stats import percentile, tail_percentile
from .tracing import NullTracer, Tracer

#: How long a run may wait for answers before counting them as timed out.
RUN_BUDGET_S = 150.0
#: The paced phase's Poisson arrival times are part of the workload, not of
#: the seed: every run offers the same load, and the seed varies the frames.
SCHEDULE_SEED = 7
#: Rounds per run: each sets up afresh and samples the host at another time.
ROUNDS = 6
#: Back-to-back encodes in one edge timing window of a served workload,
#: whose ``edge_encode_ms`` is the lowest window median of a run.  The host
#: switches between two speeds about 1.5x apart, each held for one to
#: several seconds, and the slow share of a run ranged from a fifth to over
#: nine tenths, so any percentile of a run's encode times jumped between the
#: two speeds from run to run.  A window is short enough to see one speed,
#: and three a round spread the windows over the whole run, so almost every
#: run has one at the fast speed: the figure follows the encoder, not the
#: neighbours.
EDGE_WINDOW = 10
#: The roundtrip's ``edge_encode_ms`` is this percentile of its request
#: encodes instead.  Each draws a fresh mask, and windows of fresh-mask
#: encodes would fill the squeeze-plan cache (128 plans, several MiB each at
#: 512x512) and with it ``peak_rss_mib``; the request encodes are seconds
#: apart, so each sees the host's speed of its moment, and a low percentile
#: of them is a fast-speed encode while a tenth of the run is fast.
ROUNDTRIP_EDGE_PERCENTILE = 10


@dataclass(frozen=True)
class Workload:
    """One traffic mix.

    Request counts scale with ``--seconds``: ``closed_per_s`` closed-loop
    requests per second of it, then a Poisson phase at ``paced_rate`` req/s
    lasting ``paced_share`` of it.
    """

    name: str
    size: int
    server: str
    kind: str
    closed_per_s: float
    paced_rate: float
    paced_share: float
    outstanding: int
    warmup: int
    canvases: int
    replays: int

    def closed_count(self, seconds):
        return max(1, round(seconds * self.closed_per_s))

    def paced_count(self, seconds):
        return round(seconds * self.paced_share * self.paced_rate)


WORKLOADS = {
    workload.name: workload for workload in (
        # one camera, closed loop, one client: encode, pack, unpack and
        # EaszDecoder.decode in-process, a fresh edge mask per frame
        Workload("roundtrip-512", 512, server="none", kind="reconstruct",
                 closed_per_s=1.5, paced_rate=0.0, paced_share=0.0, outstanding=1,
                 warmup=1, canvases=4, replays=0),
        # a fleet sharing one mask, reconstruct kind, CompressionServer defaults;
        # one request outstanding per worker reaches the capacity 4 do (~10
        # img/s) without their queueing; the Poisson phase runs near half of it
        Workload("serve-reconstruct-256", 256, server="threaded", kind="reconstruct",
                 closed_per_s=8.0, paced_rate=4.5, paced_share=0.2, outstanding=2,
                 warmup=8, canvases=8, replays=8),
        # many small decode-kind requests, ShardedCompressionServer defaults;
        # 2 outstanding keeps every per-request cost on the critical path and
        # reads ~10% below 4 outstanding, whose figures spread twice as wide;
        # the Poisson phase runs at ~1/4 of closed-loop throughput (~150/s)
        Workload("fleet-decode-128", 128, server="sharded", kind="decode",
                 closed_per_s=70.0, paced_rate=40.0, paced_share=0.3, outstanding=2,
                 warmup=16, canvases=16, replays=32),
    )
}


class Metric:
    __slots__ = ("value", "unit", "note")

    def __init__(self, value, unit, note=""):
        self.value = float(value)
        self.unit = unit
        self.note = note


@dataclass
class RunResult:
    end_to_end: dict
    per_layer: dict
    attempted: int
    ok: int
    mismatches: int
    notes: list


def _tail_metric(latencies_ms):
    value, q, count, beyond = tail_percentile(latencies_ms)
    return Metric(value, "ms", f"p{q:g} of {count} samples, {beyond} beyond it")


def _peak_rss(marks, processes):
    """The highest of several timed stretches' peaks, with its note."""
    window = ("timed phases" if all(mark.reset for mark in marks)
              else "process lifetime (high-water mark not resettable)")
    return Metric(max(mark.mib() for mark in marks), "MiB",
                  f"{processes}, peak over the {window}; the benchmark holds only "
                  "the frames and references in use")


def _bpp(sizes, size):
    return float(np.mean([length * 8.0 / (size * size) for length in sizes]))


def _repeated_share(digests):
    return 1.0 - len(set(digests)) / len(digests)


def _blob_digest(blob):
    return digest(np.frombuffer(blob, np.uint8))


# ---------------------------------------------------------------------- #
# roundtrip: the single-image edge -> server path, in-process
# ---------------------------------------------------------------------- #
def run_roundtrip(workload, seed, seconds, trace, out_dir):
    config = benchmark_config()
    count = workload.closed_count(seconds)
    frames = frame_stream(seed, workload.size, workload.canvases)
    warm = list(itertools.islice(frames, workload.warmup))
    warm_mask = EaszEncoder(config, seed=seed + 1).generate_mask()

    def set_up(round_seed):
        """Checkpoint load, construction and a warm-up roundtrip; returns both ends and the time."""
        started = time.perf_counter()
        encoder = EaszEncoder(config, make_codec(), seed=round_seed)
        decoder = EaszDecoder(model=load_model(config), config=config, base_codec=make_codec())
        for frame in warm:
            decoder.decode(unpack_package(pack_package(encoder.encode(frame, mask=warm_mask))))
        return encoder, decoder, time.perf_counter() - started

    # each answer is checked right after it is timed, against the same edge
    # (same seed, so the same mask sequence) and the decoder's batched path:
    # the timed call is EaszDecoder.decode, so the reference is a second
    # implementation, cheaper by about a third
    reference_decoder = EaszDecoder(model=load_model(config), config=config,
                                    base_codec=make_codec())
    sizes, digests, psnrs = [], [], []

    def check(reference_encoder, frame, image):
        blob = pack_package(reference_encoder.encode(frame))
        reference = Reference(reference_decoder.decode_batch([unpack_package(blob)])[0],
                              frame, exact=False)
        sizes.append(len(blob))
        digests.append(_blob_digest(blob))
        psnrs.append(reference.psnr)
        return reference.matches(image)

    latencies, encodes, rss_marks, setups = [], [], [], []
    busy_s, cpu_s, ok = 0.0, 0.0, 0
    pid = os.getpid()
    for index, ids in enumerate(_rounds(range(count))):
        if not ids:
            continue
        round_seed = [seed, index]
        encoder, decoder, setup_s = set_up(round_seed)
        setups.append(setup_s)
        reference_encoder = EaszEncoder(config, make_codec(), seed=round_seed)
        for frame in itertools.islice(frames, len(ids)):
            cpu_before = cpu_seconds(pid)
            with PeakRss(pid) as rss:
                started = time.perf_counter()
                package = encoder.encode(frame)
                encoded = time.perf_counter()
                image = decoder.decode(unpack_package(pack_package(package)))
                finished = time.perf_counter()
            cpu_s += cpu_seconds(pid) - cpu_before
            rss_marks.append(rss)
            busy_s += finished - started
            if check(reference_encoder, frame, image):
                ok += 1
                latencies.append((finished - started) * 1e3)
                encodes.append((encoded - started) * 1e3)

    end_to_end = {
        "setup_s": Metric(statistics.median(setups), "s",
                          f"median of {len(setups)}, one per round"),
        "throughput_ips": Metric(ok / busy_s, "1/s",
                                 f"{ok} frames, 1 client, per second spent in requests"),
        "latency_p50_ms": Metric(percentile(latencies, 50) if latencies else 0.0, "ms",
                                 "closed loop, 1 client"),
        "latency_tail_ms": _tail_metric(latencies) if latencies else Metric(0.0, "ms"),
        "success_rate": Metric(ok / count, "share", f"{ok}/{count}"),
        "edge_encode_ms": Metric(percentile(encodes, ROUNDTRIP_EDGE_PERCENTILE)
                                 if encodes else 0.0, "ms",
                                 f"p{ROUNDTRIP_EDGE_PERCENTILE} of {len(encodes)} request "
                                 "encodes, mask drawn per frame"),
        "bpp": Metric(_bpp(sizes, workload.size), "bpp"),
        "psnr_db": Metric(np.mean(psnrs), "dB"),
        "peak_rss_mib": _peak_rss(rss_marks, "benchmark process, one request at a time"),
    }
    notes = [f"inputs: {count} distinct {workload.size}x{workload.size} RGB frames in "
             f"{len(setups)} rounds, repeated payload share {_repeated_share(digests):.3f}"]
    attempted, checked_ok = count, ok
    per_layer = {}
    if trace:
        tracer = Tracer()
        codec = make_codec()
        encoder, decoder, _ = set_up([seed, ROUNDS])
        reference_encoder = EaszEncoder(config, make_codec(), seed=[seed, ROUNDS])
        traced_ok, traced_ms = 0, []
        for rid, frame in enumerate(itertools.islice(frames, count), count):
            started = time.perf_counter()
            with tracer.span("request", rid):
                package, mask = encode_frame(encoder, frame, tracer, rid)
                with tracer.span("core.transport.pack", rid):
                    blob = pack_package(package)
                with tracer.span("core.transport.unpack", rid):
                    received = unpack_package(blob)
                _, image = decode_stages(received, codec, decoder.model, config, tracer, rid,
                                         reconstruct=True)
            traced_ms.append((time.perf_counter() - started) * 1e3)
            replay_edge(codec, config, frame, mask, tracer, rid)
            traced_ok += check(reference_encoder, frame, image)
        attempted += count
        checked_ok += traced_ok
        untraced_mean = float(np.mean(latencies)) if latencies else 0.0
        covered_ms = tracer.request_children_ms("request")
        p50 = end_to_end["latency_p50_ms"].value
        per_layer = _per_layer(
            tracer,
            bytes_per_frame=float(np.mean(sizes[:count])),
            cpu_ms=cpu_s / max(ok, 1) * 1e3,
            overhead=1.0 - untraced_mean / float(np.mean(traced_ms)) if traced_ms else 0.0,
            covered_ms=covered_ms, coverage=covered_ms / p50 if p50 else 0.0,
            checked=attempted, repeated=_repeated_share(digests))
        notes.append(f"trace: layer self times sum to {covered_ms:.1f} ms per request "
                     f"against an untraced p50 of {p50:.1f} ms "
                     f"(ratio {covered_ms / p50 if p50 else 0.0:.3f})")
        notes.append(f"trace: {len(tracer.spans)} spans written to "
                     f"{_dump(tracer, workload, seed, out_dir)}")
    return RunResult(end_to_end, per_layer, attempted, checked_ok,
                     attempted - checked_ok, notes)


# ---------------------------------------------------------------------- #
# served workloads: pre-encoded containers through submit_bytes
# ---------------------------------------------------------------------- #
def _set_up_server(workload, config, warm_blobs):
    """Checkpoint load, construction, ``start()`` and warm-up; returns the server and its time."""
    started = time.perf_counter()
    model = load_model(config)
    if workload.server == "threaded":
        server = CompressionServer(model=model, config=config)
    else:
        server = ShardedCompressionServer(model=model, config=config)
    server.start()
    warmups = [server.submit_bytes(blob, kind=workload.kind) for blob in warm_blobs]
    for pending in warmups:
        pending.result(timeout=60.0)
    return server, time.perf_counter() - started


def _shard_pids(server):
    if not isinstance(server, ShardedCompressionServer):
        return []
    processes = (server.shard_process(index) for index in range(server.num_shards))
    return [process.pid for process in processes if process is not None]


def _rounds(indices):
    """``indices`` cut into ``ROUNDS`` consecutive chunks of near-equal size."""
    return [chunk.tolist() for chunk in np.array_split(np.asarray(indices, dtype=int), ROUNDS)]


def _cpu_seconds(pid, shard_pids):
    return cpu_seconds(pid) + sum(cpu_seconds(shard) for shard in shard_pids)


def _serve_counters(server):
    """Cumulative counters of one server as one flat ``Counter``."""
    snapshot = server.stats.snapshot()
    counts = Counter({name: snapshot[name]
                      for name in ("completed", "rejected", "failed", "deadline_shed")})
    counts["queue_wait_s"] = snapshot["queue_wait_seconds_total"]
    counts["service_s"] = snapshot["service_seconds_total"]
    for size, count in snapshot["batch_size_histogram"].items():
        counts["batch", int(size)] += count
    for transport, count in snapshot["response_transport"].items():
        counts["transport", transport] += count
    for stats_list in snapshot["caches"].values():
        for stats in stats_list:
            counts["hits", stats["name"]] += stats["hits"]
            counts["misses", stats["name"]] += stats["misses"]
    if isinstance(server, ShardedCompressionServer):
        for index, snap in server.shard_snapshots():
            counts["shard", index] += snap["completed"]
    return counts


def _hit_ratio(counts, names):
    hits = sum(counts["hits", name] for name in names)
    lookups = hits + sum(counts["misses", name] for name in names)
    return hits / lookups if lookups else 0.0


def _edge_window(encode, frames):
    """Median wall time in ms of ``EDGE_WINDOW`` back-to-back ``encode`` calls.

    ``frames`` are encoded in turn after one untimed, cache-warming encode.
    """
    encode(frames[0])
    times = []
    for frame in itertools.islice(itertools.cycle(frames), EDGE_WINDOW):
        started = time.perf_counter()
        encode(frame)
        times.append((time.perf_counter() - started) * 1e3)
    return statistics.median(times)


def run_served(workload, seed, seconds, trace, out_dir):
    config = benchmark_config()
    reconstruct = workload.kind == "reconstruct"
    n_closed = workload.closed_count(seconds)
    n_traced = n_closed if trace else 0
    n_paced = workload.paced_count(seconds)
    tracer = Tracer() if trace else NullTracer()
    frames = frame_stream(seed, workload.size, workload.canvases)

    # the cameras share one mask
    encoder = EaszEncoder(config, make_codec(), seed=seed)
    with tracer.span("edge.mask"):
        mask = encoder.generate_mask()
    warm_blobs = [pack_package(encoder.encode(frame, mask=mask))
                  for frame in itertools.islice(frames, workload.warmup)]
    decoder = EaszDecoder(model=load_model(config), config=config, base_codec=make_codec())

    first_traced, first_paced = n_closed, n_closed + n_traced
    closed_ids = _rounds(range(first_traced))
    traced_ids = _rounds(range(first_traced, first_paced))
    paced_ids = _rounds(range(first_paced, first_paced + n_paced))
    schedule = np.array_split(poisson_offsets(np.random.default_rng(SCHEDULE_SEED),
                                              workload.paced_rate, n_paced), ROUNDS)
    deadline = time.perf_counter() + RUN_BUDGET_S
    pid, num_shards = os.getpid(), 0
    setups, edge_windows, sizes, digests, psnrs, replays = [], [], [], [], {}, []
    closed, traced, paced, rss_marks, cpu_s = [], [], [], [], 0.0
    served = Counter()

    def encode(frame):
        return encoder.encode(frame, mask=mask)

    for index in range(ROUNDS):
        ids = closed_ids[index] + traced_ids[index] + paced_ids[index]
        if not ids:
            continue
        # the cameras and the references first, while no server runs; the
        # edge is timed in windows here and after each phase, with the server idle
        round_frames = list(itertools.islice(frames, len(ids)))
        packages = [encode_frame(encoder, frame, tracer, rid, mask=mask)[0]
                    for rid, frame in zip(ids, round_frames)]
        window_frames = round_frames[:EDGE_WINDOW]
        edge_windows.append(_edge_window(encode, window_frames))
        blobs, references = {}, {}
        for rid, frame, package in zip(ids, round_frames, packages):
            blobs[rid] = pack_package(package)
            sizes.append(len(blobs[rid]))
            digests.append(_blob_digest(blobs[rid]))
            references[rid] = Reference(decoder.decode(package, reconstruct=reconstruct),
                                        frame, exact=not reconstruct)
            psnrs[rid] = references[rid].psnr
        if trace and not replays:
            replays = [(rid, frame, blobs[rid])
                       for rid, frame in zip(ids, round_frames)][:workload.replays]
        del round_frames, packages

        # each round runs on a server of its own, so set-up is timed once a round
        server, setup_s = _set_up_server(workload, config, warm_blobs)
        setups.append(setup_s)
        shard_pids = _shard_pids(server)
        num_shards = len(shard_pids)
        try:
            generator = LoadGenerator(server, workload.kind, blobs, references, deadline)
            before = _serve_counters(server)
            # the peak-RSS windows start from the server's live memory, not from what
            # the allocator kept of this round's reference decodes
            trim_heap()
            cpu_before = _cpu_seconds(pid, shard_pids)
            with PeakRss(pid, shard_pids) as rss:
                closed.append(generator.closed(closed_ids[index], workload.outstanding))
            cpu_s += _cpu_seconds(pid, shard_pids) - cpu_before
            rss_marks.append(rss)
            edge_windows.append(_edge_window(encode, window_frames))
            generator.tracer = tracer if trace else None
            traced.append(generator.closed(traced_ids[index], workload.outstanding))
            offsets = schedule[index]
            trim_heap()
            with PeakRss(pid, shard_pids) as rss:
                paced.append(generator.paced(paced_ids[index],
                                             offsets - offsets[0] if offsets.size else offsets))
            rss_marks.append(rss)
            served.update(_serve_counters(server))
            served.subtract(before)
            edge_windows.append(_edge_window(encode, window_frames))
        finally:
            server.stop()
    closed, traced, paced = (PhaseResult.combine(phases) for phases in (closed, traced, paced))

    attempted = n_closed + n_traced + n_paced
    ok_outcomes = closed.ok + traced.ok + paced.ok
    ok = len(ok_outcomes)
    mismatches = sum(o.error == "mismatch"
                     for o in closed.outcomes + traced.outcomes + paced.outcomes)
    # end-to-end latency comes from the closed loop: under the default BLAS
    # threading two overlapping requests each run about twice as slowly, so
    # the Poisson phase's latencies are bimodal and their median moved by 0.40
    # of itself over ten seeds; they are reported as loadgen.paced_* instead
    latencies = closed.latencies_ms()
    paced_latencies = paced.latencies_ms()
    end_to_end = {
        "setup_s": Metric(statistics.median(setups), "s",
                          f"median of {len(setups)}, one per round"),
        "throughput_ips": Metric(closed.throughput(), "1/s",
                                 f"closed loop, {workload.outstanding} outstanding, "
                                 f"{len(closed.ok)}/{n_closed} correct"),
        "latency_p50_ms": Metric(percentile(latencies, 50) if latencies else 0.0, "ms",
                                 f"closed loop, {workload.outstanding} outstanding, from send"),
        "latency_tail_ms": _tail_metric(latencies) if latencies else Metric(0.0, "ms"),
        "success_rate": Metric(ok / attempted, "share", f"{ok}/{attempted}"),
        "edge_encode_ms": Metric(min(edge_windows), "ms",
                                 f"lowest median of {len(edge_windows)} windows of "
                                 f"{EDGE_WINDOW} encodes spread over the run, shared mask, "
                                 "server idle"),
        "bpp": Metric(_bpp(sizes, workload.size), "bpp"),
        "psnr_db": Metric(np.mean([psnrs[o.index] for o in ok_outcomes])
                          if ok_outcomes else 0.0, "dB"),
        "peak_rss_mib": _peak_rss(rss_marks, ("parent + largest shard"
                                   if workload.server == "sharded" else "server process")
                                  + ", heap trimmed at each phase's start"),
    }
    lags = paced.lags_ms()
    paced_p50 = percentile(paced_latencies, 50) if paced_latencies else 0.0
    paced_tail = _tail_metric(paced_latencies) if paced_latencies else Metric(0.0, "ms")
    notes = [f"inputs: {len(sizes)} distinct {workload.size}x{workload.size} RGB "
             f"containers in {len(setups)} rounds, repeated payload share "
             f"{_repeated_share(digests):.3f}",
             f"paced: {n_paced} Poisson requests at {workload.paced_rate:g}/s, latency from "
             f"due time p50 {paced_p50:.1f} ms, tail {paced_tail.value:.1f} ms "
             f"({paced_tail.note}), generator lag p99 "
             f"{percentile(lags, 99) if lags else 0.0:.2f} ms"]
    per_layer = {}
    if trace:
        codec = make_codec()
        model = decoder.model
        filled = []
        for rid, frame, blob in replays:
            with tracer.span("core.transport.unpack", rid):
                package = unpack_package(blob)
            with tracer.span("core.transport.pack", rid):
                pack_package(package)
            filled.append(decode_stages(package, codec, model, config, tracer, rid,
                                        reconstruct=reconstruct)[0])
            replay_edge(codec, config, frame, mask, tracer, rid)
        batches = {key[1]: count for key, count in served.items()
                   if isinstance(key, tuple) and key[0] == "batch" and count}
        per_image_ms = 0.0
        if reconstruct and batches and filled:
            batch_ms = {}
            for size in sorted(batches):
                images = (filled * size)[:size]
                started = time.perf_counter()
                with tracer.span("core.batch_engine.batch", size):
                    reconstruct_batch(model, images, mask)
                batch_ms[size] = (time.perf_counter() - started) * 1e3
            per_image_ms = (sum(batches[s] * batch_ms[s] for s in batches)
                            / sum(batches[s] * s for s in batches))
        completed = max(served["completed"], 1)
        responses = sum(count for key, count in served.items()
                        if isinstance(key, tuple) and key[0] == "transport")
        shards = [served["shard", index] for index in range(num_shards)]
        closed_tput, traced_tput = closed.throughput(), traced.throughput()
        per_layer = _per_layer(
            tracer,
            bytes_per_frame=float(np.mean(sizes)),
            cpu_ms=cpu_s / max(len(closed.ok), 1) * 1e3,
            overhead=1.0 - traced_tput / closed_tput if closed_tput else 0.0,
            covered_ms=tracer.request_children_ms("serve.request"),
            coverage=(tracer.request_children_ms("serve.request")
                      / end_to_end["latency_p50_ms"].value
                      if end_to_end["latency_p50_ms"].value else 0.0),
            checked=attempted, repeated=_repeated_share(digests),
            batch_ms_per_image=per_image_ms,
            queue_wait_ms=served["queue_wait_s"] / completed * 1e3,
            service_ms=served["service_s"] / completed * 1e3,
            batch_mean=(sum(s * c for s, c in batches.items()) / sum(batches.values())
                        if batches else 0.0),
            rejected=served["rejected"], failed=served["failed"],
            deadline_shed=served["deadline_shed"],
            shm_share=served["transport", "shm"] / responses if responses else 0.0,
            shard_imbalance=max(shards) / max(min(shards), 1) if shards else 0.0,
            plan_hits=_hit_ratio(served, ("squeeze_plans", "pixel_plans")),
            codec_hits=_hit_ratio(served, ("codecs",)),
            lag_p99=percentile(lags, 99) if lags else 0.0,
            paced_p50=paced_p50, paced_tail=paced_tail.value)
        if shards:
            notes.append(f"shards: completed per shard {shards}")
        notes.append(f"trace: {len(tracer.spans)} spans written to "
                     f"{_dump(tracer, workload, seed, out_dir)}")
    return RunResult(end_to_end, per_layer, attempted, ok, mismatches, notes)


# ---------------------------------------------------------------------- #
# per-layer metrics
# ---------------------------------------------------------------------- #
def _per_layer(tracer, *, bytes_per_frame, cpu_ms, overhead, covered_ms, coverage,
               checked, repeated, batch_ms_per_image=0.0, queue_wait_ms=0.0,
               service_ms=0.0, batch_mean=0.0, rejected=0, failed=0, deadline_shed=0,
               shm_share=0.0, shard_imbalance=0.0, plan_hits=0.0, codec_hits=0.0,
               lag_p99=0.0, paced_p50=0.0, paced_tail=0.0):
    """Every per-layer metric; a layer with no work on the workload reads 0."""
    span_ms = {
        "edge.mask_ms": "edge.mask",
        "edge.squeeze_plan_ms": "edge.squeeze_plan",
        "edge.encode_ms": "edge.encode",
        "codecs.jpeg.encode_ms": "codecs.jpeg.encode",
        "core.transport.pack_ms": "core.transport.pack",
        "core.transport.unpack_ms": "core.transport.unpack",
        "codecs.jpeg.decode_ms": "codecs.jpeg.decode",
        "core.erase_squeeze.unsqueeze_ms": "core.erase_squeeze.unsqueeze",
        "core.reconstruction.image_ms": "core.reconstruction.image",
        "serve.submit_ms": "serve.submit",
    }
    metrics = {name: Metric(tracer.mean_self_ms(span), "ms") for name, span in span_ms.items()}
    metrics.update({
        "core.transport.bytes_per_frame": Metric(bytes_per_frame, "bytes"),
        "core.batch_engine.ms_per_image": Metric(batch_ms_per_image, "ms"),
        "serve.queue_wait_ms": Metric(queue_wait_ms, "ms"),
        "serve.service_ms_per_image": Metric(service_ms, "ms"),
        "serve.batch_size_mean": Metric(batch_mean, "count"),
        "serve.rejected": Metric(rejected, "count"),
        "serve.failed": Metric(failed, "count"),
        "serve.deadline_shed": Metric(deadline_shed, "count"),
        "serve.shm_share": Metric(shm_share, "share"),
        "serve.shard_imbalance": Metric(shard_imbalance, "ratio"),
        "serve.plan_cache_hit_ratio": Metric(plan_hits, "share"),
        "serve.codec_cache_hit_ratio": Metric(codec_hits, "share"),
        "process.cpu_ms_per_image": Metric(cpu_ms, "ms"),
        "loadgen.lag_p99_ms": Metric(lag_p99, "ms"),
        "loadgen.paced_p50_ms": Metric(paced_p50, "ms"),
        "loadgen.paced_tail_ms": Metric(paced_tail, "ms"),
        "loadgen.repeated_payload_share": Metric(repeated, "share"),
        "trace.overhead_share": Metric(overhead, "share"),
        "trace.self_ms_sum": Metric(covered_ms, "ms"),
        "trace.coverage": Metric(coverage, "share"),
        "gate.responses_checked": Metric(checked, "count"),
    })
    return metrics


def _dump(tracer, workload, seed, out_dir):
    path = os.path.join(out_dir, f"trace-{workload.name}-seed{seed}.jsonl")
    tracer.dump(path)
    return os.path.relpath(path)


def run(workload_name, seed, seconds, trace, out_dir):
    """Run one workload; trace spans (``trace`` set) are written under ``out_dir``."""
    workload = WORKLOADS[workload_name]
    runner = run_roundtrip if workload.server == "none" else run_served
    return runner(workload, seed, seconds, trace, out_dir)
