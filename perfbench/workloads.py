"""The benchmark workloads: set-up, measurement and correctness checks.

Every workload runs on the track network of the paper's Figure-2 setting
(Dense-ReLU-Dense-ReLU-Dense, monitor tap at layer 4) under the
perturbation model Δ = 0.002 at ``k_p`` = 0.  The network and its training
set are built from the fixed :data:`MODEL_SEED`; the ``--seed`` of a run
generates the operational frames (in-ODD jitter and the out-of-ODD scenario
suite, 216 frames), their order, and the Δ-perturbed inputs of the Lemma-1
check.  The network stays fixed because its weights decide how many star
sets need linear programs: across training seeds the star fit alone varies
tenfold, which would drown every effect a later change could have.

Each workload reports the same end-to-end metrics; ``README.md`` gives their
per-workload meaning.  Robust monitor construction is profiled per layer in
the traced ``stream_camera`` run (:func:`profile_fits`).
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import shutil
import tempfile
import time
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.pipeline import build_track_workload
from repro.data.datasets import train_validation_test_split
from repro.data.scenarios import in_odd_jitter, scenario_suite
from repro.data.track import generate_track_dataset
from repro.monitors.boolean import BooleanPatternMonitor, RobustBooleanPatternMonitor
from repro.monitors.interval import IntervalPatternMonitor, RobustIntervalPatternMonitor
from repro.monitors.minmax import MinMaxMonitor, RobustMinMaxMonitor
from repro.monitors.perturbation import PerturbationSpec
from repro.runtime.engine import BatchScoringEngine
from repro.service import BatchPolicy, StreamingScorer
from repro.serving import ScoringClient, ScoringServer, WorkerPool, save_deployment
from repro.symbolic.star_lp import resolve_star_lp_backend

from . import tracing
from .measure import (
    CHUNK_SECONDS,
    ClosedLoopWindow,
    DueTimeLedger,
    children_cpu_seconds,
    best_chunk,
    due_schedule,
    median,
    median_chunk,
    min_samples_for,
    open_loop_summary,
    percentile,
    run_open_loop,
)

#: Training seed of the track network and its training set (see module doc).
MODEL_SEED = 0
NUM_SAMPLES = 360
EPOCHS = 10
#: ``build_track_workload``'s in-ODD jitter magnitude.
JITTER_BRIGHTNESS = 0.04
LAYER = 4
DELTA = 0.002
K_P = 0
DOMAINS = ("box", "zonotope", "star")
BATCH = 32
#: A run of a serving workload is cut into this many sessions.  Each
#: session sets the workload up from the seed (timed; ``setup_s`` is the
#: median over the sessions), measures its share of the window and tears it
#: down.  The set-ups are thus spread over the whole run, and the serving
#: metrics pool sessions whose threads and processes were placed afresh.
SESSIONS = 5
POLICY = BatchPolicy(max_batch=32, max_latency=0.002)
#: Seconds a single future may take before it counts as a timeout.
FUTURE_TIMEOUT = 30.0
#: Δ-perturbed copies of each training input in the Lemma-1 check.
LEMMA_CORNERS = 2
LEMMA_UNIFORM = 2

#: Open-loop rate (frames/s), open-loop burst, closed-loop window and
#: closed-loop burst.  The in-process window counts frames and refills a
#: micro-batch at a time, so the load generator, which shares the GIL with
#: the scorer, wakes once per batch rather than once per camera burst.
STREAM_RATE, STREAM_BURST, STREAM_WINDOW, STREAM_SATURATION_BURST = 1000.0, 4, 256, 32
#: The socket window counts requests of one burst each.
REMOTE_RATE, REMOTE_BURST, REMOTE_WINDOW = 2000.0, 8, 32
#: Shares of a session's window: the open loop, the saturation phase, and
#: the offline overhead probe before the open loop.
OPEN_LOOP_SHARE, SATURATION_SHARE, PROBE_SHARE = 0.6, 0.25, 0.15
WARMUP_SECONDS = 0.3

clock = time.perf_counter


@dataclass
class Outcome:
    """What a workload run measured and how many operations went wrong."""

    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)
    monitors: Dict[str, object] = field(default_factory=dict)
    #: Failed operations per reason.
    failures: Dict[str, int] = field(default_factory=dict)

    def fail(self, count: int, why: str) -> None:
        if count:
            self.failed += int(count)
            self.failures[why] = self.failures.get(why, 0) + int(count)


# ----------------------------------------------------------------------
# shared set-up
# ----------------------------------------------------------------------
@dataclass
class Track:
    network: object
    train: np.ndarray
    frames: np.ndarray
    out_of_odd: np.ndarray  # bool per frame
    seed: int


def build_track(seed: int) -> Track:
    """Train the track network and generate the seeded 216-frame stream."""
    workload = build_track_workload(num_samples=NUM_SAMPLES, epochs=EPOCHS, seed=MODEL_SEED)
    # The held-out split build_track_workload used, re-derived so the
    # operational frames can be drawn from the run's own seed.
    dataset = generate_track_dataset(NUM_SAMPLES, seed=MODEL_SEED)
    _, _, test = train_validation_test_split(dataset, seed=MODEL_SEED + 1)
    in_odd = in_odd_jitter(
        test, brightness_std=JITTER_BRIGHTNESS, noise_std=JITTER_BRIGHTNESS / 3.0, seed=seed
    ).inputs
    scenarios = scenario_suite(test, seed=seed + 1)
    out_parts = [data.inputs for data in scenarios.values()]
    frames = np.vstack([in_odd] + out_parts)
    labels = np.concatenate(
        [np.zeros(len(in_odd), dtype=bool)] + [np.ones(len(p), dtype=bool) for p in out_parts]
    )
    order = np.random.default_rng(seed).permutation(len(frames))
    return Track(workload.network, workload.train.inputs, frames[order], labels[order], seed)


def fit_scoring_monitors(track: Track, families: Tuple[str, ...]) -> Dict[str, object]:
    """Standard and robust (box) monitors of ``families`` on layer 4."""
    net, train = track.network, track.train
    standard = {
        "minmax": lambda: MinMaxMonitor(net, LAYER),
        "boolean": lambda: BooleanPatternMonitor(net, LAYER),
        "interval": lambda: IntervalPatternMonitor(net, LAYER),
    }
    spec = PerturbationSpec(delta=DELTA, layer=K_P, method="box")
    robust = {
        "minmax": lambda: RobustMinMaxMonitor(net, LAYER, spec),
        "boolean": lambda: RobustBooleanPatternMonitor(net, LAYER, spec),
        "interval": lambda: RobustIntervalPatternMonitor(net, LAYER, spec),
    }
    engine = BatchScoringEngine(net)
    monitors: Dict[str, object] = {}
    for family in families:
        monitors[f"{family}_std"] = standard[family]().fit(train)
        monitor = robust[family]().bind_engine(engine)
        monitor.fit(train)
        monitors[f"{family}_rob"] = monitor.bind_engine(None)
    return monitors


def expected_warns(monitors: Dict[str, object], frames: np.ndarray) -> Dict[str, np.ndarray]:
    """The authoritative offline verdicts: ``warn_batch`` on every frame."""
    return {name: np.asarray(m.warn_batch(frames), dtype=bool) for name, m in monitors.items()}


def cyclic_rows(num_frames: int, size: int) -> List[np.ndarray]:
    """Row indices of consecutive ``size``-frame groups cycling over the frames."""
    groups = num_frames // int(np.gcd(num_frames, size))
    return [np.arange(i * size, (i + 1) * size) % num_frames for i in range(groups)]


def run_sessions(
    build: Callable[[], object],
    close: Callable[[object], None],
    measure: Callable[[object, float], Dict[str, object]],
    seconds: float,
    outcome: Outcome,
):
    """Set up, measure and tear down ``SESSIONS`` times over ``seconds``.

    Returns the median set-up time, every session's phase and the last
    context (closed).
    """
    setups, phases = [], []
    for _ in range(SESSIONS):
        gc.collect()
        start = clock()
        context = build()
        setups.append(clock() - start)
        try:
            phases.append(measure(context, seconds / SESSIONS))
        finally:
            close(context)
    outcome.notes.append("set-ups s: " + " ".join(f"{value:.3f}" for value in setups))
    return median(setups), phases, context


def entry_counts(monitors: Dict[str, object]) -> Dict[str, float]:
    """Stored matcher entries per tier, summed over the pattern monitors."""
    counts = {"runtime.exact_entries": 0.0, "runtime.ternary_entries": 0.0, "runtime.range_entries": 0.0}
    for monitor in monitors.values():
        patterns = getattr(monitor, "patterns", None)
        if patterns is None:
            continue
        matcher = patterns._matcher
        counts["runtime.exact_entries"] += matcher.num_exact
        counts["runtime.ternary_entries"] += matcher.num_ternary
        counts["runtime.range_entries"] += matcher.num_ranges
    return counts


def runtime_layers(tracer: tracing.Tracer, monitors: Dict[str, object]) -> Dict[str, float]:
    """Per-``score_batch``-call layer costs shared by the scoring workloads."""
    calls = max(1, tracer.calls("runtime.engine"))
    per_call = lambda name: tracer.total(name) * 1e6 / calls  # noqa: E731
    layers = {
        "nn.activations_us": per_call("nn.activations"),
        "runtime.codec_codes_us": per_call("runtime.codec_codes"),
        "runtime.pack_codes_us": per_call("runtime.pack_codes"),
        "runtime.matcher_us": per_call("runtime.matcher"),
        "runtime.matcher_exact_us": per_call("runtime.tier_exact"),
        "runtime.matcher_ternary_us": per_call("runtime.tier_ternary"),
        "runtime.matcher_range_us": per_call("runtime.tier_ranges"),
        "runtime.engine_self_us": tracer.self_time("runtime.engine") * 1e6 / calls,
        "runtime.score_batch_us": per_call("runtime.engine"),
        "runtime.probes": tracer.counter("runtime.probes") / calls,
        "runtime.range_probes": tracer.counter("runtime.tier_ranges_probes") / calls,
        "runtime.hit_share": tracer.counter("runtime.hits")
        / max(1.0, tracer.counter("runtime.probes")),
        "bdd.materialisations": tracer.counter("bdd.materialisations"),
    }
    for span in tracing.MONITOR_SPANS.values():
        layers[f"{span}_us"] = per_call(span)
    engine_total = tracer.total("runtime.engine")
    layers["trace.score_batch_coverage"] = (
        1.0 - tracer.self_time("runtime.engine") / engine_total if engine_total else 0.0
    )
    layers.update(entry_counts(monitors))
    return layers


def check_frame(result_warns, expected: Dict[str, np.ndarray], row: int) -> bool:
    return all(bool(result_warns[name]) == bool(flags[row]) for name, flags in expected.items())


def traced(outcome: Outcome, measure, install, cost):
    """Measure once untraced and once traced; returns (plain, traced, tracer).

    ``cost(result)`` is the seconds per operation of a measurement; traced
    minus untraced is the tracing overhead.
    """
    plain = measure(None)
    tracer = tracing.Tracer()
    try:
        install(tracer)
        with_trace = measure(tracer)
    finally:
        tracer.restore()
    record_overhead(outcome, cost(plain), cost(with_trace))
    return plain, with_trace, tracer


def record_overhead(outcome: Outcome, base: float, with_trace: float) -> None:
    outcome.layers["trace.overhead_us"] = (with_trace - base) * 1e6
    outcome.layers["trace.overhead_pct"] = (with_trace - base) / base * 100.0 if base else 0.0


# ----------------------------------------------------------------------
# offline scoring: the verdict reference and the overhead probe
# ----------------------------------------------------------------------
#: The monitors both front ends serve: no interval monitor, so the range
#: tier and the multi-bit codec stay out of the served path.
SERVED = ("minmax_std", "minmax_rob", "boolean_std", "boolean_rob")
#: Seconds of traced offline scoring in a traced run (the ``offline.*``
#: per-layer metrics).
OFFLINE_PROFILE_SECONDS = 2.0


@dataclass
class OfflineContext:
    """The six reference monitors (the paper's cost) and their offline verdicts."""

    track: Track
    monitors: Dict[str, object]
    engine: BatchScoringEngine
    batches: List[np.ndarray]
    expected: List[Dict[str, np.ndarray]]

    @property
    def served(self) -> Dict[str, object]:
        return {name: self.monitors[name] for name in SERVED}


def setup_offline(seed: int) -> OfflineContext:
    track = build_track(seed)
    monitors = fit_scoring_monitors(track, ("minmax", "boolean", "interval"))
    offline = expected_warns(monitors, track.frames)
    rows = cyclic_rows(len(track.frames), BATCH)
    return OfflineContext(
        track,
        monitors,
        BatchScoringEngine(track.network),
        [np.ascontiguousarray(track.frames[r]) for r in rows],
        [{name: flags[r] for name, flags in offline.items()} for r in rows],
    )


def measure_offline(ctx: OfflineContext, seconds: float, outcome: Outcome) -> Dict[str, float]:
    """Closed loop in one thread: score a batch, then time one inference of it.

    The window is cut into chunks of ``CHUNK_SECONDS``; every metric is
    computed per chunk and the best chunk is reported.
    """
    engine, network, monitors = ctx.engine, ctx.track.network, ctx.monitors
    warm_until = clock() + WARMUP_SECONDS
    while clock() < warm_until:
        for batch in ctx.batches:
            engine.score_batch(monitors, batch, use_cache=False)
            network.forward(batch)
    chunks: List[Dict[str, float]] = []
    all_scores: List[float] = []
    start = clock()
    while not chunks or clock() - start < seconds:
        score_times: List[float] = []
        forward_times: List[float] = []
        chunk_end = clock() + CHUNK_SECONDS
        while clock() < chunk_end or len(score_times) < min_samples_for(95):
            for batch, expected in zip(ctx.batches, ctx.expected):
                t0 = clock()
                score = engine.score_batch(monitors, batch, use_cache=False)
                t1 = clock()
                network.forward(batch)
                t2 = clock()
                score_times.append(t1 - t0)
                forward_times.append(t2 - t1)
                outcome.attempted += len(batch)
                for name, flags in expected.items():
                    mismatched = int(np.count_nonzero(score.warns[name] != flags))
                    outcome.fail(mismatched, f"score_batch verdicts of {name} differ from warn_batch")
        chunks.append(
            {
                "frames_per_s": BATCH * len(score_times) / sum(score_times),
                "latency_p50_ms": percentile(score_times, 50) * 1e3,
                "latency_p95_ms": percentile(score_times, 95) * 1e3,
                "overhead_x": median(score_times) / median(forward_times),
            }
        )
        all_scores.extend(score_times)
    result = best_chunk(chunks, higher=("frames_per_s",))
    result["score_s"] = median(all_scores)
    return result


# ----------------------------------------------------------------------
# stream_camera and remote_socket: open loop, then saturation
# ----------------------------------------------------------------------
def _await_futures(items, expected, outcome: Outcome, frames_of) -> None:
    """Check every (row list, future) pair against the offline verdicts."""
    for rows, future in items:
        outcome.attempted += len(rows)
        try:
            result = future.result(FUTURE_TIMEOUT)
        except FutureTimeout:
            outcome.fail(len(rows), "frame timed out")
            continue
        except Exception as exc:  # noqa: BLE001 - every failure mode counts
            outcome.fail(len(rows), f"frame failed: {type(exc).__name__}: {exc}")
            continue
        for position, row in enumerate(rows):
            if not check_frame(frames_of(result, position), expected, row):
                outcome.fail(1, "served verdict differs from warn_batch")


def serve_phases(
    submit: Callable[[np.ndarray], list],
    frames_of,
    per_future_rows: bool,
    frames: np.ndarray,
    expected: Dict[str, np.ndarray],
    rate: float,
    burst: int,
    window: int,
    saturation_burst: int,
    seconds: float,
    outcome: Outcome,
    cpu_probe: Callable[[], Tuple[float, float]],
    overhead_probe: Optional[Callable[[float], float]],
) -> Dict[str, object]:
    """Open loop at ``rate`` frames/s in bursts, then a closed-loop window.

    ``submit(burst_frames)`` returns futures: one per frame when
    ``per_future_rows`` is true (in-process scorer), else one per burst
    (socket client).  ``window`` counts frames in flight for per-frame
    futures and requests in flight otherwise; the closed loop sends bursts
    of ``saturation_burst`` frames.  ``cpu_probe()`` returns the
    (front, worker) CPU seconds so far, read at every chunk boundary of the
    saturation phase.  ``overhead_probe(seconds)`` measures the offline
    overhead per inference; it runs once, before the open loop.

    Besides the phase's own summary, the result keeps the per-chunk figures
    (``latency_chunks``, ``saturation_chunks``) and the probe readings
    (``overhead``) so that :func:`pool_phases` can summarise several phases.
    """
    def burst_table(size: int):
        groups = cyclic_rows(len(frames), size)
        return groups, [np.ascontiguousarray(frames[rows]) for rows in groups]

    tables = {size: burst_table(size) for size in {burst, saturation_burst}}
    # The harness keeps every future until it is checked.  Freezing the heap
    # at each chunk boundary keeps those retained objects out of the cyclic
    # collector's scans, which would otherwise grow with the run and stall
    # the program under test; the program's own garbage is still collected.
    gc.collect()
    gc.freeze()
    sends_per_chunk = max(1, int(rate * CHUNK_SECONDS / burst))

    def futures_of(index: int, size: int = burst):
        groups, bursts = tables[size]
        futures = submit(bursts[index % len(bursts)])
        rows = groups[index % len(groups)]
        if per_future_rows:
            return futures, [([row], f) for row, f in zip(rows, futures)]
        return futures, [(list(rows), futures[0])]

    # Warm-up: connections, first-call paths, worker caches.
    warm: list = []
    warm_until, index = clock() + WARMUP_SECONDS, 0
    while clock() < warm_until:
        warm.extend(futures_of(index)[1])
        index += 1
        time.sleep(burst / rate)
    for _, future in warm:
        future.result(FUTURE_TIMEOUT)

    overhead = []
    if overhead_probe is not None:
        overhead.append(overhead_probe(seconds * PROBE_SHARE))

    # Phase 1: open loop, latency from each frame's due time.
    # Each phase lasts at least one chunk, so short runs still summarise.
    open_seconds = max(seconds * OPEN_LOOP_SHARE, CHUNK_SECONDS)
    ledger = DueTimeLedger(clock)
    checks: list = []

    def send(index: int, first: int) -> None:
        if index % sends_per_chunk == 0:
            gc.freeze()
        futures, pairs = futures_of(index)
        checks.extend(pairs)
        due = ledger.due[first]
        if per_future_rows:
            for offset, future in enumerate(futures):
                # Read back by the traced run's queue-wait accounting.
                future.perfbench_due = due
                future.add_done_callback(lambda _f, k=first + offset: ledger.mark_done(k))
        else:
            futures[0].add_done_callback(lambda _f, k=first: ledger.mark_done(k, burst))

    schedule = due_schedule(clock() + 0.005, rate, burst, open_seconds)
    run_open_loop(ledger, schedule, send, burst)
    phase_end = schedule[-1] + burst / rate
    _await_futures(checks, expected, outcome, frames_of)
    summary = open_loop_summary(ledger, phase_end, chunk=CHUNK_SECONDS)

    # Phase 2: closed loop with a fixed window in flight.  CPU is probed at
    # every chunk boundary; completions are counted per chunk.
    slots = ClosedLoopWindow(window)
    closed: list = []
    cost = saturation_burst if per_future_rows else 1
    completed = lambda: slots.released * saturation_burst // cost  # noqa: E731
    sent = 0
    probes = [(clock(), completed()) + tuple(cpu_probe())]
    saturation_end = probes[0][0] + max(seconds * SATURATION_SHARE, CHUNK_SECONDS)
    while True:
        now = clock()
        if now - probes[-1][0] >= CHUNK_SECONDS or now >= saturation_end:
            probes.append((now, completed()) + tuple(cpu_probe()))
            gc.freeze()
            if now >= saturation_end:
                break
        slots.acquire(cost)
        futures, pairs = futures_of(sent, saturation_burst)
        closed.extend(pairs)
        # Per-frame futures of one burst resolve in submission order, so the
        # last one releases the whole burst's slots.
        futures[-1].add_done_callback(lambda _f: slots.release(cost))
        sent += 1
    if not slots.wait_idle(FUTURE_TIMEOUT):
        outcome.notes.append("saturation phase did not drain in time")
    _await_futures(closed, expected, outcome, frames_of)
    del checks, closed
    gc.unfreeze()
    gc.collect()
    chunks = []
    for (t0, done0, front0, work0), (t1, done1, front1, work1) in zip(probes, probes[1:]):
        frames_done = done1 - done0
        if frames_done and t1 - t0 >= 0.5 * CHUNK_SECONDS:
            chunks.append(
                {
                    "frames_per_s": frames_done / (t1 - t0),
                    "frame_s": (t1 - t0) / frames_done,
                    "front_cpu_s": (front1 - front0) / frames_done,
                    "worker_cpu_s": (work1 - work0) / frames_done,
                }
            )
    # The per-frame costs of the traced run are those of a typical chunk.
    typical = median_chunk(chunks)
    outcome.notes.append(
        "saturation chunks frames/s: "
        + " ".join(f"{chunk['frames_per_s']:.0f}" for chunk in chunks)
    )
    for q in ("p50", "p95"):
        outcome.notes.append(
            f"open-loop chunks {q} ms: "
            + " ".join(f"{chunk[q] * 1e3:.3f}" for chunk in summary["chunks"])
        )
    return {
        "latency_p50_ms": summary["latency_p50_s"] * 1e3,
        "gen.late_p95_ms": summary["late_p95_s"] * 1e3,
        "gen.backlog_end": summary["backlog_end"],
        "gen.valid": summary["valid"],
        "front_cpu_s": typical["front_cpu_s"],
        "worker_cpu_s": typical["worker_cpu_s"],
        "frame_s": typical["frame_s"],
        "latency_chunks": summary["chunks"],
        "saturation_chunks": chunks,
        "overhead": overhead,
    }


def pool_phases(phases: List[Dict[str, object]]) -> Dict[str, float]:
    """The end-to-end serving metrics of a run: the best chunk of all phases.

    Latency percentiles are those of the best open-loop chunk, capacity that
    of the best saturation chunk, ``overhead_x`` the best probe reading
    (each the best of its chunks).
    """
    latency = best_chunk([chunk for phase in phases for chunk in phase["latency_chunks"]])
    saturation = best_chunk(
        [chunk for phase in phases for chunk in phase["saturation_chunks"]],
        higher=("frames_per_s",),
    )
    overhead = [value for phase in phases for value in phase["overhead"]]
    return {
        "frames_per_s": saturation["frames_per_s"],
        "latency_p50_ms": latency["p50"] * 1e3,
        "latency_p95_ms": latency["p95"] * 1e3,
        "overhead_x": min(overhead) if overhead else 0.0,
    }


def _gen_layers(outcome: Outcome, phase: Dict[str, float]) -> None:
    outcome.layers["gen.late_p95_ms"] = phase["gen.late_p95_ms"]
    outcome.layers["gen.backlog_end"] = phase["gen.backlog_end"]
    outcome.layers["gen.invalid_phases"] = 0.0 if phase["gen.valid"] else 1.0


def _flag_phase(outcome: Outcome, phase: Dict[str, float]) -> None:
    if not phase["gen.valid"]:
        outcome.notes.append(
            "open-loop phase INVALID: generator p95 lateness "
            f"{phase['gen.late_p95_ms']:.3f} ms is a material share of the "
            f"latency p50 {phase['latency_p50_ms']:.3f} ms"
        )


def _queue_wait_ms(tracer: tracing.Tracer) -> float:
    """Median due time → micro-batch take of the open-loop frames."""
    waits = [
        taken - future.perfbench_due
        for taken, futures in tracer.takes
        for future in futures
        if hasattr(future, "perfbench_due")
    ]
    return median(waits) * 1e3 if waits else 0.0


@dataclass
class StreamContext:
    offline: OfflineContext
    scorer: StreamingScorer


def setup_stream(seed: int) -> StreamContext:
    offline = setup_offline(seed)
    scorer = StreamingScorer(offline.track.network, policy=POLICY)
    for name, monitor in offline.served.items():
        scorer.register(name, monitor)
    return StreamContext(offline, scorer.start())


def close_stream(ctx: StreamContext) -> None:
    ctx.scorer.close(drain=True, timeout=FUTURE_TIMEOUT)


def measure_stream(
    ctx: StreamContext, span: float, outcome: Outcome, traced_half: bool = False
) -> Dict[str, object]:
    """One ``stream_camera`` measurement of ``span`` seconds on a set-up scorer."""
    track, monitors = ctx.offline.track, ctx.offline.served
    overhead_probe = lambda probe: measure_offline(ctx.offline, probe, outcome)["overhead_x"]  # noqa: E731
    before = ctx.scorer.stats.snapshot()
    phase = serve_phases(
        ctx.scorer.submit_many, lambda result, _position: result.warns, True,
        track.frames, expected_warns(monitors, track.frames), STREAM_RATE, STREAM_BURST,
        STREAM_WINDOW, STREAM_SATURATION_BURST, span, outcome,
        lambda: (time.process_time(), 0.0), None if traced_half else overhead_probe,
    )
    phase["stats"] = (before, ctx.scorer.stats.snapshot())
    return phase


def run_stream_camera(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    if not trace:
        setup_s, phases, ctx = run_sessions(
            lambda: setup_stream(seed), close_stream,
            lambda c, span: measure_stream(c, span, outcome), seconds, outcome,
        )
        outcome.metrics = {"setup_s": setup_s, **pool_phases(phases)}
    else:
        ctx = setup_stream(seed)
        try:
            phase, with_trace, tracer = traced(
                outcome,
                lambda tracer: measure_stream(ctx, seconds / 2, outcome, tracer is not None),
                lambda t: (tracing.install_scoring_wrappers(t), tracing.install_service_wrappers(t)),
                lambda m: m["frame_s"],
            )
            _stream_layers(outcome, tracer, ctx.offline.served, with_trace)
            outcome.layers.update(profile_offline(ctx.offline, outcome))
            outcome.layers.update(profile_fits(ctx.offline.track, outcome))
        finally:
            close_stream(ctx)
        phases = [phase]
    for phase in phases:
        _flag_phase(outcome, phase)
    outcome.monitors = ctx.offline.served
    check_lemma1(ctx.offline.track, ctx.offline.monitors, outcome)
    return outcome


def _stream_layers(outcome, tracer, monitors, phase) -> None:
    outcome.layers.update(runtime_layers(tracer, monitors))
    before, stats = phase["stats"]
    submits = max(1, tracer.calls("service.submit"))
    batches = stats["batches"] - before["batches"]
    frames = stats["frames_scored"] - before["frames_scored"]
    reasons, old = stats["flush_reasons"], before["flush_reasons"]
    outcome.layers.update(
        {
            "service.submit_us": tracer.total("service.submit") * 1e6 / submits,
            "service.queue_wait_ms": _queue_wait_ms(tracer),
            "service.score_batch_us": outcome.layers["runtime.score_batch_us"],
            "proc.cpu_us_per_frame": phase["front_cpu_s"] * 1e6,
            "service.mean_batch_size": frames / batches if batches else 0.0,
            "service.flush_size": float(reasons.get("size", 0) - old.get("size", 0)),
            "service.flush_deadline": float(reasons.get("deadline", 0) - old.get("deadline", 0)),
        }
    )
    _gen_layers(outcome, phase)


# ----------------------------------------------------------------------
# remote_socket
# ----------------------------------------------------------------------
@dataclass
class RemoteContext:
    offline: OfflineContext
    directory: str
    pool: WorkerPool
    server: ScoringServer
    client: ScoringClient

    def close(self) -> None:
        try:
            self.client.close()
            self.server.close(drain=True, timeout=FUTURE_TIMEOUT)
        finally:
            shutil.rmtree(self.directory, ignore_errors=True)


def start_remote(offline: OfflineContext, work_root: str, worker_target=None) -> RemoteContext:
    """Save a bundle, boot a one-worker spawn pool, serve it, connect, score once.

    ``worker_target`` replaces the pool's worker entry point while the pool
    spawns (the traced run passes :func:`tracing.traced_worker_main`).
    """
    from repro.serving import pool as pool_module

    directory = tempfile.mkdtemp(prefix="bundle-", dir=work_root)
    save_deployment(directory, offline.track.network, offline.served)
    pool = WorkerPool(directory, num_workers=1, policy=POLICY, mp_context="spawn")
    original = pool_module.worker_main
    if worker_target is not None:
        pool_module.worker_main = worker_target
    try:
        pool.start()
    finally:
        pool_module.worker_main = original
    try:
        server = ScoringServer(pool, owns_scorer=True).start()
    except BaseException:
        pool.close(drain=False, timeout=FUTURE_TIMEOUT)
        shutil.rmtree(directory, ignore_errors=True)
        raise
    context = RemoteContext(offline, directory, pool, server, ScoringClient(server.address, timeout=FUTURE_TIMEOUT))
    try:
        context.client.connect()
        # Ready means one frame made the full round trip through a booted worker.
        context.client.score(offline.batches[0][:1])
    except BaseException:
        context.close()
        raise
    return context


def measure_remote(
    context: RemoteContext, span: float, outcome: Outcome, traced_half: bool = False
) -> Dict[str, object]:
    """One ``remote_socket`` measurement of ``span`` seconds on a running server."""
    track, monitors = context.offline.track, context.offline.served
    overhead_probe = lambda probe: measure_offline(context.offline, probe, outcome)["overhead_x"]  # noqa: E731

    def cpu_probe():
        pids = [child.pid for child in multiprocessing.active_children()]
        return time.process_time(), children_cpu_seconds(pids)

    phase = serve_phases(
        lambda burst_frames: [context.client.score_async(burst_frames)],
        lambda result, position: {name: flags[position] for name, flags in result.items()},
        False, track.frames, expected_warns(monitors, track.frames),
        REMOTE_RATE, REMOTE_BURST, REMOTE_WINDOW, REMOTE_BURST, span, outcome, cpu_probe,
        None if traced_half else overhead_probe,
    )
    phase["restarts"] = context.pool.restarts
    phase["stats"] = context.pool.stats.snapshot()
    return phase


def run_remote_socket(seed: int, seconds: float, trace: bool, work_root: str) -> Outcome:
    outcome = Outcome()
    build = lambda: start_remote(setup_offline(seed), work_root)  # noqa: E731
    if not trace:
        setup_s, phases, ctx = run_sessions(
            build, RemoteContext.close, lambda c, span: measure_remote(c, span, outcome),
            seconds, outcome,
        )
        outcome.metrics = {"setup_s": setup_s, **pool_phases(phases)}
    else:
        ctx = build()
        try:
            phase = measure_remote(ctx, seconds / 2, outcome)
        finally:
            ctx.close()
        phases = [phase]
        # The traced half needs workers that boot with the wrappers installed.
        with_trace, tracer = _traced_remote(ctx.offline, work_root, outcome, seconds / 2)
        phases.append(with_trace)
        record_overhead(outcome, phase["frame_s"], with_trace["frame_s"])
        _remote_layers(
            outcome, tracer, ctx.offline.served, with_trace,
            sum(p["restarts"] for p in phases),
        )
    for phase in phases:
        _flag_phase(outcome, phase)
    outcome.fail(sum(p["restarts"] for p in phases), "worker pool restarted a crashed worker")
    outcome.monitors = ctx.offline.served
    check_lemma1(ctx.offline.track, ctx.offline.monitors, outcome)
    return outcome


def _traced_remote(offline, work_root, outcome, seconds):
    trace_dir = tempfile.mkdtemp(prefix="worker-trace-", dir=work_root)
    os.environ[tracing.WORKER_TRACE_ENV] = trace_dir
    tracer = tracing.Tracer()
    context = None
    try:
        context = start_remote(offline, work_root, tracing.traced_worker_main)
        tracing.install_serving_wrappers(tracer)
        result = measure_remote(context, seconds, outcome, traced_half=True)
    finally:
        tracer.restore()
        if context is not None:
            context.close()
        os.environ.pop(tracing.WORKER_TRACE_ENV, None)
    # Workers write their span tables as they stop, inside close().
    tracing.merge_worker_traces(tracer, trace_dir)
    shutil.rmtree(trace_dir, ignore_errors=True)
    return result, tracer


def _remote_layers(outcome, tracer, monitors, phase, restarts) -> None:
    outcome.layers.update(runtime_layers(tracer, monitors))
    stats = phase["stats"]
    per_call = lambda name: tracer.total(name) * 1e6 / max(1, tracer.calls(name))  # noqa: E731
    reasons = stats["flush_reasons"]
    outcome.layers.update(
        {
            "serving.encode_request_us": per_call("serving.encode_request"),
            "serving.decode_request_us": per_call("serving.decode_request"),
            "serving.encode_result_us": per_call("serving.encode_result"),
            "serving.decode_result_us": per_call("serving.decode_result"),
            "serving.pool_submit_us": per_call("serving.pool_submit"),
            "serving.ring_write_us": per_call("serving.ring_write"),
            "serving.front_cpu_us_per_frame": phase["front_cpu_s"] * 1e6,
            "serving.worker_cpu_us_per_frame": phase["worker_cpu_s"] * 1e6,
            "serving.mean_batch_size": stats["mean_batch_size"],
            "serving.flush_adaptive": float(reasons.get("adaptive", 0)),
            "serving.flush_deadline": float(reasons.get("deadline", 0)),
            "serving.restarts": float(restarts),
        }
    )
    _gen_layers(outcome, phase)


# ----------------------------------------------------------------------
# robust fits: Lemma 1 in every run, per-layer profile in traced runs
# ----------------------------------------------------------------------
ROBUST_CLASSES = (RobustMinMaxMonitor, RobustBooleanPatternMonitor, RobustIntervalPatternMonitor)
STANDARD_CLASSES = (MinMaxMonitor, BooleanPatternMonitor, IntervalPatternMonitor)


def fit_domain(track: Track, method: str) -> Tuple[float, List[object]]:
    """Fit the three robust families through one fresh engine (one propagation)."""
    spec = PerturbationSpec(delta=DELTA, layer=K_P, method=method)
    start = clock()
    engine = BatchScoringEngine(track.network)
    monitors = []
    for cls in ROBUST_CLASSES:
        monitor = cls(track.network, LAYER, spec).bind_engine(engine)
        monitor.fit(track.train)
        monitors.append(monitor.bind_engine(None))
    return clock() - start, monitors


def fit_standard(track: Track) -> float:
    start = clock()
    for cls in STANDARD_CLASSES:
        cls(track.network, LAYER).fit(track.train)
    return clock() - start


def lemma_inputs(track: Track) -> np.ndarray:
    """Training inputs plus seeded Δ-ball corners and uniform samples of each."""
    rng = np.random.default_rng(track.seed + 7)
    train = track.train
    corners = [train + DELTA * rng.choice([-1.0, 1.0], size=train.shape) for _ in range(LEMMA_CORNERS)]
    uniform = [train + rng.uniform(-DELTA, DELTA, size=train.shape) for _ in range(LEMMA_UNIFORM)]
    return np.vstack([train] + corners + uniform)


def check_lemma1(track: Track, monitors: Dict[str, object], outcome: Outcome) -> None:
    """No robust monitor may warn on a training input or a Δ-perturbed copy of one."""
    probes = lemma_inputs(track)
    for name, monitor in monitors.items():
        if getattr(monitor, "perturbation", None) is None:
            continue
        outcome.attempted += len(probes)
        violations = int(np.count_nonzero(monitor.warn_batch(probes)))
        outcome.fail(violations, f"Lemma 1: {name} warned on Δ-close inputs")


def profile_offline(ctx: OfflineContext, outcome: Outcome) -> Dict[str, float]:
    """Traced offline scoring of the six reference monitors, as ``offline.*``.

    The served path leaves the interval monitors out; this profile covers
    them, the multi-bit codec and the range tier.
    """
    tracer = tracing.Tracer()
    try:
        tracing.install_scoring_wrappers(tracer)
        measure_offline(ctx, OFFLINE_PROFILE_SECONDS, outcome)
    finally:
        tracer.restore()
    return {f"offline.{name}": value for name, value in runtime_layers(tracer, ctx.monitors).items()}


def profile_fits(track: Track, outcome: Outcome) -> Dict[str, float]:
    """Traced robust fits of every domain and a standard fit (the traced run).

    Reports the fit layers (symbolic propagation, star-LP tiers, robust
    codec, BDD inserts), the fit times, the precision of each domain and the
    warn rates of the nine robust monitors, and checks Lemma 1 on them.
    """
    backend = resolve_star_lp_backend(None)
    if hasattr(backend, "reset_stats"):
        backend.reset_stats()
    tracer = tracing.Tracer()
    times: Dict[str, float] = {}
    fitted: Dict[str, List[object]] = {}
    try:
        tracing.install_fit_wrappers(tracer)
        tracing.install_scoring_wrappers(tracer)
        for method in DOMAINS:
            times[method], fitted[method] = fit_domain(track, method)
            outcome.attempted += len(fitted[method])
        times["standard"] = fit_standard(track)
    finally:
        tracer.restore()
    per_fit = lambda name: tracer.total(name) * 1e3  # noqa: E731
    layers = {
        "symbolic.bounds_box_ms": per_fit("symbolic.bounds_box"),
        "symbolic.bounds_zonotope_ms": per_fit("symbolic.bounds_zonotope"),
        "symbolic.bounds_star_ms": per_fit("symbolic.bounds_star"),
        "symbolic.star_lp_ms": per_fit("symbolic.star_lp"),
        "runtime.bound_codes_ms": per_fit("runtime.bound_codes") / len(DOMAINS),
        "runtime.ternary_planes_ms": per_fit("runtime.ternary_planes") / len(DOMAINS),
        "bdd.insert_ms": per_fit("bdd.insert") / len(DOMAINS),
        "trace.star_bounds_coverage": tracer.total("symbolic.bounds_star") / times["star"],
    }
    stats = getattr(backend, "stats", {})
    for key in ("closed_form_stars", "lp_stars", "lp_programs", "lp_objectives"):
        layers[f"symbolic.star_{key}"] = float(stats.get(key, 0))
    for method, seconds in times.items():
        layers[f"fit.{method}_ms"] = seconds * 1e3
    fp, detection = [], []
    for method, (minmax, boolean, interval) in fitted.items():
        layers[f"monitors.dont_care_fraction_{method}"] = boolean.dont_care_fraction
        layers[f"monitors.ambiguous_fraction_{method}"] = interval.ambiguous_position_fraction
        check_lemma1(
            track, {f"{m.kind} ({method})": m for m in (minmax, boolean, interval)}, outcome
        )
        for monitor in (minmax, boolean, interval):
            warns = monitor.warn_batch(track.frames)
            fp.append(float(warns[~track.out_of_odd].mean()))
            detection.append(float(warns[track.out_of_odd].mean()))
    layers["monitors.robust_fp_rate"] = float(np.mean(fp))
    layers["monitors.robust_detection_rate"] = float(np.mean(detection))
    outcome.notes.append(
        f"traced fits: box {times['box'] * 1e3:.1f} ms, zonotope {times['zonotope'] * 1e3:.1f} ms, "
        f"star {times['star']:.3f} s, standard {times['standard'] * 1e3:.2f} ms; robust fp rate "
        f"{layers['monitors.robust_fp_rate']:.4f}, detection rate "
        f"{layers['monitors.robust_detection_rate']:.4f}"
    )
    return layers
