"""Tests of the measurement helpers: percentiles, due-time latency, /proc CPU."""

import os
import threading
import time

import numpy as np
import pytest

from perfbench.measure import (
    ClosedLoopWindow,
    DueTimeLedger,
    InsufficientSamples,
    best_chunk,
    due_schedule,
    median,
    median_chunk,
    min_samples_for,
    open_loop_summary,
    parse_proc_stat,
    percentile,
    proc_cpu_seconds,
    run_open_loop,
)


class FakeClock:
    """A clock that only moves when told to (sleeping advances it exactly)."""

    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# percentiles and the sample-count rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("q, needed", [(50, 20), (90, 100), (95, 200), (99, 1000)])
def test_min_samples_leave_ten_beyond_the_percentile(q, needed):
    assert min_samples_for(q) == needed
    assert needed * (100 - q) / 100 >= 10
    assert (needed - 1) * (100 - q) / 100 < 10


def test_percentile_refuses_a_tail_with_fewer_than_ten_samples():
    with pytest.raises(InsufficientSamples):
        percentile(list(range(199)), 95)
    with pytest.raises(InsufficientSamples):
        percentile(list(range(19)), 50)
    percentile(list(range(200)), 95)
    percentile(list(range(20)), 50)


def test_percentile_interpolates_like_numpy():
    rng = np.random.default_rng(3)
    samples = list(rng.lognormal(size=457))
    for q in (0, 25, 50, 90, 95):
        assert percentile(samples, q) == pytest.approx(np.percentile(samples, q), rel=1e-12)


def test_percentile_ignores_input_order():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 40
    assert percentile(samples, 95) == percentile(sorted(samples), 95)


def test_median_of_even_and_odd_counts():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(InsufficientSamples):
        median([])


# ----------------------------------------------------------------------
# due-time latency accounting
# ----------------------------------------------------------------------
def test_due_schedule_spacing_is_burst_over_rate():
    schedule = due_schedule(10.0, rate=1000.0, burst=4, duration=0.02)
    assert len(schedule) == 5
    assert np.allclose(np.diff(schedule), 0.004)
    assert schedule[0] == 10.0


def test_latency_counts_from_due_time_not_send_time():
    clock = FakeClock()
    ledger = DueTimeLedger(clock)
    schedule = due_schedule(clock() + 1.0, rate=100.0, burst=2, duration=0.06)

    def send(index, first):
        if index == 0:
            # A 25 ms stall inside the first send delays every later send.
            clock.sleep(0.025)
        ledger.mark_done(first, 2, when=clock() + 0.001)

    run_open_loop(ledger, schedule, send, burst=2, sleep=clock.sleep)
    assert ledger.num_frames == 2 * len(schedule)
    lateness = ledger.lateness()
    # Bursts are due every 20 ms; the stall makes burst 1 late by 5 ms.
    assert lateness[0] == pytest.approx(0.0)
    assert lateness[2] == pytest.approx(0.005)
    assert lateness[4] == pytest.approx(0.0)
    latencies = ledger.latencies()
    assert latencies[0] == pytest.approx(0.026)  # stall + 1 ms service
    assert latencies[2] == pytest.approx(0.006)  # 5 ms late + 1 ms service


def test_backlog_counts_frames_sent_and_unresolved_at_a_moment():
    ledger = DueTimeLedger(FakeClock())
    first = ledger.record_send(due=1.0, frames=3, sent=1.0)
    ledger.mark_done(first, 1, when=1.5)
    ledger.mark_done(first + 1, 1, when=3.0)
    ledger.record_send(due=2.0, frames=1, sent=2.5)
    assert ledger.backlog_at(0.5) == 0
    assert ledger.backlog_at(2.0) == 2  # frame 2 resolved later, frame 3 never
    assert ledger.backlog_at(2.6) == 3
    assert ledger.backlog_at(4.0) == 2


def test_open_loop_summary_flags_a_late_generator():
    ledger = DueTimeLedger(FakeClock())
    for index in range(400):
        due = float(index)
        # Generator late by 0.5 s on every send, latency 1 s from due.
        ledger.record_send(due=due, frames=1, sent=due + 0.5)
        ledger.mark_done(index, 1, when=due + 1.0)
    summary = open_loop_summary(ledger, phase_end=400.0)
    assert summary["latency_p50_s"] == pytest.approx(1.0)
    assert summary["late_p95_s"] == pytest.approx(0.5)
    assert summary["valid"] == 0.0
    assert summary["backlog_end"] == 0.0


def test_open_loop_summary_accepts_a_punctual_generator():
    ledger = DueTimeLedger(FakeClock())
    for index in range(400):
        ledger.record_send(due=float(index), frames=1, sent=float(index) + 1e-4)
        ledger.mark_done(index, 1, when=float(index) + 0.01)
    assert open_loop_summary(ledger, phase_end=400.0)["valid"] == 1.0


def test_best_chunk_takes_min_or_max_per_metric():
    chunks = [{"latency": 3.0, "rate": 10.0}, {"latency": 2.0, "rate": 8.0}]
    assert best_chunk(chunks, higher=("rate",)) == {"latency": 2.0, "rate": 10.0}
    with pytest.raises(InsufficientSamples):
        best_chunk([])


def test_chunked_summary_reports_the_least_disturbed_slice():
    ledger = DueTimeLedger(FakeClock())
    for index in range(800):
        due = index * 0.005  # 200 frames per second-long slice
        # The second slice is disturbed: every frame there takes 10x longer.
        latency = 0.010 if 1.0 <= due < 2.0 else 0.001
        ledger.record_send(due=due, frames=1, sent=due)
        ledger.mark_done(index, 1, when=due + latency)
    whole = open_loop_summary(ledger, phase_end=4.0)
    sliced = open_loop_summary(ledger, phase_end=4.0, chunk=1.0)
    assert whole["latency_p95_s"] == pytest.approx(0.010)
    assert sliced["latency_p95_s"] == pytest.approx(0.001)
    assert [c["p95"] for c in sliced["chunks"]] == pytest.approx([0.001, 0.010, 0.001, 0.001])


def test_median_chunk_takes_the_median_per_metric():
    chunks = [{"latency": 3.0, "rate": 10.0}, {"latency": 1.0, "rate": 8.0}, {"latency": 2.0, "rate": 9.0}]
    assert median_chunk(chunks) == {"latency": 2.0, "rate": 9.0}
    with pytest.raises(InsufficientSamples):
        median_chunk([])


def test_closed_loop_window_bounds_operations_in_flight():
    window = ClosedLoopWindow(3)
    peak = [0]
    in_flight = [0]
    lock = threading.Lock()
    timers = []

    def finish():
        with lock:
            in_flight[0] -= 1
        window.release()

    for _ in range(20):
        window.acquire()
        with lock:
            in_flight[0] += 1
            peak[0] = max(peak[0], in_flight[0])
        timer = threading.Timer(0.002, finish)
        timers.append(timer)
        timer.start()
    assert window.wait_idle(timeout=5.0)
    for timer in timers:
        timer.join(timeout=5.0)
        assert not timer.is_alive()
    assert peak[0] <= 3


# ----------------------------------------------------------------------
# /proc CPU reader
# ----------------------------------------------------------------------
def test_parse_proc_stat_handles_spaces_and_parentheses_in_the_name():
    ticks = os.sysconf("SC_CLK_TCK")
    fields = ["S", "1", "1", "1", "0", "-1", "4194560", "0", "0", "0", "0"]
    utime, stime = 3 * ticks, ticks // 2
    line = "4242 (odd) name (x)) " + " ".join(fields + [str(utime), str(stime), "0", "0"])
    assert parse_proc_stat(line) == pytest.approx(3.5, abs=1.0 / ticks)


def test_proc_cpu_seconds_tracks_this_process():
    start = proc_cpu_seconds(os.getpid())
    deadline = time.process_time() + 0.3
    while time.process_time() < deadline:
        sum(range(1000))
    used = proc_cpu_seconds(os.getpid()) - start
    # /proc counts in clock ticks; allow two ticks of quantisation either way.
    assert used == pytest.approx(0.3, abs=2.0 / os.sysconf("SC_CLK_TCK") + 0.05)


def test_proc_cpu_seconds_of_a_missing_process_is_none():
    assert proc_cpu_seconds(2**22 + 12345) is None
