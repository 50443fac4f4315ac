"""Measurement helpers: percentiles, due-time latency, process CPU, environment.

Nothing here imports ``repro``, so the helpers can be tested in isolation
(``perfbench/test_measure.py``); :func:`environment_record` only reads the
monitors it is given.
"""

from __future__ import annotations

import math
import os
import platform
import sys
import threading
import time
from typing import Callable, Dict, List, Mapping, Optional, Sequence

#: A percentile is reported only when at least this many samples lie beyond
#: it, so p95 needs 200 samples and p50 needs 20.
MIN_TAIL_SAMPLES = 10

#: An open-loop phase is flagged invalid when the generator's p95 lateness
#: exceeds this share of the latency p50 it measures: past that point the
#: numbers describe the generator, not the system under test.
MAX_LATE_SHARE = 0.25

#: Environment variables that set BLAS / OpenMP thread pools.
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


#: A run's measurement window is cut into chunks of this many seconds; each
#: timing metric is computed per chunk and the run reports its best chunk.
#: Other tenants of a shared host slow it down in episodes lasting seconds
#: that can cover most of a run, so the best chunk tracks the program while
#: a median chunk tracks how much of the run the neighbours were busy.
CHUNK_SECONDS = 0.5


class InsufficientSamples(ValueError):
    """Raised when a percentile has fewer than ``MIN_TAIL_SAMPLES`` beyond it."""


def min_samples_for(q: float, min_tail: int = MIN_TAIL_SAMPLES) -> int:
    """Smallest sample count with at least ``min_tail`` samples above ``q``."""
    if not 0.0 <= q < 100.0:
        raise ValueError("percentile must lie in [0, 100)")
    return int(math.ceil(min_tail * 100.0 / (100.0 - q) - 1e-9))


def percentile(samples: Sequence[float], q: float, min_tail: int = MIN_TAIL_SAMPLES) -> float:
    """The ``q``-th percentile of ``samples`` (linear interpolation between ranks).

    Raises :class:`InsufficientSamples` when fewer than ``min_tail`` samples
    lie beyond the requested rank, so a reported tail is never an
    extrapolation from a handful of points.
    """
    count = len(samples)
    if count < min_samples_for(q, min_tail):
        raise InsufficientSamples(
            f"p{q:g} needs {min_samples_for(q, min_tail)} samples, got {count}"
        )
    ordered = sorted(samples)
    position = (count - 1) * q / 100.0
    lower = int(math.floor(position))
    upper = min(lower + 1, count - 1)
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


def median(samples: Sequence[float]) -> float:
    """Median of a non-empty sample (no tail rule: any count is enough)."""
    if not samples:
        raise InsufficientSamples("median of an empty sample")
    ordered = sorted(samples)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return 0.5 * (ordered[middle - 1] + ordered[middle])


def median_chunk(chunks: Sequence[Mapping[str, float]]) -> Dict[str, float]:
    """Per metric, the median value over ``chunks``."""
    if not chunks:
        raise InsufficientSamples("no chunk was measured")
    return {name: median([chunk[name] for chunk in chunks]) for name in chunks[0]}


def best_chunk(chunks: Sequence[Mapping[str, float]], higher: Sequence[str] = ()) -> Dict[str, float]:
    """Per metric, the best value over ``chunks``: max for ``higher``, else min."""
    if not chunks:
        raise InsufficientSamples("no chunk was measured")
    return {
        name: (max if name in higher else min)(chunk[name] for chunk in chunks)
        for name in chunks[0]
    }


class DueTimeLedger:
    """Per-frame send/resolve times of an open-loop phase, keyed by due time.

    Latency is measured from the time a frame was *due*, not from when the
    generator managed to send it, so a stall that delays later sends is
    charged to the frames it delayed.  ``mark_done`` is called from future
    callbacks on other threads; each call writes its own list slot, which
    needs no lock.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.due: List[float] = []
        self.sent: List[float] = []
        self.done: List[Optional[float]] = []

    def record_send(self, due: float, frames: int, sent: Optional[float] = None) -> int:
        """Record ``frames`` frames due at ``due``; returns the first frame index."""
        first = len(self.due)
        stamp = self.clock() if sent is None else sent
        self.due.extend([due] * frames)
        self.sent.extend([stamp] * frames)
        self.done.extend([None] * frames)
        return first

    def mark_done(self, first: int, frames: int = 1, when: Optional[float] = None) -> None:
        stamp = self.clock() if when is None else when
        for index in range(first, first + frames):
            self.done[index] = stamp

    @property
    def num_frames(self) -> int:
        return len(self.due)

    def latencies(self) -> List[float]:
        """Due → resolved time of every resolved frame, in seconds."""
        return [done - due for due, done in zip(self.due, self.done) if done is not None]

    def lateness(self) -> List[float]:
        """Send − due time of every frame (how late the generator ran)."""
        return [sent - due for due, sent in zip(self.due, self.sent)]

    def latencies_by_chunk(self, start: float, width: float) -> List[List[float]]:
        """Resolved latencies grouped by the ``width``-second chunk of their due time."""
        chunks: Dict[int, List[float]] = {}
        for due, done in zip(self.due, self.done):
            if done is not None:
                chunks.setdefault(int((due - start) // width), []).append(done - due)
        return [chunks[key] for key in sorted(chunks)]

    def backlog_at(self, moment: float) -> int:
        """Frames sent by ``moment`` and not yet resolved at ``moment``."""
        return sum(
            1
            for sent, done in zip(self.sent, self.done)
            if sent <= moment and (done is None or done > moment)
        )


def due_schedule(start: float, rate: float, burst: int, duration: float) -> List[float]:
    """Due times of the bursts of an open loop at ``rate`` frames/s."""
    if rate <= 0 or burst <= 0 or duration <= 0:
        raise ValueError("rate, burst and duration must be positive")
    interval = burst / rate
    count = max(1, int(duration / interval))
    return [start + index * interval for index in range(count)]


def run_open_loop(
    ledger: DueTimeLedger,
    schedule: Sequence[float],
    send: Callable[[int, int], None],
    burst: int,
    sleep: Callable[[float], None] = time.sleep,
) -> None:
    """Send burst ``i`` at ``schedule[i]`` whether or not earlier ones resolved.

    ``send(i, first)`` submits burst ``i`` whose frames occupy ledger indices
    ``first .. first + burst - 1``; it must arrange for ``ledger.mark_done``
    to be called when they resolve.
    """
    clock = ledger.clock
    for index, due in enumerate(schedule):
        wait = due - clock()
        if wait > 0:
            sleep(wait)
        first = ledger.record_send(due, burst)
        send(index, first)


def open_loop_summary(
    ledger: DueTimeLedger, phase_end: float, chunk: Optional[float] = None
) -> Dict[str, object]:
    """Latency percentiles, generator lateness and end backlog of a phase.

    With ``chunk`` set, the latency percentiles are those of the best
    ``chunk``-second slice of due times that holds enough samples for a p95.
    ``chunks`` lists every slice's ``{"p50", "p95"}`` (seconds), so several
    phases can be summarised together with :func:`best_chunk`.
    """
    lateness = ledger.lateness()
    if chunk is None:
        slices = [ledger.latencies()]
    else:
        slices = [
            values
            for values in ledger.latencies_by_chunk(ledger.due[0], chunk)
            if len(values) >= min_samples_for(95)
        ] or [ledger.latencies()]
    chunks = [{"p50": percentile(v, 50), "p95": percentile(v, 95)} for v in slices]
    best = best_chunk(chunks)
    summary: Dict[str, object] = {
        "frames": float(ledger.num_frames),
        "latency_p50_s": best["p50"],
        "latency_p95_s": best["p95"],
        "late_p95_s": max(0.0, percentile(lateness, 95)),
        "backlog_end": float(ledger.backlog_at(phase_end)),
        "chunks": chunks,
    }
    summary["valid"] = float(summary["late_p95_s"] <= MAX_LATE_SHARE * summary["latency_p50_s"])
    return summary


class ClosedLoopWindow:
    """Keep at most ``window`` operations in flight (a closed-loop client).

    ``acquire`` blocks until a slot frees; ``release`` is called from the
    completion callback and counts the slots returned so far in
    :attr:`released`.  ``wait_idle`` blocks until nothing is in flight.
    """

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ValueError("window must be at least 1")
        self._slots = threading.Semaphore(window)
        self._idle = threading.Condition()
        self._in_flight = 0
        self.released = 0

    def acquire(self, count: int = 1) -> None:
        for _ in range(count):
            self._slots.acquire()
        with self._idle:
            self._in_flight += count

    def release(self, count: int = 1) -> None:
        with self._idle:
            self._in_flight -= count
            self.released += count
            if self._in_flight == 0:
                self._idle.notify_all()
        for _ in range(count):
            self._slots.release()

    def wait_idle(self, timeout: float) -> bool:
        with self._idle:
            return self._idle.wait_for(lambda: self._in_flight == 0, timeout)


def parse_proc_stat(text: str) -> float:
    """User + system CPU seconds from the text of ``/proc/<pid>/stat``.

    The command name (field 2) is parenthesised and may itself contain
    spaces or parentheses, so fields are counted after the *last* ``)``.
    """
    tail = text[text.rindex(")") + 2 :].split()
    # tail[0] is field 3 (state); utime and stime are fields 14 and 15.
    utime, stime = int(tail[11]), int(tail[12])
    return (utime + stime) / os.sysconf("SC_CLK_TCK")


def proc_cpu_seconds(pid: int) -> Optional[float]:
    """CPU seconds used so far by process ``pid``; ``None`` if unreadable."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return parse_proc_stat(handle.read())
    except (OSError, ValueError, IndexError):
        return None


def children_cpu_seconds(pids: Sequence[int]) -> float:
    """Summed CPU seconds of the given child processes (unreadable ones skipped)."""
    return sum(value for value in map(proc_cpu_seconds, pids) if value is not None)


def environment_record(
    monitors: Optional[Mapping[str, object]] = None,
    star_lp_backend: Optional[str] = None,
) -> Dict[str, object]:
    """What ran: cores, interpreter, library versions, effective back-ends.

    A silent back-end fallback (``compiled`` degrading to ``numpy`` without
    numba) would otherwise read as a regression; the record names the
    back-end that actually executed for every monitor.
    """
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        import numba  # noqa: F401

        have_numba = True
    except ImportError:
        have_numba = False
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    record: Dict[str, object] = {
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "numba": have_numba,
        "blas_env": {key: os.environ.get(key) for key in BLAS_ENV},
    }
    if star_lp_backend is not None:
        record["star_lp_backend"] = star_lp_backend
    if monitors:
        record["matcher_backends"] = {
            name: effective_matcher_backend(monitor) for name, monitor in monitors.items()
        }
    return record


def effective_matcher_backend(monitor) -> str:
    """Name of the matcher kernel that actually executes for ``monitor``."""
    patterns = getattr(monitor, "patterns", None)
    if patterns is None:
        return "none (envelope monitor)"
    return patterns._matcher.kernel().effective_name
