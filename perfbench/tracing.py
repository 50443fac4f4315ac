"""Span tracing by wrapping the public functions of each ``repro`` layer.

The benchmark measures its end-to-end metrics with tracing off.  A traced
run installs wrappers around the calls into each layer (``nn``,
``monitors``, ``runtime``, ``bdd``, ``symbolic``, ``service``, ``serving``),
measures again, and restores the original functions.  Nothing in ``repro``
is edited: a wrapper is an attribute swap on a class or module that
:meth:`Tracer.restore` undoes exactly.

Spans are aggregated in memory per name — count, total time and *self*
time (total minus the time covered by child spans on the same thread) — and
read out when the workload ends.  A span nested inside a span of the same
name (a re-entrant call) is folded into the outer one, so totals never
count the same interval twice.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Environment variable naming the directory a traced worker process writes
#: its span table to when it exits.
WORKER_TRACE_ENV = "PERFBENCH_WORKER_TRACE_DIR"

#: ``ActivationMonitor.kind`` → per-layer metric stem.
MONITOR_SPANS = {
    "minmax": "monitors.minmax_std",
    "robust_minmax": "monitors.minmax_rob",
    "boolean_pattern": "monitors.boolean_std",
    "robust_boolean_pattern": "monitors.boolean_rob",
    "interval_pattern": "monitors.interval_std",
    "robust_interval_pattern": "monitors.interval_rob",
}


class SpanStats:
    __slots__ = ("count", "total", "self_time")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Aggregating span recorder plus the attribute patches that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: Dict[str, SpanStats] = {}
        self.counters: Dict[str, float] = {}
        #: (time, futures) of every micro-batch taken by a batcher.
        self.takes: List[Tuple[float, list]] = []
        self._patches: List[Tuple[object, str, bool, object]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    def _record(self, name: str, duration: float, self_time: float) -> None:
        with self._lock:
            stats = self.spans.get(name)
            if stats is None:
                stats = self.spans[name] = SpanStats()
            stats.count += 1
            stats.total += duration
            stats.self_time += self_time

    def call(self, name: str, function, args, kwargs):
        """Run ``function`` inside a span called ``name``."""
        stack = self._stack()
        if any(entry[0] == name for entry in stack):
            return function(*args, **kwargs)
        entry = [name, 0.0]
        stack.append(entry)
        start = self.clock()
        try:
            return function(*args, **kwargs)
        finally:
            duration = self.clock() - start
            stack.pop()
            if stack:
                stack[-1][1] += duration
            self._record(name, duration, duration - entry[1])

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner,
        attribute: str,
        name,
        observe: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attribute`` by a wrapper that records a span.

        ``name`` is a span name or a callable ``(args, kwargs) -> name``;
        ``observe(args, kwargs, result)`` runs after the call, outside the
        span, to count work (probes, hits, ...).
        """
        original = getattr(owner, attribute)
        owned = attribute in vars(owner)
        namer = name if callable(name) else (lambda args, kwargs, _name=name: _name)
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer.call(namer(args, kwargs), original, args, kwargs)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attribute)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        # Restore puts back the raw attribute object; an inherited one is
        # deleted again instead of pinning the base-class function onto
        # the subclass.
        self._patches.append((owner, attribute, owned, vars(owner).get(attribute)))
        setattr(owner, attribute, wrapper)

    def restore(self) -> None:
        """Undo every patch, newest first, leaving the owners as they were."""
        while self._patches:
            owner, attribute, owned, original = self._patches.pop()
            if owned:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    # ------------------------------------------------------------------
    # read-out
    # ------------------------------------------------------------------
    def export(self) -> Dict[str, object]:
        with self._lock:
            return {
                "spans": {
                    name: {"count": s.count, "total_s": s.total, "self_s": s.self_time}
                    for name, s in self.spans.items()
                },
                "counters": dict(self.counters),
            }

    def merge(self, exported: Dict[str, object]) -> None:
        """Fold another tracer's :meth:`export` (e.g. a worker's) into this one."""
        with self._lock:
            for name, data in exported.get("spans", {}).items():
                stats = self.spans.get(name)
                if stats is None:
                    stats = self.spans[name] = SpanStats()
                stats.count += int(data["count"])
                stats.total += float(data["total_s"])
                stats.self_time += float(data["self_s"])
            for name, value in exported.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0.0) + float(value)

    def total(self, name: str) -> float:
        stats = self.spans.get(name)
        return stats.total if stats is not None else 0.0

    def self_time(self, name: str) -> float:
        stats = self.spans.get(name)
        return stats.self_time if stats is not None else 0.0

    def calls(self, name: str) -> int:
        stats = self.spans.get(name)
        return stats.count if stats is not None else 0

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)


# ----------------------------------------------------------------------
# the layer boundaries
# ----------------------------------------------------------------------
def install_scoring_wrappers(tracer: Tracer) -> None:
    """nn, monitors, runtime and bdd: everything a ``score_batch`` call crosses."""
    from repro.bdd.patterns import PatternSet
    from repro.monitors.base import ActivationMonitor
    from repro.nn.network import Sequential
    from repro.runtime.codec import PatternCodec, WordCodec
    from repro.runtime.engine import BatchScoringEngine
    from repro.runtime.kernels import resolve_matcher_backend
    from repro.runtime.matcher import PackedMatcher

    tracer.wrap(Sequential, "activations", "nn.activations")
    tracer.wrap(
        ActivationMonitor,
        "warn_batch_from_layer",
        lambda args, kwargs: MONITOR_SPANS.get(args[0].kind, "monitors.other"),
    )
    tracer.wrap(BatchScoringEngine, "score_batch", "runtime.engine")
    tracer.wrap(PatternCodec, "codes", "runtime.codec_codes")
    tracer.wrap(WordCodec, "pack_codes", "runtime.pack_codes")

    def count_probes(args, kwargs, result):
        tracer.count("runtime.probes", len(result))
        tracer.count("runtime.hits", int(result.sum()))

    tracer.wrap(PackedMatcher, "contains_packed", "runtime.matcher", observe=count_probes)
    kernel_class = type(resolve_matcher_backend(None))
    for tier in ("exact", "ternary", "ranges"):

        def count_tier(args, kwargs, result, _tier=tier):
            tracer.count(f"runtime.tier_{_tier}_probes", len(result))

        tracer.wrap(kernel_class, f"match_{tier}", f"runtime.tier_{tier}", observe=count_tier)
    for method in (
        "add_word",
        "add_patterns",
        "add_ternary_word",
        "add_ternary_patterns",
        "add_code_sets",
        "add_range_patterns",
    ):
        tracer.wrap(PatternSet, method, "bdd.insert")

    def ensure_name(args, kwargs):
        # Only a deferred set actually replays its mirror into the BDD.
        if args[0]._bdd_deferred:
            tracer.count("bdd.materialisations")
            return "bdd.materialise"
        return "bdd.ensure"

    tracer.wrap(PatternSet, "_ensure_bdd", ensure_name)


def install_fit_wrappers(tracer: Tracer) -> None:
    """symbolic bound propagation, the star-LP tier and the robust codec."""
    from repro.monitors import perturbation
    from repro.runtime.codec import PatternCodec
    from repro.symbolic.star_lp import resolve_star_lp_backend

    tracer.wrap(
        perturbation,
        "perturbation_bounds_batch",
        lambda args, kwargs: f"symbolic.bounds_{kwargs.get('method', 'box')}",
    )
    tracer.wrap(type(resolve_star_lp_backend(None)), "bounds_many", "symbolic.star_lp")
    tracer.wrap(PatternCodec, "bound_codes", "runtime.bound_codes")
    tracer.wrap(PatternCodec, "ternary_planes", "runtime.ternary_planes")


def install_service_wrappers(tracer: Tracer) -> None:
    """The in-process front end: submit and the batcher's take."""
    from repro.service.streaming import MicroBatcher, StreamingScorer

    tracer.wrap(StreamingScorer, "submit_many", "service.submit")
    _wrap_take(tracer, MicroBatcher)


def install_serving_wrappers(tracer: Tracer) -> None:
    """The socket stack: wire codec, pool submit and the shared-memory ring."""
    from repro.serving import protocol
    from repro.serving.pool import WorkerPool
    from repro.serving.ring import SharedFrameRing
    from repro.service.streaming import MicroBatcher

    tracer.wrap(protocol, "encode_score_request", "serving.encode_request")
    tracer.wrap(protocol, "decode_score_request", "serving.decode_request")
    tracer.wrap(protocol, "encode_result", "serving.encode_result")
    tracer.wrap(protocol, "decode_result", "serving.decode_result")
    tracer.wrap(WorkerPool, "submit_many", "serving.pool_submit")
    tracer.wrap(SharedFrameRing, "write", "serving.ring_write")
    _wrap_take(tracer, MicroBatcher)


def _wrap_take(tracer: Tracer, batcher_class) -> None:
    def record_take(args, kwargs, result):
        if result:
            futures = [request.future for request in result]
            with tracer._lock:
                tracer.takes.append((tracer.clock(), futures))

    tracer.wrap(batcher_class, "take", "service.take", observe=record_take)


# ----------------------------------------------------------------------
# worker processes
# ----------------------------------------------------------------------
def traced_worker_main(worker_id, config, task_queue, result_queue) -> None:
    """``repro.serving.worker.worker_main`` with the scoring wrappers installed.

    Runs in a spawned worker process.  When the worker stops, its span
    table is written to ``$PERFBENCH_WORKER_TRACE_DIR/worker-<pid>.json``
    for the parent to merge.
    """
    from repro.serving.worker import worker_main

    tracer = Tracer()
    install_scoring_wrappers(tracer)
    try:
        worker_main(worker_id, config, task_queue, result_queue)
    finally:
        tracer.restore()
        directory = os.environ.get(WORKER_TRACE_ENV)
        if directory:
            path = os.path.join(directory, f"worker-{os.getpid()}.json")
            with open(path, "w") as handle:
                json.dump(tracer.export(), handle)


def merge_worker_traces(tracer: Tracer, directory: str) -> int:
    """Merge every worker span table in ``directory``; returns how many."""
    merged = 0
    for entry in sorted(os.listdir(directory)):
        if entry.startswith("worker-") and entry.endswith(".json"):
            with open(os.path.join(directory, entry)) as handle:
                tracer.merge(json.load(handle))
            merged += 1
    return merged
