"""Tests of the tracer: span accounting, wrapper install and exact restore."""

import json
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench import tracing
from perfbench.tracing import Tracer


class Base:
    def work(self, value):
        return value + 1


class Child(Base):
    def own(self, value):
        return self.work(value) * 2


def _attributes(owner, names):
    return {name: vars(owner).get(name, "<absent>") for name in names}


# ----------------------------------------------------------------------
# span accounting
# ----------------------------------------------------------------------
def test_self_time_excludes_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 10.0])  # outer start, inner start/end, outer end
    tracer = Tracer(clock=lambda: next(ticks))
    inner = lambda: None  # noqa: E731
    tracer.call("outer", lambda: tracer.call("inner", inner, (), {}), (), {})
    assert tracer.total("outer") == 10.0
    assert tracer.self_time("outer") == 8.0
    assert tracer.total("inner") == 2.0
    assert tracer.self_time("inner") == 2.0


def test_reentrant_spans_of_one_name_are_counted_once():
    tracer = Tracer()

    def recurse(depth):
        if depth:
            return tracer.call("same", recurse, (depth - 1,), {})
        return "done"

    assert tracer.call("same", recurse, (3,), {}) == "done"
    assert tracer.calls("same") == 1


def test_span_is_recorded_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.call("boom", boom, (), {})
    assert tracer.calls("boom") == 1
    assert tracer._stack() == []


def test_merge_adds_exported_tables():
    first, second = Tracer(), Tracer()
    first.call("a", lambda: None, (), {})
    second.call("a", lambda: None, (), {})
    second.count("probes", 5)
    first.merge(json.loads(json.dumps(second.export())))
    assert first.calls("a") == 2
    assert first.counter("probes") == 5


# ----------------------------------------------------------------------
# install and restore
# ----------------------------------------------------------------------
def test_wrap_and_restore_owned_and_inherited_methods():
    before_base = _attributes(Base, ["work"])
    before_child = _attributes(Child, ["work", "own"])
    tracer = Tracer()
    tracer.wrap(Child, "work", "child.work")  # inherited from Base
    tracer.wrap(Child, "own", "child.own")  # defined on Child
    assert Child().own(1) == 4
    assert tracer.calls("child.own") == 1 and tracer.calls("child.work") == 1
    assert Base().work(1) == 2 and tracer.calls("child.work") == 1
    tracer.restore()
    assert _attributes(Base, ["work"]) == before_base
    assert _attributes(Child, ["work", "own"]) == before_child


def test_wrap_and_restore_module_functions():
    module = types.ModuleType("fake_layer")
    module.encode = lambda payload: payload * 2
    original = module.encode
    tracer = Tracer()
    seen = []
    tracer.wrap(module, "encode", "fake.encode", observe=lambda a, k, r: seen.append(r))
    assert module.encode(3) == 6 and seen == [6]
    tracer.restore()
    assert module.encode is original


@pytest.fixture(scope="module")
def small_track():
    from perfbench import workloads
    from repro.core.pipeline import build_track_workload

    workload = build_track_workload(num_samples=120, epochs=2, seed=0)
    frames = np.vstack(
        [workload.in_odd_eval.inputs] + [d.inputs for d in workload.out_of_odd_eval.values()]
    )
    labels = np.arange(len(frames)) >= len(workload.in_odd_eval.inputs)
    return workloads.Track(workload.network, workload.train.inputs, frames, labels, seed=0)


def _patched_owners():
    from repro.bdd.patterns import PatternSet
    from repro.monitors import perturbation
    from repro.monitors.base import ActivationMonitor
    from repro.nn.network import Sequential
    from repro.runtime.codec import PatternCodec, WordCodec
    from repro.runtime.engine import BatchScoringEngine
    from repro.runtime.kernels import NumpyMatcherKernel
    from repro.runtime.matcher import PackedMatcher
    from repro.service.streaming import MicroBatcher, StreamingScorer
    from repro.serving import protocol
    from repro.serving.pool import WorkerPool
    from repro.serving.ring import SharedFrameRing
    from repro.symbolic.star_lp import StackedStarLPBackend

    owners = [
        Sequential, ActivationMonitor, BatchScoringEngine, PatternCodec, WordCodec,
        PackedMatcher, NumpyMatcherKernel, PatternSet, perturbation, StackedStarLPBackend,
        StreamingScorer, MicroBatcher, protocol, WorkerPool, SharedFrameRing,
    ]
    return {owner: dict(vars(owner)) for owner in owners}


def test_layer_wrappers_keep_verdicts_and_restore_exactly(small_track):
    from perfbench import workloads
    from repro.runtime.engine import BatchScoringEngine

    monitors = workloads.fit_scoring_monitors(small_track, ("minmax", "boolean", "interval"))
    engine = BatchScoringEngine(small_track.network)
    batches = [small_track.frames[i : i + 32] for i in range(0, len(small_track.frames), 32)]
    plain = [engine.score_batch(monitors, batch, use_cache=False).warns for batch in batches]
    before = _patched_owners()

    tracer = Tracer()
    try:
        tracing.install_scoring_wrappers(tracer)
        tracing.install_fit_wrappers(tracer)
        tracing.install_service_wrappers(tracer)
        with_trace = [
            engine.score_batch(monitors, batch, use_cache=False).warns for batch in batches
        ]
        refit = workloads.fit_scoring_monitors(small_track, ("boolean",))
    finally:
        tracer.restore()

    for untraced, traced_warns in zip(plain, with_trace):
        assert untraced.keys() == traced_warns.keys()
        for name in untraced:
            np.testing.assert_array_equal(untraced[name], traced_warns[name])
    np.testing.assert_array_equal(
        refit["boolean_rob"].warn_batch(small_track.frames),
        monitors["boolean_rob"].warn_batch(small_track.frames),
    )
    assert tracer.calls("runtime.engine") == len(batches)
    assert tracer.calls("nn.activations") >= len(batches)
    assert tracer.calls("monitors.interval_rob") == len(batches)
    assert tracer.calls("symbolic.bounds_box") == 1
    assert tracer.calls("bdd.insert") >= 2
    assert tracer.counter("runtime.probes") > 0
    assert tracer.counter("bdd.materialisations") == 0
    after = _patched_owners()
    for owner, attributes in before.items():
        assert after[owner] == attributes, owner


def test_serving_wrappers_restore_exactly():
    before = _patched_owners()
    tracer = Tracer()
    tracing.install_serving_wrappers(tracer)
    tracer.restore()
    assert _patched_owners() == before


def test_catalogue_matches_benchmark_json():
    from perfbench import run

    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
