"""Behavioural tests of the threaded streaming scorer.

Thread interactions are made deterministic by choosing policies where only
one trigger can fire (e.g. a huge ``max_latency`` so only size can flush, or
a huge ``max_batch`` so only the deadline can) and asserting on the stats'
flush-reason counters; generous future timeouts keep the suite robust on
slow machines.
"""

import numpy as np
import pytest

from repro.exceptions import (
    ConfigurationError,
    NotFittedError,
    ServiceClosedError,
    ServiceOverloadedError,
    ShapeError,
)
from repro.monitors.minmax import MinMaxMonitor
from repro.nn.network import mlp
from repro.service import BatchPolicy, StreamingScorer

TIMEOUT = 10.0  # generous per-future timeout; normal resolution is ms


def _scorer(network, monitors, **policy_kwargs) -> StreamingScorer:
    scorer = StreamingScorer(network, policy=BatchPolicy(**policy_kwargs))
    for name, monitor in monitors.items():
        scorer.register(name, monitor)
    return scorer


def _assert_every_frame_accounted(stats) -> None:
    """After close, each submitted frame was scored, failed or cancelled."""
    assert stats.in_flight() == 0
    snapshot = stats.snapshot()
    assert snapshot["frames_submitted"] == (
        snapshot["frames_scored"]
        + snapshot["frames_failed"]
        + snapshot["frames_cancelled"]
    )


class TestLifecycle:
    def test_submit_requires_running_worker(self, tiny_network, fitted_monitors):
        scorer = _scorer(tiny_network, fitted_monitors)
        with pytest.raises(ServiceClosedError):
            scorer.submit(np.zeros(6))

    def test_submit_after_close_raises(self, tiny_network, fitted_monitors):
        scorer = _scorer(tiny_network, fitted_monitors).start()
        scorer.close()
        with pytest.raises(ServiceClosedError):
            scorer.submit(np.zeros(6))

    def test_close_is_idempotent_and_restart_refused(
        self, tiny_network, fitted_monitors
    ):
        scorer = _scorer(tiny_network, fitted_monitors).start()
        scorer.close()
        scorer.close()
        with pytest.raises(ServiceClosedError):
            scorer.start()

    def test_context_manager_starts_and_drains(
        self, tiny_network, fitted_monitors, probe_frames
    ):
        with _scorer(
            tiny_network, fitted_monitors, max_batch=1000, max_latency=60.0
        ) as scorer:
            futures = scorer.submit_many(probe_frames)
        # Exiting the context drains: every future resolved without waiting
        # out the 60 s deadline.
        results = [future.result(timeout=TIMEOUT) for future in futures]
        assert len(results) == probe_frames.shape[0]
        assert scorer.stats.snapshot()["flush_reasons"]["drain"] >= 1


class TestFlushTriggers:
    def test_flush_on_size(self, tiny_network, fitted_monitors, probe_frames):
        with _scorer(
            tiny_network, fitted_monitors, max_batch=8, max_latency=60.0
        ) as scorer:
            futures = scorer.submit_many(probe_frames[:8])
            for future in futures:
                future.result(timeout=TIMEOUT)
            stats = scorer.stats.snapshot()
        # Resolution long before the 60 s deadline proves a size flush.
        assert stats["flush_reasons"]["size"] >= 1
        assert stats["flush_reasons"]["deadline"] == 0
        assert stats["max_batch_size"] == 8

    def test_flush_on_deadline(self, tiny_network, fitted_monitors, probe_frames):
        with _scorer(
            tiny_network, fitted_monitors, max_batch=1000, max_latency=0.05
        ) as scorer:
            futures = scorer.submit_many(probe_frames[:3])
            for future in futures:
                future.result(timeout=TIMEOUT)
            stats = scorer.stats.snapshot()
        # Far fewer frames than max_batch: only the deadline can have fired.
        assert stats["flush_reasons"]["deadline"] >= 1
        assert stats["flush_reasons"]["size"] == 0

    def test_drain_on_shutdown(self, tiny_network, fitted_monitors, probe_frames):
        scorer = _scorer(
            tiny_network, fitted_monitors, max_batch=1000, max_latency=60.0
        ).start()
        futures = scorer.submit_many(probe_frames)
        scorer.close(drain=True)
        results = [future.result(timeout=TIMEOUT) for future in futures]
        assert len(results) == probe_frames.shape[0]
        stats = scorer.stats.snapshot()
        assert stats["frames_scored"] == probe_frames.shape[0]
        assert stats["flush_reasons"]["drain"] >= 1
        _assert_every_frame_accounted(scorer.stats)

    def test_close_without_drain_cancels_pending(
        self, tiny_network, fitted_monitors, probe_frames
    ):
        scorer = _scorer(
            tiny_network, fitted_monitors, max_batch=1000, max_latency=60.0
        ).start()
        futures = scorer.submit_many(probe_frames)
        scorer.close(drain=False)
        stats = scorer.stats.snapshot()
        cancelled = [future for future in futures if future.cancelled()]
        assert len(cancelled) == stats["frames_cancelled"]
        assert len(cancelled) >= 1
        _assert_every_frame_accounted(scorer.stats)


class TestResults:
    def test_results_match_offline_warn_batch(
        self, tiny_network, fitted_monitors, probe_frames
    ):
        with _scorer(
            tiny_network, fitted_monitors, max_batch=16, max_latency=0.002
        ) as scorer:
            futures = [scorer.submit(frame) for frame in probe_frames]
            results = [future.result(timeout=TIMEOUT) for future in futures]
        for name, monitor in fitted_monitors.items():
            streamed = np.array([result.warns[name] for result in results])
            np.testing.assert_array_equal(streamed, monitor.warn_batch(probe_frames))

    def test_want_verdicts_carries_diagnostics(
        self, tiny_network, fitted_monitors, probe_frames
    ):
        scorer = StreamingScorer(
            tiny_network,
            policy=BatchPolicy(max_batch=16, max_latency=0.002),
            want_verdicts=True,
        )
        for name, monitor in fitted_monitors.items():
            scorer.register(name, monitor)
        with scorer:
            future = scorer.submit(probe_frames[0])
            result = future.result(timeout=TIMEOUT)
        assert set(result.verdicts) == set(fitted_monitors)
        verdict = result.verdicts["minmax"]
        assert verdict.warn == result.warns["minmax"]
        direct = fitted_monitors["minmax"].verdict(probe_frames[0])
        assert verdict.warn == direct.warn

    def test_any_warn_aggregates(self, tiny_network, fitted_monitors, probe_frames):
        with _scorer(
            tiny_network, fitted_monitors, max_batch=16, max_latency=0.002
        ) as scorer:
            futures = scorer.submit_many(probe_frames)
            results = [future.result(timeout=TIMEOUT) for future in futures]
        for result in results:
            assert result.any_warn == any(result.warns.values())


class TestProducerBufferSafety:
    def test_queue_owns_the_frame_data(self, tiny_network, fitted_monitors, rng):
        """Overwriting the producer's buffer after submit() must not change
        the frame the worker eventually scores."""
        frame = rng.uniform(-2.0, 2.0, size=6)
        original = frame.copy()
        scorer = _scorer(
            tiny_network, fitted_monitors, max_batch=1000, max_latency=60.0
        ).start()
        future = scorer.submit(frame)
        frame[:] = 99.0  # producer refills its sensor buffer immediately
        scorer.close(drain=True)  # only now does the worker flush
        result = future.result(timeout=TIMEOUT)
        for name, monitor in fitted_monitors.items():
            assert result.warns[name] == bool(monitor.warn_batch(original[None, :])[0])

    def test_done_callback_may_reenter_the_scorer_on_cancel(
        self, tiny_network, fitted_monitors, probe_frames
    ):
        """close(drain=False) cancels futures outside the scorer lock, so a
        done-callback that calls back into the scorer cannot deadlock."""
        import threading

        scorer = _scorer(
            tiny_network, fitted_monitors, max_batch=1000, max_latency=60.0
        ).start()
        future = scorer.submit(probe_frames[0])
        reentered = []

        def callback(f):
            try:
                scorer.submit(probe_frames[1])  # re-enters the scorer lock
            except ServiceClosedError:
                reentered.append(True)

        future.add_done_callback(callback)
        closer = threading.Thread(target=lambda: scorer.close(drain=False))
        closer.start()
        closer.join(TIMEOUT)
        assert not closer.is_alive(), "close(drain=False) deadlocked"
        assert future.cancelled()
        assert reentered == [True]


class TestExceptionPropagation:
    class ExplodingMonitor:
        is_fitted = True

        def warn_batch(self, inputs):
            raise RuntimeError("monitor exploded")

    def test_scoring_failure_lands_in_every_future(
        self, tiny_network, fitted_monitors, probe_frames
    ):
        with _scorer(
            tiny_network, fitted_monitors, max_batch=4, max_latency=0.002
        ) as scorer:
            scorer.register("exploding", self.ExplodingMonitor())
            futures = scorer.submit_many(probe_frames[:4])
            for future in futures:
                with pytest.raises(RuntimeError, match="monitor exploded"):
                    future.result(timeout=TIMEOUT)
            # The worker survives the failed batch: after retiring the bad
            # monitor, fresh submissions score normally.
            scorer.unregister("exploding")
            result = scorer.submit(probe_frames[0]).result(timeout=TIMEOUT)
            assert set(result.warns) == set(fitted_monitors)
            stats = scorer.stats.snapshot()
        assert stats["frames_failed"] == 4
        assert stats["frames_scored"] >= 1


class TestValidation:
    def test_register_rejects_unfitted(self, tiny_network, fitted_monitors):
        scorer = _scorer(tiny_network, fitted_monitors)
        with pytest.raises(NotFittedError):
            scorer.register("unfitted", MinMaxMonitor(tiny_network, 4))

    def test_register_rejects_duplicate_names(self, tiny_network, fitted_monitors):
        scorer = _scorer(tiny_network, fitted_monitors)
        with pytest.raises(ConfigurationError):
            scorer.register("minmax", fitted_monitors["minmax"])

    def test_register_rejects_foreign_network_by_default(
        self, tiny_network, tiny_inputs, fitted_monitors
    ):
        other_network = mlp(6, [10, 8], 3, activation="relu", seed=99)
        foreign = MinMaxMonitor(other_network, 4).fit(tiny_inputs)
        scorer = _scorer(tiny_network, fitted_monitors)
        with pytest.raises(ConfigurationError, match="different network"):
            scorer.register("foreign", foreign)
        scorer.register("foreign", foreign, allow_foreign=True)
        assert "foreign" in scorer.registry

    def test_register_rejects_objects_without_batched_api(
        self, tiny_network, fitted_monitors
    ):
        scorer = _scorer(tiny_network, fitted_monitors)
        with pytest.raises(ConfigurationError, match="warn_batch"):
            scorer.register("bogus", object())

    def test_unregister_unknown_name(self, tiny_network, fitted_monitors):
        scorer = _scorer(tiny_network, fitted_monitors)
        with pytest.raises(ConfigurationError):
            scorer.unregister("nope")

    def test_submit_rejects_wrong_width(self, tiny_network, fitted_monitors):
        with _scorer(tiny_network, fitted_monitors) as scorer:
            with pytest.raises(ShapeError):
                scorer.submit(np.zeros(5))

    def test_engine_must_wrap_host_network(self, tiny_network):
        from repro.runtime.engine import BatchScoringEngine

        other = mlp(6, [10, 8], 3, activation="relu", seed=98)
        with pytest.raises(ConfigurationError):
            StreamingScorer(tiny_network, engine=BatchScoringEngine(other))


class TestBackpressure:
    def test_overload_raises_instead_of_queueing(
        self, tiny_network, fitted_monitors, probe_frames
    ):
        scorer = _scorer(
            tiny_network,
            fitted_monitors,
            max_batch=4,
            max_latency=60.0,
            max_pending=4,
        )
        # Worker deliberately not started: the queue can only grow.
        scorer._worker = type(
            "FakeWorker", (), {"is_alive": staticmethod(lambda: True)}
        )()
        scorer.submit_many(probe_frames[:4])
        with pytest.raises(ServiceOverloadedError):
            scorer.submit(probe_frames[4])

    def test_one_burst_cannot_blow_past_the_bound(
        self, tiny_network, fitted_monitors, probe_frames
    ):
        scorer = _scorer(
            tiny_network,
            fitted_monitors,
            max_batch=4,
            max_latency=60.0,
            max_pending=4,
        )
        scorer._worker = type(
            "FakeWorker", (), {"is_alive": staticmethod(lambda: True)}
        )()
        # A single oversized burst is rejected atomically: nothing enqueued.
        with pytest.raises(ServiceOverloadedError):
            scorer.submit_many(probe_frames[:10])
        assert len(scorer._batcher) == 0
        assert scorer.stats.snapshot()["frames_submitted"] == 0
