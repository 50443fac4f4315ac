"""Worker pool tests: adaptive batching (fast) and real process pools (slow).

The :class:`AdaptiveBatcher` tests are clock-free and run in tier-1.  The
``slow``-marked classes spawn actual worker processes from the session
deployment bundle — verdict bit-parity with the offline monitors, crash
recovery without frame loss, and fully clean shutdown are the acceptance
criteria of the CI ``service-e2e`` leg.
"""

import multiprocessing
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import (
    ConfigurationError,
    ServiceClosedError,
    ServiceOverloadedError,
    ShapeError,
    WorkerCrashError,
)
from repro.service import BatchPolicy
from repro.service.streaming import FrameRequest
from repro.serving import AdaptiveBatcher, WorkerPool


class TestAdaptiveBatcher:
    def make(self, max_batch=8, max_latency=0.01):
        return AdaptiveBatcher(BatchPolicy(max_batch=max_batch, max_latency=max_latency))

    def put(self, batcher, count, at=0.0):
        for _ in range(count):
            batcher.append(FrameRequest(frame=np.zeros(4), enqueued_at=at))

    def test_empty_queue_has_no_deadline(self):
        assert self.make().deadline() is None

    def test_single_frame_keeps_almost_full_latency(self):
        batcher = self.make(max_batch=8, max_latency=0.01)
        self.put(batcher, 1, at=100.0)
        # one of eight pending → deadline shrinks by exactly 1/8 of the bound
        assert batcher.deadline() == pytest.approx(100.0 + 0.01 * (1 - 1 / 8))

    def test_deadline_shrinks_monotonically_with_depth(self):
        batcher = self.make(max_batch=8, max_latency=0.01)
        deadlines = []
        for _ in range(7):
            self.put(batcher, 1, at=100.0)
            deadlines.append(batcher.deadline())
        assert deadlines == sorted(deadlines, reverse=True)

    def test_full_queue_shrinks_to_zero_extra_wait(self):
        batcher = self.make(max_batch=4, max_latency=0.01)
        self.put(batcher, 4, at=100.0)
        assert batcher.deadline() == pytest.approx(100.0)

    def test_depth_beyond_max_batch_clamps(self):
        batcher = self.make(max_batch=4, max_latency=0.01)
        self.put(batcher, 12, at=100.0)
        assert batcher.deadline() == pytest.approx(100.0)

    def test_flush_reason_size(self):
        batcher = self.make(max_batch=2)
        self.put(batcher, 2, at=100.0)
        assert batcher.flush_reason(100.0) == "size"

    def test_flush_reason_adaptive_before_nominal_deadline(self):
        batcher = self.make(max_batch=8, max_latency=0.01)
        self.put(batcher, 4, at=100.0)
        # adaptive deadline passed, nominal (enqueued_at + max_latency) not
        now = 100.0 + 0.01 * (1 - 4 / 8) + 1e-6
        assert batcher.ready(now)
        assert batcher.flush_reason(now) == "adaptive"

    def test_flush_reason_deadline_after_nominal_deadline(self):
        batcher = self.make(max_batch=8, max_latency=0.01)
        self.put(batcher, 1, at=100.0)
        assert batcher.flush_reason(100.02) == "deadline"


def _assert_every_frame_accounted(stats) -> None:
    """After close, each submitted frame was scored, failed or cancelled."""
    assert stats.in_flight() == 0
    snapshot = stats.snapshot()
    assert snapshot["frames_submitted"] == (
        snapshot["frames_scored"]
        + snapshot["frames_failed"]
        + snapshot["frames_cancelled"]
    )


def wait_for(predicate, timeout=30.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.mark.slow
class TestWorkerPoolScoring:
    @pytest.fixture(scope="class")
    def pool(self, deployment_bundle):
        with WorkerPool(
            deployment_bundle,
            num_workers=2,
            policy=BatchPolicy(max_batch=16, max_latency=0.002),
        ) as running:
            yield running

    def test_two_workers_boot(self, pool):
        assert wait_for(lambda: pool.num_workers == 2)
        assert pool.monitor_names == ("boolean", "minmax")

    def test_verdicts_bit_identical_to_offline(
        self, pool, serving_monitors, probe_frames
    ):
        results = [future.result(60) for future in pool.submit_many(probe_frames)]
        for name, monitor in serving_monitors.items():
            remote = np.array([result.warns[name] for result in results])
            np.testing.assert_array_equal(remote, monitor.warn_batch(probe_frames))

    def test_single_frame_submit(self, pool, serving_monitors, rng):
        frame = rng.normal(size=6)
        result = pool.submit(frame).result(60)
        for name, monitor in serving_monitors.items():
            assert result.warns[name] == bool(monitor.warn_batch(frame[None, :])[0])

    def test_interleaved_bursts_from_threads(self, pool, serving_monitors, rng):
        import threading

        errors = []

        def producer(seed):
            try:
                local = np.random.default_rng(seed).normal(size=(17, 6))
                expected = serving_monitors["minmax"].warn_batch(local)
                for _ in range(3):
                    results = [f.result(60) for f in pool.submit_many(local)]
                    got = np.array([r.warns["minmax"] for r in results])
                    np.testing.assert_array_equal(got, expected)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=producer, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

    def test_shape_mismatch_rejected_before_dispatch(self, pool):
        with pytest.raises(ShapeError):
            pool.submit_many(np.ones((3, 5)))

    def test_stats_ledger_counts_scored_frames(self, pool, rng):
        before = pool.stats.snapshot()["frames_scored"]
        [f.result(60) for f in pool.submit_many(rng.normal(size=(9, 6)))]
        snapshot = pool.stats.snapshot()
        assert snapshot["frames_scored"] >= before + 9
        assert sum(snapshot["flush_reasons"].values()) == snapshot["batches"]

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(min_value=0, max_value=2**16), rows=st.integers(1, 24))
    def test_parity_property(self, pool, serving_monitors, seed, rows):
        frames = np.random.default_rng(seed).normal(size=(rows, 6))
        results = [future.result(60) for future in pool.submit_many(frames)]
        for name, monitor in serving_monitors.items():
            remote = np.array([result.warns[name] for result in results])
            np.testing.assert_array_equal(remote, monitor.warn_batch(frames))


@pytest.mark.slow
class TestWorkerPoolRecovery:
    def test_injected_crash_loses_no_accepted_frames(
        self, deployment_bundle, serving_monitors, rng
    ):
        with WorkerPool(
            deployment_bundle,
            num_workers=2,
            policy=BatchPolicy(max_batch=16, max_latency=0.002),
        ) as pool:
            assert wait_for(lambda: pool.num_workers == 2)
            probe = rng.normal(size=(24, 6))
            pool.inject_worker_crash()
            futures = pool.submit_many(probe)
            results = [future.result(120) for future in futures]
            # every accepted frame resolved, with correct verdicts
            remote = np.array([result.warns["minmax"] for result in results])
            np.testing.assert_array_equal(
                remote, serving_monitors["minmax"].warn_batch(probe)
            )
            assert pool.restarts >= 1
            assert wait_for(lambda: pool.num_workers == 2)
            # the pool keeps scoring normally after the restart
            again = [f.result(60) for f in pool.submit_many(probe[:5])]
            assert len(again) == 5
        _assert_every_frame_accounted(pool.stats)
        assert pool.stats.snapshot()["frames_scored"] == 29

    def test_restart_budget_exhaustion_breaks_the_pool(
        self, deployment_bundle, rng
    ):
        pool = WorkerPool(
            deployment_bundle,
            num_workers=1,
            max_restarts=0,
            policy=BatchPolicy(max_batch=8, max_latency=0.002),
        )
        pool.start()
        try:
            assert wait_for(lambda: pool.num_workers == 1)
            pool.inject_worker_crash()
            futures = pool.submit_many(rng.normal(size=(4, 6)))
            for future in futures:
                with pytest.raises(WorkerCrashError):
                    future.result(120)
            with pytest.raises(WorkerCrashError):
                pool.submit_many(rng.normal(size=(2, 6)))
        finally:
            pool.close(drain=False)

    def test_configuration_validation(self, deployment_bundle):
        with pytest.raises(ConfigurationError):
            WorkerPool(deployment_bundle, num_workers=0)
        with pytest.raises(ConfigurationError):
            WorkerPool(deployment_bundle, num_workers=2, max_restarts=-1)
        with pytest.raises(ConfigurationError):
            WorkerPool(deployment_bundle, num_workers=4, slot_count=2)


@pytest.mark.slow
class TestWorkerPoolShutdown:
    def test_drain_close_scores_everything_and_reaps_children(
        self, deployment_bundle, serving_monitors, rng
    ):
        pool = WorkerPool(
            deployment_bundle,
            num_workers=2,
            policy=BatchPolicy(max_batch=16, max_latency=0.05),
        )
        pool.start()
        assert wait_for(lambda: pool.num_workers == 2)
        probe = rng.normal(size=(20, 6))
        futures = pool.submit_many(probe)
        ring_name = pool._ring.name
        pool.close(drain=True, timeout=120)
        # drain resolved every accepted future with correct verdicts
        results = [future.result(0) for future in futures]
        remote = np.array([result.warns["boolean"] for result in results])
        np.testing.assert_array_equal(
            remote, serving_monitors["boolean"].warn_batch(probe)
        )
        _assert_every_frame_accounted(pool.stats)
        assert pool.stats.snapshot()["frames_scored"] == 20
        # no child processes survive close() — the CI leg's hard assertion
        assert wait_for(lambda: not multiprocessing.active_children(), timeout=10)
        # and the shared-memory segment is gone
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=ring_name)

    def test_close_without_drain_cancels_queued_frames(self, deployment_bundle, rng):
        pool = WorkerPool(
            deployment_bundle,
            num_workers=1,
            # A latency bound far above the test's lifetime keeps the queued
            # frames pending until close() decides their fate.
            policy=BatchPolicy(max_batch=64, max_latency=60.0),
        )
        pool.start()
        assert wait_for(lambda: pool.num_workers == 1)
        futures = pool.submit_many(rng.normal(size=(6, 6)))
        pool.close(drain=False, timeout=120)
        assert all(future.cancelled() for future in futures)
        assert pool.stats.snapshot()["frames_cancelled"] == 6
        _assert_every_frame_accounted(pool.stats)

    def test_submit_after_close_raises(self, deployment_bundle, rng):
        pool = WorkerPool(deployment_bundle, num_workers=1)
        pool.start()
        assert wait_for(lambda: pool.num_workers == 1)
        pool.close(drain=True, timeout=120)
        with pytest.raises(ServiceClosedError):
            pool.submit_many(rng.normal(size=(2, 6)))

    def test_backpressure_overload(self, deployment_bundle, rng):
        pool = WorkerPool(
            deployment_bundle,
            num_workers=1,
            # A 60 s latency bound parks a below-max_batch burst in the
            # queue, so the second burst must trip the max_pending bound.
            policy=BatchPolicy(max_batch=8, max_latency=60.0, max_pending=8),
        )
        pool.start()
        try:
            assert wait_for(lambda: pool.num_workers == 1)
            pool.submit_many(rng.normal(size=(7, 6)))
            with pytest.raises(ServiceOverloadedError):
                pool.submit_many(rng.normal(size=(2, 6)))
        finally:
            pool.close(drain=False)
